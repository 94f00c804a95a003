"""Command-line orchestration: train models, run explanation experiments,
sweep ablation grids, train amortized mappers, and benchmark timings.

Each command reads the settings of one table, ``SETTINGS[command]``, which
declares every key it reads with its rule (a ``store.Rule``, for the search keys
``ExperimentConfig``'s own) and default. ``resolve_config`` merges ``--config``,
``--set`` and ``--seed`` and checks each value with its rule, as ``sweep`` does
each grid value, before any input is loaded: an unknown key, or a value its rule
refuses, is a usage error naming the key (and, for a misspelling, the key
probably meant). Every command does all of its work first and then hands its
files to ``write_outputs``, which creates ``--out``, writes each file through
``store.write_file`` (to a temp name, then a rename) and adds a run manifest
(the resolved settings, input/output hashes, wall times, seed, for ``train``
each job's wall time and the BLAS thread counts, and for ``bench`` each scheme's
median time and the mapper fit's); a command that fails writes nothing. A
missing or malformed input or config file is a usage error naming it. Exit
codes: 0 success, 2 usage or config error, 3 numerical failure, 4 a lost
training worker.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import clue, data, divclue, diversity as div, glam, models, store


class UsageError(Exception):
    """Bad arguments or config: exit code 2."""


# ---------------------------------------------------------------------------
# plumbing


def write_json(path, payload):
    store.write_file(path, store.json_text(payload) + "\n")


def write_outputs(args, config, inputs, files, wall_times, **environment):
    """Create ``--out``, call ``writer(path)`` for each ``name: writer`` of
    ``files`` with ``path`` the name under it, and write ``run_manifest.json``
    with the resolved settings ``config``, hashing the inputs and every file
    written, and with each ``environment`` entry as a key of its own. Each
    command calls this as its last step, so one that fails before it leaves
    no output directory."""
    os.makedirs(args.out, exist_ok=True)
    outputs = {}
    for name, writer in files.items():
        path = os.path.join(args.out, name)
        writer(path)
        outputs.update(store.hash_tree(path))
    write_json(os.path.join(args.out, "run_manifest.json"), {
        "command": args.command, "config": {k: store.to_json(v) for k, v in config.items()},
        "inputs": {k: v for p in inputs for k, v in store.hash_tree(p).items()},
        "outputs": outputs,
        "wall_times_s": {k: float(v) for k, v in wall_times.items()},
        **environment, "seed": config["seed"]})


def load_config(path):
    if path is None:
        return {}
    cfg = _load("config", lambda p: store.read_json(p, lambda payload: payload), path)
    if not isinstance(cfg, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# settings: each command's table of every key it reads

# key -> (rule, default); a store.Rule gives the kind and bound of the values a
# key takes. The search keys' rules are declared beside ExperimentConfig's
# fields. The generators' own bounds (c, d, n against c, test_frac, spread)
# stay in data, as gen_* and regenerate are library calls too.
Rule = store.Rule
SEARCH = {f.name: (f.metadata["rule"], f.default) for f in fields(clue.ExperimentConfig)}
DIVERSITY = {"metric": (Rule(div.ALL_METRICS), "dpp"), "space": (Rule(div.SPACES), "latent")}
# the certainty partition's entropy thresholds; None is the bundle's 20th or
# 80th training-entropy percentile, filled in once the bundle is loaded
TAUS = {"tau_low": (Rule(float), None), "tau_high": (Rule(float), None)}
SEED = {"seed": SEARCH["seed"]}
CAP = {"cap": (Rule(int, ge=1), 20)}  # each group's inputs glam1 fits and every scheme explains
SETTINGS = {
    "gen-data": {**SEED, "generator": (Rule(tuple(data.GENERATORS)), "blobs"),
                 "n": (Rule(int, ge=1), 2000), "test_frac": (Rule(float), 0.2),
                 "c": (Rule(int), 4), "d": (Rule(int), 16), "spread": (Rule(float), 0.18)},
    # the loop counts' upper bounds lie far above any desk-scale run, as k's and iters' do
    "train": {**SEED, "vae_hidden": (Rule(int, ge=1), 64), "latent": (Rule(int, ge=1), 8),
              "vae_lr": (Rule(float, gt=0), 0.05),
              "vae_epochs": (Rule(int, ge=1, le=100_000), 60),
              "batch": (Rule(int, ge=1), 128), "kl_weight": (Rule(float, ge=0), 0.1),
              "ens_hidden": (Rule(int, ge=1), 32), "ens_lr": (Rule(float, gt=0), 0.1),
              "ens_epochs": (Rule(int, ge=1, le=100_000), 80),
              "members": (Rule(int, ge=1, le=1_000), 5)},
    "explain": {**SEARCH, **DIVERSITY, **TAUS},
    "sweep": {**SEARCH, **DIVERSITY, **TAUS, **CAP},  # lambda_x weights glam1's cost too
    "glam": {**SEED, **TAUS, **CAP, "lambda_x": (SEARCH["lambda_x"][0], 0.03),
             "lambda_theta": (Rule(float, ge=0), 0.01),
             "lambda_theta_clue": (Rule(float, ge=0), 0.0)},
    "bench": {**SEARCH, **TAUS},
}


def _checked(key, value, rule):
    """``value`` of setting ``key`` if ``rule`` takes it, else a usage error."""
    try:
        rule.check(key, value)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return value


def _search_config(settings):
    """The ExperimentConfig of the settings' search keys."""
    return clue.ExperimentConfig(**{key: settings[key] for key in SEARCH})


def resolve_config(args):
    """Every key of the command's table with its value from ``--seed``, else ``--set``,
    else ``--config``, else the table's default, checked once; an unknown key (and its
    nearest) or a refused value is a usage error naming it and any config file it came from."""
    cfg = load_config(args.config)
    where = dict.fromkeys(cfg, f" (config file {args.config})")  # "" once a flag sets it
    seed = [] if args.seed is None else [f"seed={args.seed}"]  # --seed wins over --set
    for pair in (args.set or []) + seed:  # JSON, else a bare nan, inf or -inf, else a string
        key, eq, text = pair.partition("=")
        if not eq:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        try:
            cfg[key] = json.loads(text)
        except json.JSONDecodeError:
            cfg[key] = float(text) if text in ("nan", "inf", "-inf") else text
        where[key] = ""
    table = SETTINGS[args.command]
    for key in cfg:
        if key not in table:
            near = difflib.get_close_matches(key, table, n=1)
            raise UsageError(f"unknown setting {key!r}{where[key]} for {args.command}"
                             + (f"; did you mean {near[0]!r}?" if near else "")
                             + f" ({args.command} reads {', '.join(sorted(table))})")
    settings = {key: _checked(key + where[key], cfg[key], rule) if key in cfg else default
                for key, (rule, default) in table.items()}
    # a float setting is read as a float, but a search key keeps its JSON type for the ceset echo
    settings.update((key, float(settings[key])) for key in cfg
                    if table[key][0].kind is float and table[key] != SEARCH.get(key))
    return settings


def _load(what, loader, path):
    """``loader(path)``, with a missing or malformed input as a usage error."""
    if not path:
        raise UsageError(f"--{what} is required for this command")
    if not os.path.exists(path):
        raise UsageError(f"{what} path not found: {path}")
    try:
        return loader(path)
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot load {what} {path}: {e}")


def _load_inputs(args, settings):
    """The bundle and the dataset; a dataset of another input width than the
    bundle's is a usage error. Unset thresholds of ``settings`` become the
    bundle's percentiles, so the manifest records the ones the partition used."""
    bundle = _load("bundle", models.load_bundle, args.bundle)
    ds = _load("dataset", data.load_dataset, args.dataset)
    if ds.inputs.shape[1] != bundle.d_in:
        raise UsageError(f"dataset {args.dataset} has inputs of width {ds.inputs.shape[1]}, "
                         f"bundle {args.bundle} takes width {bundle.d_in}")
    for key, tau in zip(TAUS, data.default_taus(bundle)):
        if settings[key] is None:
            settings[key] = tau
    return bundle, ds


def _top_uncertain(dataset, bundle, n):
    xs = dataset.test_inputs()
    order = np.argsort(-models.predict_entropy(bundle, xs), kind="stable")[:n]
    return [(int(i), xs[int(i)]) for i in order]


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args):
    cfg = resolve_config(args)
    reads = ("generator",) + data.GENERATORS[cfg["generator"]][1]  # the keys the manifest keeps
    if unread := [k for k, (_, default) in SETTINGS["gen-data"].items()
                  if k not in reads and cfg[k] != default]:
        raise UsageError(f"generator {cfg['generator']!r} does not read {', '.join(unread)}")
    cfg = {key: value for key, value in cfg.items() if key in reads}
    t0 = time.perf_counter()
    try:
        ds = data.regenerate(dict(cfg, kind=cfg["generator"]))
    except ValueError as e:
        raise UsageError(f"bad generator settings: {e}")
    wall = time.perf_counter() - t0
    write_outputs(args, cfg, [],
                  {"dataset": lambda p: data.save_dataset(ds, p),
                   "dataset.csv": lambda p: data.export_csv(ds, p)},
                  {"gen-data": wall})
    return 0


def cmd_train(args):
    cfg = resolve_config(args)
    vae_hp = models.VaeHyperparams(
        hidden=cfg["vae_hidden"], latent=cfg["latent"], lr=cfg["vae_lr"], epochs=cfg["vae_epochs"],
        batch=cfg["batch"], kl_weight=cfg["kl_weight"])
    ens_hp = models.EnsembleHyperparams(
        hidden=cfg["ens_hidden"], lr=cfg["ens_lr"], epochs=cfg["ens_epochs"], batch=cfg["batch"])
    ds = _load("dataset", data.load_dataset, args.dataset)
    t0, record = time.perf_counter(), {}
    try:
        bundle = models.train_bundle(ds, vae_hp, ens_hp, n_members=cfg["members"],
                                     seed=cfg["seed"], record=record)
    except ValueError as e:
        raise UsageError(f"cannot train on dataset {args.dataset}: {e}")
    wall = time.perf_counter() - t0
    report = {
        "vae": {"final_loss": bundle.vae_report.final_loss,
                "mean_recon_l1": bundle.vae_report.mean_recon_l1,
                "loss_curve": bundle.vae_report.loss_curve},
        "ensemble": {"heldout_accuracy": bundle.ensemble_report.heldout_accuracy,
                     "entropy_percentiles": bundle.ensemble_report.entropy_percentiles,
                     "loss_curve": bundle.ensemble_report.loss_curve},
    }
    write_outputs(args, cfg, [args.dataset],
                  {"bundle": lambda p: models.save_bundle(bundle, p),
                   "training_report.json": lambda p: write_json(p, report)},
                  {"train": wall, "vae": record["vae_s"], "ensemble": record["ensemble_s"]},
                  blas_threads=record["blas_threads"])
    print(f"held-out accuracy: {bundle.ensemble_report.heldout_accuracy}")
    return 0


def _delta_clue(x0, bundle, config, spec, context):
    return clue.delta_clue(x0, bundle, config, context)


# method -> fn(x0, bundle, config, spec, context) -> CESet
METHODS = {
    "clue": _delta_clue,  # runs at delta=inf, r=0, k=1 only
    "dclue": _delta_clue,
    "divclue-sim": lambda x0, bundle, config, spec, context:
        divclue.nabla_clue_simultaneous(x0, bundle, config, spec, context).ceset,
    "divclue-seq": lambda x0, bundle, config, spec, context:
        divclue.nabla_clue_sequential(x0, bundle, config, spec, context).ceset,
    "divclue-pen": lambda x0, bundle, config, spec, context:
        divclue.nabla_clue_penalty(x0, bundle, config, context).ceset,
}
DIVERSITY_METHODS = ("divclue-sim", "divclue-seq")  # optimize the spec's metric


def _diversity_spec(cfg, optimized):
    """The config's DiversitySpec; one that a search optimizes must be a
    differentiable metric in latent or input space."""
    try:
        spec = div.DiversitySpec(metric=cfg["metric"], space=cfg["space"])
    except ValueError as e:
        raise UsageError(f"bad diversity spec: {e}")
    if optimized and spec.space == "prediction":
        raise UsageError(f"diversity search needs one of {div.DIFFERENTIABLE_METRICS} "
                         f"in latent or input space, got metric {spec.metric!r} "
                         f"in {spec.space!r} space")
    return spec


def _init_context(cfg, configs, ds, bundle):
    """The start data of scheme s2, the latents and labels of the certain
    training points, or None when no config runs s2 away from z0."""
    ks = [c.k for c in configs if c.scheme == "s2" and c.r > 0.0]
    if not ks:
        return None
    part = data.partition_by_certainty(ds, bundle, cfg["tau_low"], cfg["tau_high"])
    classes = min(max(ks), bundle.c_classes)  # make_starts builds a way to each
    for j in range(classes):
        if len(part.certain_of_class(j)) == 0:
            raise UsageError(f"scheme s2 at k={max(ks)} needs a certain training point in "
                             f"each of the first {classes} classes; class {j} has none at "
                             f"tau_low={part.tau_low!r}")
    certain = part.flags == "certain"
    return clue.InitContext(models.encode(bundle, ds.train_inputs()[certain]),
                            part.labels[certain])


def cmd_explain(args):
    _checked("--top", args.top, Rule(int, ge=0))
    run_method = METHODS[_checked("method", args.method, Rule(tuple(METHODS)))]
    cfg = resolve_config(args)
    for key, fixed in (("delta", math.inf), ("r", 0.0), ("k", 1)) if args.method == "clue" else ():
        if cfg[key] != fixed:
            raise UsageError(f"--method clue runs at {key}={fixed}, got {key}={cfg[key]!r}; "
                             f"use --method dclue")
    config = _search_config(cfg)
    spec = _diversity_spec(cfg, args.method in DIVERSITY_METHODS)
    if clue.coincident_starts(config, args.method in ("divclue-seq", "divclue-pen")):
        raise UsageError(f"--method {args.method} with k={config.k} needs r > 0: at r=0 all k "
                         f"start points sit at z0, so it writes k identical candidates")
    bundle, ds = _load_inputs(args, cfg)
    context = _init_context(cfg, [config], ds, bundle)
    selected = _top_uncertain(ds, bundle, args.top)
    t0 = time.perf_counter()
    cesets = [(idx, run_method(x0, bundle, config, spec, context)) for idx, x0 in selected]
    wall = time.perf_counter() - t0
    files = {f"ceset_{idx}.json": lambda p, ceset=ceset: clue.dump_ceset(ceset, p)
             for idx, ceset in cesets}
    scatter_rows = [[idx, ci, c.entropy, c.d_x, c.rho, c.cost, c.label, int(c.accepted)]
                    for idx, ceset in cesets for ci, c in enumerate(ceset.candidates)]
    dist_rows = [[idx, cls, float(w)] for idx, ceset in cesets if ceset.accepted()
                 for cls, w in enumerate(clue.label_distribution(ceset))]
    files["scatter.csv"] = lambda p: store.write_csv(
        p, ["input", "candidate", "H", "d_x", "rho", "cost", "label", "accepted"], scatter_rows)
    files["label_distribution.csv"] = lambda p: store.write_csv(
        p, ["input", "class", "weight"], dist_rows)
    write_outputs(args, dict(cfg, method=args.method, top=args.top), [args.bundle, args.dataset],
                  files, {"explain": wall})
    return 0


# axis -> the keys each grid value sets; lambda_theta is glam1's setting
SWEEP_AXES = {"delta": ("delta", "r"), "lambda_d": ("lambda_d",),
              "lambda_theta": ("lambda_theta",), "n_i": ("n_i",)}


def _sweep_stats(record):
    cands = record.ceset.candidates
    hs = [c.entropy for c in cands]
    dxs = [c.d_x for c in cands]
    stats = {
        "min_H": min(hs), "mean_H": float(np.mean(hs)), "max_H": max(hs),
        "min_d_x": min(dxs), "mean_d_x": float(np.mean(dxs)), "max_d_x": max(dxs),
    }
    for metric, space, _k, value in div.metric_report_rows(record.ceset):
        stats[f"{metric}_{space}"] = float(value)
    return stats


def cmd_sweep(args):
    cfg = resolve_config(args)
    keys = SWEEP_AXES[_checked("sweep axis", args.axis, Rule(tuple(SWEEP_AXES)))]
    try:
        grid = [float(v) for v in args.grid.split(",") if v != ""]
    except ValueError as e:
        raise UsageError(f"bad grid: {e}")
    if not grid:
        raise UsageError("sweep grid is empty")
    spec = _diversity_spec(cfg, optimized=True)
    # each grid value, an int on n_i if whole, is checked by the rule of each key it sets
    rules = {**SEARCH, "lambda_theta": SETTINGS["glam"]["lambda_theta"]}
    names = {key: key if key == args.axis else f"{key} (sweep --axis {args.axis} sets {key} "
             f"to each {args.axis} value too)" for key in keys}
    points = [{key: _checked(names[key], int(v) if key == "n_i" and v.is_integer() else v,
                             rules[key][0]) for key in keys} for v in grid]
    configs = [] if args.axis == "lambda_theta" else [_search_config({**cfg, **p}) for p in points]
    if args.axis in ("lambda_d", "n_i") and (configs[0].k == 1
                                             or clue.coincident_starts(configs[0])):
        raise UsageError(f"sweep --axis {args.axis} needs k >= 2 and r > 0, got k={configs[0].k} "
                         f"and r={configs[0].r}: one point, or k copies of z0, has no "
                         f"diversity, so every grid point gives the same result")
    bundle, ds = _load_inputs(args, cfg)
    groups = _groups(cfg, ds, bundle) if args.axis == "lambda_theta" else None
    context = _init_context(cfg, configs, ds, bundle)
    t0 = time.perf_counter()
    rows = []
    if groups is not None:
        rows = _sweep_lambda_theta(grid, cfg, groups, bundle)
    else:
        selected = _top_uncertain(ds, bundle, 1)
        if not selected:
            raise UsageError(f"sweep --axis {args.axis} explains the most uncertain test "
                             f"input, but the test split of {args.dataset} is empty")
        _, x0 = selected[0]
        for value, config in zip(grid, configs):
            record = divclue.nabla_clue_simultaneous(x0, bundle, config, spec, context)
            for stat, v in _sweep_stats(record).items():
                rows.append([args.axis, value, stat, v])
    wall = time.perf_counter() - t0
    write_outputs(args, dict(cfg, axis=args.axis, grid=grid), [args.bundle, args.dataset],
                  {"sweep.csv": lambda p: store.write_csv(
                      p, ["axis", "value", "statistic", "result"], rows)},
                  {"sweep": wall})
    return 0


def _groups(cfg, ds, bundle):
    """{class: (uncertain, certain)} training inputs of every class with at
    least three of each under the config's entropy thresholds."""
    part = data.partition_by_certainty(ds, bundle, cfg["tau_low"], cfg["tau_high"])
    xt = ds.train_inputs()
    groups = {}
    for c in range(bundle.c_classes):
        uncertain, certain = part.uncertain_of_class(c), part.certain_of_class(c)
        if len(uncertain) >= 3 and len(certain) >= 3:
            groups[c] = (xt[uncertain], xt[certain])
    if not groups:
        raise UsageError(f"no class has both certain and uncertain points at "
                         f"tau_low={part.tau_low!r} and tau_high={part.tau_high!r}")
    return groups


def _sweep_lambda_theta(grid, cfg, groups, bundle):
    """Mean H and d_x of glam1's counterfactuals at each lambda_theta (neither
    depends on lambda_x, which only weights the cost)."""
    rows = []
    for value in grid:
        scheme, _ = _glam_scheme("glam1", dict(cfg, lambda_theta=value), groups, bundle, [])
        ces = _apply_scheme(scheme, groups, cfg["cap"])
        hs, dxs = [ce.entropy for ce in ces], [ce.d_x for ce in ces]
        rows.append(["lambda_theta", value, "mean_H", float(np.mean(hs))])
        rows.append(["lambda_theta", value, "mean_d_x", float(np.mean(dxs))])
    return rows


BASELINES = ("dbm-input", "dbm-latent", "nn-input", "nn-latent")
GLAM_VARIANTS = ("glam1", "glam2") + BASELINES


def _glam_scheme(variant, cfg, groups, bundle, cesets):
    """Build callable(x, class) -> CandidateCE for one comparison scheme."""
    lam_x = cfg["lambda_x"]
    if variant == "glam1":
        cap = cfg["cap"]
        mappers = {c: glam.train_mapper(
            uncertain[:cap], certain[:cap], bundle, lambda_theta=cfg["lambda_theta"],
            source_group=c, target_group=c)
            for c, (uncertain, certain) in groups.items()}
        return (lambda x, c: glam.apply_mapper(mappers[c], x, bundle, lam_x),
                list(mappers.values()))
    if variant == "glam2":
        if not cesets:
            raise UsageError("glam2 requires prior CESet files "
                             "(pass --cesets with explain outputs)")
        labels = models.predict(bundle, np.stack([cs.x0 for cs in cesets])).argmax(axis=1)
        mappers = glam.mappers_from_cesets(cesets, labels, bundle,
                                           lambda_theta=cfg["lambda_theta_clue"])
        if not mappers:
            raise UsageError("glam2: no (class, label) group has enough pairs")
        return (lambda x, c: glam.pick_best_mapper(mappers, x, bundle, lam_x),
                mappers)
    kind, space = variant.split("-")
    if kind == "dbm":
        baselines = {c: glam.dbm_baseline(space, uncertain, certain, bundle)
                     for c, (uncertain, certain) in groups.items()}
        return lambda x, c: baselines[c].apply(x, bundle, lam_x), []
    return lambda x, c: glam.nn_baseline(space, x, groups[c][1], bundle, lam_x), []


def _apply_scheme(scheme, groups, cap):
    """The scheme's counterfactual of each group's first ``cap`` uncertain inputs."""
    return [scheme(x, c) for c, (uncertain, _certain) in groups.items()
            for x in uncertain[:cap]]


def cmd_glam(args):
    cfg = resolve_config(args)
    variant = _checked("variant", args.variant, Rule(GLAM_VARIANTS + ("all",)))
    variants = list(GLAM_VARIANTS) if variant == "all" else [variant]
    bundle, ds = _load_inputs(args, cfg)
    cesets = [_load("cesets", clue.load_ceset, p) for p in (args.cesets or [])]
    widths = {"x": bundle.d_in, "z": bundle.m_latent, "posterior": bundle.c_classes}
    for path, cs in zip(args.cesets or [], cesets):
        for what, array, width in [("x0", cs.x0, bundle.d_in)] + [
                (f"candidate {i}'s {name}", getattr(c, name), width)
                for i, c in enumerate(cs.candidates) for name, width in widths.items()]:
            if len(array) != width:
                raise UsageError(f"ceset {path} has {what} of width {len(array)}, "
                                 f"bundle {args.bundle} takes width {width}")
        for i, c in enumerate(cs.candidates):
            if c.label >= bundle.c_classes:
                raise UsageError(f"ceset {path} has candidate {i}'s label {c.label}, "
                                 f"bundle {args.bundle} has {bundle.c_classes} classes")
    groups = _groups(cfg, ds, bundle)
    t0 = time.perf_counter()
    rows, summaries, files = [], [], {}
    for variant in variants:
        scheme, mappers = _glam_scheme(variant, cfg, groups, bundle, cesets)
        ces = _apply_scheme(scheme, groups, cfg["cap"])
        rows += [[variant, pid, ce.entropy, ce.d_x, ce.cost, ce.label]
                 for pid, ce in enumerate(ces)]
        mean_cost = float(np.mean([ce.cost for ce in ces]))
        if not math.isfinite(mean_cost):
            raise FloatingPointError(f"{variant}: the mean cost diverged to {mean_cost}")
        summaries.append([variant, "summary", mean_cost, "", "", ""])
        files.update({f"mapper_{variant}_{i}.json": lambda p, m=m: glam.save_mapper(m, p)
                      for i, m in enumerate(mappers)})
    wall = time.perf_counter() - t0
    files["comparison.csv"] = lambda p: store.write_csv(
        p, ["scheme", "point", "H", "d_x", "cost", "label"], rows + summaries)
    write_outputs(args, dict(cfg, variant=args.variant),
                  [args.bundle, args.dataset] + (args.cesets or []), files, {"glam": wall})
    return 0


BENCH_SCHEMES = ("glam", "dclue") + BASELINES


def cmd_bench(args):
    _checked("--repetitions", args.repetitions, Rule(int, ge=1, le=100_000))
    cfg = resolve_config(args)
    schemes = (list(BENCH_SCHEMES) if args.schemes == "all"
               else [_checked("scheme", s, Rule(BENCH_SCHEMES)) for s in args.schemes.split(",")])
    config = _search_config(cfg)
    if "dclue" in schemes and clue.coincident_starts(config):
        raise UsageError(f"--schemes dclue with k={config.k} needs r > 0: at r=0 all k start "
                         f"points sit at z0, so it times k identical descents")
    bundle, ds = _load_inputs(args, cfg)
    c, (xu, xc) = next(iter(_groups(cfg, ds, bundle).items()))
    x = xu[0]
    context = _init_context(cfg, [config] if "dclue" in schemes else [], ds, bundle)
    # each scheme is built here as glam builds it (glam1's mapper on the first
    # cap rows of each side at glam's lambda_theta, a DBM's translation once),
    # so the timed loop below measures what glam runs per point
    cfg_glam = dict(cfg, **{key: SETTINGS["glam"][key][1] for key in ("cap", "lambda_theta")})
    start = time.perf_counter()
    built = {"glam": _glam_scheme("glam1", cfg_glam, {c: (xu, xc)}, bundle, [])[0]}
    train_s = time.perf_counter() - start
    built.update((v, _glam_scheme(v, cfg_glam, {c: (xu, xc)}, bundle, [])[0]) for v in BASELINES)
    runners = {name: lambda scheme=scheme: scheme(x, c) for name, scheme in built.items()}
    runners["dclue"] = lambda: clue.delta_clue(x, bundle, config, context)
    # bench.csv keeps what a rerun repeats, one call's model calls; the times go to the manifest
    rows, medians = [], {}
    for name in schemes:
        times = []
        for _ in range(args.repetitions):
            before = dict(models.EVAL_COUNTS)
            t0 = time.perf_counter()
            runners[name]()
            times.append(1000.0 * (time.perf_counter() - t0))
        medians[name] = float(np.median(times))
        rows.append([name, len(times)] + [n - before[k] for k, n in models.EVAL_COUNTS.items()])
    wall = time.perf_counter() - start
    write_outputs(args, dict(cfg, schemes=schemes, repetitions=args.repetitions),
                  [args.bundle, args.dataset],
                  {"bench.csv": lambda p: store.write_csv(
                      p, ["scheme", "repetitions", *models.EVAL_COUNTS], rows)},
                  {"bench": wall, "mapper-training": train_s}, median_ms=medians)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cluekit",
        description="counterfactual latent uncertainty explanations, desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, *inputs):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help=f"override a config value; keys: {', '.join(SETTINGS[name])}")
        if "bundle" in inputs:
            p.add_argument("--bundle", default=None, help="trained bundle directory")
        if "dataset" in inputs:
            p.add_argument("--dataset", default=None, help="dataset directory")
        p.set_defaults(fn=fn)
        return p

    command("gen-data", cmd_gen_data, "generate a synthetic dataset")
    command("train", cmd_train, "train VAE + ensemble bundle", "dataset")
    p = command("explain", cmd_explain, "run counterfactual search", "bundle", "dataset")
    p.add_argument("--method", default="dclue", help=f"one of {tuple(METHODS)}")
    p.add_argument("--top", type=int, default=1,
                   help="explain the n most uncertain test inputs")
    p = command("sweep", cmd_sweep, "ablation sweep over one axis", "bundle", "dataset")
    p.add_argument("--axis", required=True, help=f"one of {tuple(SWEEP_AXES)}")
    p.add_argument("--grid", required=True, help="comma-separated values")
    p = command("glam", cmd_glam, "train/apply amortized mappers and baselines",
                "bundle", "dataset")
    p.add_argument("--variant", default="all",
                   help=f"one of {GLAM_VARIANTS + ('all',)}")
    p.add_argument("--cesets", nargs="*", default=None,
                   help="CESet JSON files (required for glam2)")
    p = command("bench", cmd_bench, "per-CE inference timing", "bundle", "dataset")
    p.add_argument("--schemes", default="all",
                   help=f"comma list from {BENCH_SCHEMES}")
    p.add_argument("--repetitions", type=int, default=5)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every overflow or invalid value a command meets is checked and exits 3
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except (UsageError, MemoryError) as e:  # a size past memory is the user's to lower
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    except (models.TrainingDivergence, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except models.TrainingWorkerLost as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
