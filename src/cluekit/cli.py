"""Command-line orchestration: train models, run explanation experiments,
sweep ablation grids, train amortized mappers, and benchmark timings.

Every command does all of its work first and then hands its files to
``write_outputs``, which creates ``--out``, writes each file atomically
(to a temp name, then a rename) and adds a run manifest (resolved config,
input/output hashes, wall times, seed); a command that fails writes
nothing. Exit codes: 0 success, 2 usage or config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import clue, data, divclue, diversity as div, glam, models


class UsageError(Exception):
    """Bad arguments or config: exit code 2."""


# ---------------------------------------------------------------------------
# plumbing


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_text(path, text):
    with models._atomic_open(path) as f:
        f.write(text)


def write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _hash_tree(path):
    """Hash a file, or every regular file under a directory."""
    if os.path.isfile(path):
        return {path: _sha256(path)}
    out = {}
    for root, _dirs, files in sorted(os.walk(path)):
        for name in sorted(files):
            p = os.path.join(root, name)
            out[p] = _sha256(p)
    return out


def write_outputs(args, command, config, inputs, files, wall_times, seed):
    """Create ``--out``, call ``writer(path)`` for each ``name: writer`` of
    ``files`` with ``path`` the name under it, and write ``run_manifest.json``
    hashing the inputs and every file written. Each command calls this as its
    last step, so one that fails before it leaves no output directory."""
    os.makedirs(args.out, exist_ok=True)
    outputs = {}
    for name, writer in files.items():
        path = os.path.join(args.out, name)
        writer(path)
        outputs.update(_hash_tree(path))
    write_json(os.path.join(args.out, "run_manifest.json"), {
        "command": command, "config": config,
        "inputs": {k: v for p in inputs for k, v in _hash_tree(p).items()},
        "outputs": outputs,
        "wall_times_s": {k: float(v) for k, v in wall_times.items()}, "seed": seed})


def load_config(path):
    if path is None:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as e:
            raise UsageError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return cfg


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare string


def apply_overrides(cfg, pairs):
    """--set key=value overrides, values parsed as JSON when possible."""
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        cfg[key] = _parse_value(value)
    return cfg


def resolve_config(args):
    cfg = load_config(args.config)
    cfg = apply_overrides(cfg, getattr(args, "set", None))
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


def _setting(cfg, key, default, kind=float, low=None):
    """cfg[key], else the default, as a ``kind`` (int or float); a value of
    another kind, or one below ``low``, is a usage error naming the key. An
    int setting takes only an integer, not 2.5, true or "2"; a float setting
    takes a finite number or a numeric string, not true, "nan" or "inf"."""
    value = cfg.get(key, default)
    what = "an int" if kind is int else "a number"
    if isinstance(value, bool) or (kind is int and not isinstance(value, int)):
        raise UsageError(f"{key} must be {what}, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{key} must be {what}, got {value!r}")
    if kind is float and not np.isfinite(number):
        raise UsageError(f"{key} must be finite, got {value!r}")
    if low is not None and number < low:
        raise UsageError(f"{key} must be >= {low}, got {value!r}")
    return number


def experiment_config(cfg):
    fields = {f for f in clue.ExperimentConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in cfg.items() if k in fields}
    if "delta" in kwargs and kwargs["delta"] in ("inf", None):
        kwargs["delta"] = float("inf")
    try:
        return clue.ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad experiment config: {e}")


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


def _load_inputs(args):
    """The bundle and the dataset; a dataset of another input width than the
    bundle's is a usage error."""
    bundle = _load("bundle", models.load_bundle, args.bundle)
    ds = _load("dataset", data.load_dataset, args.dataset)
    if ds.inputs.shape[1] != bundle.d_in:
        raise UsageError(f"dataset {args.dataset} has inputs of width {ds.inputs.shape[1]}, "
                         f"bundle {args.bundle} takes width {bundle.d_in}")
    return bundle, ds


def _top_uncertain(dataset, bundle, n):
    xs = dataset.test_inputs()
    order = np.argsort(-models.predict_entropy(bundle, xs), kind="stable")[:n]
    return [(int(i), xs[int(i)]) for i in order]


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args):
    cfg = resolve_config(args)
    kind = cfg.get("generator", "blobs")
    seed = _setting(cfg, "seed", 0, int, low=0)
    n, test_frac = _setting(cfg, "n", 2000, int), _setting(cfg, "test_frac", 0.2)
    t0 = time.perf_counter()
    try:
        if kind == "blobs":
            ds = data.gen_blobs(c=_setting(cfg, "c", 4, int), d=_setting(cfg, "d", 16, int),
                                n=n, spread=_setting(cfg, "spread", 0.18), seed=seed,
                                test_frac=test_frac)
        elif kind == "minidigits":
            ds = data.gen_minidigits(n=n, seed=seed, test_frac=test_frac)
        else:
            raise UsageError(f"unknown generator {kind!r}")
    except ValueError as e:
        raise UsageError(f"bad generator settings: {e}")
    wall = time.perf_counter() - t0
    write_outputs(args, "gen-data", cfg, [],
                  {"dataset": lambda p: data.save_dataset(ds, p),
                   "dataset.csv": lambda p: data.export_csv(ds, p)},
                  {"gen-data": wall}, seed)
    return 0


def cmd_train(args):
    cfg = resolve_config(args)
    seed = _setting(cfg, "seed", 0, int, low=0)

    def size(key, default):  # every size and count of training is >= 1
        return _setting(cfg, key, default, int, low=1)

    vae_hp = models.VaeHyperparams(
        hidden=size("vae_hidden", 64), latent=size("latent", 8),
        lr=_setting(cfg, "vae_lr", 0.05), epochs=size("vae_epochs", 60),
        batch=size("batch", 128), kl_weight=_setting(cfg, "kl_weight", 0.1))
    ens_hp = models.EnsembleHyperparams(
        hidden=size("ens_hidden", 32), lr=_setting(cfg, "ens_lr", 0.1),
        epochs=size("ens_epochs", 80), batch=size("batch", 128))
    members = size("members", 5)
    ds = _load("dataset", data.load_dataset, args.dataset)
    t0 = time.perf_counter()
    try:
        bundle = models.train_bundle(ds, vae_hp, ens_hp, n_members=members, seed=seed)
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
    write_outputs(args, "train", cfg, [args.dataset],
                  {"bundle": lambda p: models.save_bundle(bundle, p),
                   "training_report.json": lambda p: write_json(p, report)},
                  {"train": wall}, seed)
    print(f"held-out accuracy: {bundle.ensemble_report.heldout_accuracy}")
    return 0


def _delta_clue(x0, bundle, config, spec, context):
    return clue.delta_clue(x0, bundle, config, context)


# method -> fn(x0, bundle, config, spec, context) -> CESet
METHODS = {
    "clue": _delta_clue,  # run with delta=inf, r=0, k=1
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
        spec = div.DiversitySpec(metric=cfg.get("metric", "dpp"),
                                 space=cfg.get("space", "latent"))
    except ValueError as e:
        raise UsageError(f"bad diversity spec: {e}")
    if optimized and spec.space == "prediction":
        raise UsageError(f"diversity search needs one of {div.DIFFERENTIABLE_METRICS} "
                         f"in latent or input space, got metric {spec.metric!r} "
                         f"in {spec.space!r} space")
    return spec


def _partition(cfg, ds, bundle):
    """The certainty partition of the training inputs under the config's
    tau_low/tau_high, else the bundle's defaults."""
    lo, hi = data.default_taus(bundle)
    return data.partition_by_certainty(ds, bundle, _setting(cfg, "tau_low", lo),
                                       _setting(cfg, "tau_high", hi))


def _init_context(cfg, configs, ds, bundle):
    """The start data of schemes s2 and s5, drawn from the certainty
    partition, or None when no config starts with either away from z0."""
    schemes = {c.scheme for c in configs if c.r > 0.0}
    if not schemes & {"s2", "s5"}:
        return None
    part = _partition(cfg, ds, bundle)
    if "s2" in schemes:
        for j in range(bundle.c_classes):
            if len(part.certain_of_class(j)) == 0:
                raise UsageError(f"scheme s2 needs a certain training point in every "
                                 f"class; class {j} has none at tau_low={part.tau_low!r}")
    return clue.make_init_context(bundle, part, models.encode(bundle, ds.train_inputs()))


def cmd_explain(args):
    if args.top < 0:
        raise UsageError(f"--top must be >= 0, got {args.top}")
    run_method = METHODS.get(args.method)
    if run_method is None:
        raise UsageError(f"unknown method {args.method!r}; choose from {tuple(METHODS)}")
    cfg = resolve_config(args)
    if args.method == "clue":
        cfg = dict(cfg, delta=float("inf"), r=0.0, k=1)
    config = experiment_config(cfg)
    spec = _diversity_spec(cfg, args.method in DIVERSITY_METHODS)
    if clue.coincident_starts(config, args.method in ("divclue-seq", "divclue-pen")):
        raise UsageError(f"--method {args.method} with k={config.k} needs r > 0: at r=0 all k "
                         f"start points sit at z0, so it writes k identical candidates")
    bundle, ds = _load_inputs(args)
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
    files["scatter.csv"] = lambda p: write_csv(
        p, ["input", "candidate", "H", "d_x", "rho", "cost", "label", "accepted"], scatter_rows)
    files["label_distribution.csv"] = lambda p: write_csv(
        p, ["input", "class", "weight"], dist_rows)
    write_outputs(args, "explain", cfg, [args.bundle, args.dataset], files,
                  {"explain": wall}, config.seed)
    return 0


SWEEP_AXES = ("delta", "lambda_d", "lambda_theta", "n_i")


def _sweep_stats(record):
    cands = record.ceset.candidates
    hs = [c.entropy for c in cands]
    dxs = [c.d_x for c in cands]
    stats = {
        "min_H": min(hs), "mean_H": float(np.mean(hs)), "max_H": max(hs),
        "min_d_x": min(dxs), "mean_d_x": float(np.mean(dxs)), "max_d_x": max(dxs),
    }
    for metric, space, _k, value in record.metrics_rows:
        stats[f"{metric}_{space}"] = float(value)
    return stats


def cmd_sweep(args):
    cfg = resolve_config(args)
    seed = _setting(cfg, "seed", 0, int, low=0)
    if args.axis not in SWEEP_AXES:
        raise UsageError(f"unknown sweep axis {args.axis!r}; choose from {SWEEP_AXES}")
    try:
        grid = [float(v) for v in args.grid.split(",") if v != ""]
    except ValueError as e:
        raise UsageError(f"bad grid: {e}")
    if not grid:
        raise UsageError("sweep grid is empty")
    spec = _diversity_spec(cfg, optimized=True)
    settings = {"delta": lambda v: {"delta": v, "r": v},
                "lambda_d": lambda v: {"lambda_d": v},
                "n_i": lambda v: {"n_i": int(v) if v.is_integer() else v}}.get(args.axis)
    configs = [experiment_config(dict(cfg, **settings(v))) for v in grid] if settings else []
    if args.axis in ("lambda_d", "n_i") and (configs[0].k == 1
                                             or clue.coincident_starts(configs[0])):
        raise UsageError(f"sweep --axis {args.axis} needs k >= 2 and r > 0, got k={configs[0].k} "
                         f"and r={configs[0].r}: one point, or k copies of z0, has no "
                         f"diversity, so every grid point gives the same result")
    bundle, ds = _load_inputs(args)
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
    write_outputs(args, "sweep", dict(cfg, axis=args.axis, grid=grid),
                  [args.bundle, args.dataset],
                  {"sweep.csv": lambda p: write_csv(
                      p, ["axis", "value", "statistic", "result"], rows)},
                  {"sweep": wall}, seed)
    return 0


def _groups(cfg, ds, bundle):
    """{class: (uncertain, certain)} training inputs of every class with at
    least three of each under the config's (or the bundle's) entropy
    thresholds."""
    part = _partition(cfg, ds, bundle)
    xt = ds.train_inputs()
    groups = {}
    for c in range(bundle.c_classes):
        uncertain, certain = part.uncertain_of_class(c), part.certain_of_class(c)
        if len(uncertain) >= 3 and len(certain) >= 3:
            groups[c] = (xt[uncertain], xt[certain])
    if not groups:
        raise UsageError("no class has both certain and uncertain points")
    return groups


def _cap(cfg):
    """How many of each group's inputs glam1 trains on and every scheme explains."""
    return _setting(cfg, "cap", 20, int, low=1)


def _sweep_lambda_theta(grid, cfg, groups, bundle):
    """Mean H and d_x of glam1's counterfactuals at each lambda_theta (neither
    depends on lambda_x, which only weights the cost)."""
    rows, cap = [], _cap(cfg)
    for value in grid:
        scheme, _ = _glam_scheme("glam1", dict(cfg, lambda_theta=value), groups, bundle, [], cap)
        ces = _apply_scheme(scheme, groups, cap)
        hs, dxs = [ce.entropy for ce in ces], [ce.d_x for ce in ces]
        rows.append(["lambda_theta", value, "mean_H", float(np.mean(hs))])
        rows.append(["lambda_theta", value, "mean_d_x", float(np.mean(dxs))])
    return rows


GLAM_VARIANTS = ("glam1", "glam2", "dbm-input", "dbm-latent", "nn-input", "nn-latent")


def _glam_scheme(variant, cfg, groups, bundle, cesets, cap):
    """Build callable(x, class) -> CandidateCE for one comparison scheme."""
    lam_x = _setting(cfg, "lambda_x", 0.03, low=0)
    if variant == "glam1":
        mappers = {c: glam.train_mapper(
            uncertain[:cap], certain[:cap], bundle,
            lambda_theta=_setting(cfg, "lambda_theta", 0.01, low=0),
            source_group=c, target_group=c)
            for c, (uncertain, certain) in groups.items()}
        return (lambda x, c: glam.apply_mapper(mappers[c], x, bundle, lam_x),
                list(mappers.values()))
    if variant == "glam2":
        if not cesets:
            raise UsageError("glam2 requires prior CESet files "
                             "(pass --cesets with explain outputs)")
        labels = models.predict(bundle, np.stack([cs.x0 for cs in cesets])).argmax(axis=1)
        mappers = glam.mappers_from_cesets(
            cesets, labels, bundle,
            lambda_theta=_setting(cfg, "lambda_theta_clue", 0.0, low=0))
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
    seed, cap = _setting(cfg, "seed", 0, int, low=0), _cap(cfg)
    variants = list(GLAM_VARIANTS) if args.variant == "all" else [args.variant]
    for v in variants:
        if v not in GLAM_VARIANTS:
            raise UsageError(f"unknown variant {v!r}; choose from "
                             f"{GLAM_VARIANTS + ('all',)}")
    bundle, ds = _load_inputs(args)
    cesets = [_load("cesets", clue.load_ceset, p) for p in (args.cesets or [])]
    for path, cs in zip(args.cesets or [], cesets):
        if len(cs.x0) != bundle.d_in:
            raise UsageError(f"ceset {path} has an input of width {len(cs.x0)}, "
                             f"bundle {args.bundle} takes width {bundle.d_in}")
    groups = _groups(cfg, ds, bundle)
    t0 = time.perf_counter()
    rows, summaries, files = [], [], {}
    for variant in variants:
        scheme, mappers = _glam_scheme(variant, cfg, groups, bundle, cesets, cap)
        ces = _apply_scheme(scheme, groups, cap)
        rows += [[variant, pid, ce.entropy, ce.d_x, ce.cost, ce.label]
                 for pid, ce in enumerate(ces)]
        summaries.append([variant, "summary", float(np.mean([ce.cost for ce in ces])),
                          "", "", ""])
        files.update({f"mapper_{variant}_{i}.json": lambda p, m=m: glam.save_mapper(m, p)
                      for i, m in enumerate(mappers)})
    wall = time.perf_counter() - t0
    files["comparison.csv"] = lambda p: write_csv(
        p, ["scheme", "point", "H", "d_x", "cost", "label"], rows + summaries)
    write_outputs(args, "glam", dict(cfg, variant=args.variant),
                  [args.bundle, args.dataset] + (args.cesets or []), files,
                  {"glam": wall}, seed)
    return 0


BENCH_SCHEMES = ("glam", "dclue", "dbm-input", "dbm-latent", "nn-input", "nn-latent")


def cmd_bench(args):
    if args.repetitions < 1:
        raise UsageError(f"--repetitions must be >= 1, got {args.repetitions}")
    cfg = resolve_config(args)
    schemes = (list(BENCH_SCHEMES) if args.schemes == "all"
               else args.schemes.split(","))
    for s in schemes:
        if s not in BENCH_SCHEMES:
            raise UsageError(f"unknown scheme {s!r}; choose from "
                             f"{BENCH_SCHEMES + ('all',)}")
    config = experiment_config(cfg)
    if "dclue" in schemes and clue.coincident_starts(config):
        raise UsageError(f"--schemes dclue with k={config.k} needs r > 0: at r=0 all k start "
                         f"points sit at z0, so it times k identical descents")
    bundle, ds = _load_inputs(args)
    c, (xu, xc) = next(iter(_groups(cfg, ds, bundle).items()))
    x = xu[0]
    context = _init_context(cfg, [config], ds, bundle)
    start = time.perf_counter()
    mapper = glam.train_mapper(xu, xc, bundle, source_group=c, target_group=c)
    train_ms = 1000.0 * (time.perf_counter() - start)
    # construction (translations, certain-set latents) happens once here;
    # the timed loop below measures per-point inference only
    dbm_in = glam.dbm_baseline("input", xu, xc, bundle)
    dbm_lat = glam.dbm_baseline("latent", xu, xc, bundle)
    z_certain = models.encode(bundle, xc)
    runners = {
        "glam": lambda: glam.apply_mapper(mapper, x, bundle),
        "dclue": lambda: clue.delta_clue(x, bundle, config, context),
        "dbm-input": lambda: dbm_in.apply(x, bundle),
        "dbm-latent": lambda: dbm_lat.apply(x, bundle),
        "nn-input": lambda: glam.nn_baseline("input", x, xc, bundle),
        "nn-latent": lambda: glam.nn_baseline("latent", x, xc, bundle,
                                              z_certain=z_certain),
    }
    rows = []
    for name in schemes:
        times = []
        for _ in range(args.repetitions):
            t0 = time.perf_counter()
            runners[name]()
            times.append(1000.0 * (time.perf_counter() - t0))
        rows.append([name, float(np.median(times)), len(times)])
    rows.append(["mapper-training", train_ms, 1])
    wall = time.perf_counter() - start
    write_outputs(args, "bench", dict(cfg, schemes=schemes), [args.bundle, args.dataset],
                  {"bench.csv": lambda p: write_csv(
                      p, ["scheme", "median_ms", "repetitions"], rows)},
                  {"bench": wall}, config.seed)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cluekit",
        description="counterfactual latent uncertainty explanations, desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bundle=False, dataset=False):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config value")
        if bundle:
            p.add_argument("--bundle", default=None, help="trained bundle directory")
        if dataset:
            p.add_argument("--dataset", default=None, help="dataset directory")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train VAE + ensemble bundle")
    common(p, dataset=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("explain", help="run counterfactual search")
    common(p, bundle=True, dataset=True)
    p.add_argument("--method", default="dclue", help=f"one of {tuple(METHODS)}")
    p.add_argument("--top", type=int, default=1,
                   help="explain the n most uncertain test inputs")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("sweep", help="ablation sweep over one axis")
    common(p, bundle=True, dataset=True)
    p.add_argument("--axis", required=True, help=f"one of {SWEEP_AXES}")
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("glam", help="train/apply amortized mappers and baselines")
    common(p, bundle=True, dataset=True)
    p.add_argument("--variant", default="all",
                   help=f"one of {GLAM_VARIANTS + ('all',)}")
    p.add_argument("--cesets", nargs="*", default=None,
                   help="CESet JSON files (required for glam2)")
    p.set_defaults(fn=cmd_glam)

    p = sub.add_parser("bench", help="per-CE inference timing")
    common(p, bundle=True, dataset=True)
    p.add_argument("--schemes", default="all",
                   help=f"comma list from {BENCH_SCHEMES}")
    p.add_argument("--repetitions", type=int, default=5)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (models.TrainingDivergence, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
