"""The benchmark's three workloads and the checks on their outputs.

A workload turns a seed into inputs in three steps. Set-up generates a
dataset and trains a bundle through the CLI, then loads both back. Fit
selects the inputs to explain and, for ``amortized``, fits the translations
and baselines. The plan it returns is the list of explanation calls that
the timed phase replays, one explanation per call.

Bundles use the hyperparameters of the test-suite fixtures
(``tests/conftest.py``), which are known to produce genuinely uncertain
points. The seed drives data generation, training and the start points.
"""

from __future__ import annotations

import hashlib
import io
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import xlogy

from cluekit import cli, clue, data, divclue, diversity, glam, models

# Bound at import, before any tracer wraps the module attribute: scoring the
# returned sets is the benchmark's work, not a library layer's.
_dpp = diversity.dpp

BLOBS_DATA = {"generator": "blobs", "c": 4, "d": 16, "n": 800, "spread": 0.18}
BLOBS_TRAIN = {"vae_hidden": 48, "latent": 4, "vae_lr": 0.05, "vae_epochs": 150,
               "batch": 128, "kl_weight": 0.01, "ens_hidden": 32, "ens_lr": 0.1,
               "ens_epochs": 150, "members": 5}
DIGITS_DATA = {"generator": "minidigits", "n": 2000}
DIGITS_TRAIN = {"vae_hidden": 64, "latent": 8, "vae_lr": 0.05, "vae_epochs": 120,
                "batch": 128, "kl_weight": 0.1, "ens_hidden": 32, "ens_lr": 0.1,
                "ens_epochs": 80, "members": 5}

# criterion 9: applying a mapper is one encode, one decode and one predict
APPLY_MAPPER_EVALS = {"encode": 1, "decode": 1, "predict": 1}


class WorkloadError(RuntimeError):
    """The seed or the program cannot produce the workload as defined."""


@dataclass
class Output:
    """What one explanation call returned."""

    candidates: list  # CandidateCE
    z0: np.ndarray | None = None  # encoded input, the centre of the delta ball
    method_s: dict = field(default_factory=dict)  # seconds per method inside the call
    mapper_evals: dict | None = None  # models.EVAL_COUNTS change made by apply_mapper


@dataclass
class Task:
    """One explanation call of the timed phase."""

    variant: str
    input_id: int
    x0: np.ndarray
    run: Callable[[], Output]
    delta: float = math.inf  # latent ball the candidates must stay in
    k: int = 1  # number of candidates the call must return


@dataclass
class Plan:
    tasks: list
    lambda_x: float
    h_threshold: float  # a returned candidate is accepted below this entropy
    scores_sets: bool = True  # the candidates of one call form a counterfactual set


@dataclass
class Workload:
    name: str
    data_args: dict
    train_args: dict
    fit: Callable  # (bundle, dataset, seed) -> Plan
    default_seed: int


def _sets(args):
    out = []
    for key, value in args.items():
        out += ["--set", f"{key}={value}"]
    return out


def setup(workload, workdir, seed):
    """CLI ``gen-data`` and ``train`` into workdir, then load both back.

    Returns (bundle, dataset, sha256 of the trained weights).
    """
    workdir = Path(workdir)
    data_dir, model_dir = workdir / "data", workdir / "model"
    steps = (
        ["gen-data", "--out", str(data_dir), "--seed", str(seed), *_sets(workload.data_args)],
        ["train", "--out", str(model_dir), "--dataset", str(data_dir / "dataset"),
         "--seed", str(seed), *_sets(workload.train_args)],
    )
    for argv in steps:
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise WorkloadError(f"cluekit {argv[0]} exited {code} for seed {seed}")
    weights = hashlib.sha256((model_dir / "bundle" / "weights.bin").read_bytes()).hexdigest()
    return (models.load_bundle(model_dir / "bundle"),
            data.load_dataset(data_dir / "dataset"), weights)


def most_uncertain(bundle, xs, n):
    """(row, input) for the n inputs of highest predictive entropy."""
    ents = np.array([models.entropy(models.predict(bundle, x)) for x in xs])
    order = np.argsort(-ents, kind="stable")[:n]
    return [(int(i), xs[int(i)]) for i in order]


# The calls below look library functions up on their modules each time they
# run, so that a tracer installed after fit still sees them.


def fit_search(bundle, dataset, seed, n_inputs=25):
    config = clue.ExperimentConfig(delta=1.5, k=4, r=1.5, scheme="s1", lambda_x=0.03,
                                   lr=0.3, iters=50, seed=seed,
                                   h_threshold=data.default_taus(bundle)[1])

    def explain(x):
        ceset = clue.delta_clue(x, bundle, config)
        return Output(ceset.candidates, ceset.z0)

    tasks = [Task("delta_clue", i, x, lambda x=x: explain(x), config.delta, config.k)
             for i, x in most_uncertain(bundle, dataset.test_inputs(), n_inputs)]
    return Plan(tasks, config.lambda_x, config.h_threshold)


def fit_diverse(bundle, dataset, seed, n_inputs=12):
    base = dict(delta=2.0, k=4, r=2.0, scheme="s1", lambda_x=0.05, lambda_d=0.5,
                lr=0.3, iters=50, seed=seed, h_threshold=data.default_taus(bundle)[1])
    simultaneous = clue.ExperimentConfig(n_i=5, **base)
    plain = clue.ExperimentConfig(**base)
    input_dpp = diversity.DiversitySpec(metric="dpp", space="input")
    latent_dpp = diversity.DiversitySpec(metric="dpp", space="latent")

    def result(record):
        return Output(record.ceset.candidates, record.ceset.z0)

    variants = {
        "nabla_clue_simultaneous": lambda x: result(
            divclue.nabla_clue_simultaneous(x, bundle, simultaneous, input_dpp)),
        "nabla_clue_sequential": lambda x: result(
            divclue.nabla_clue_sequential(x, bundle, plain, latent_dpp)),
        "nabla_clue_penalty": lambda x: result(divclue.nabla_clue_penalty(x, bundle, plain)),
    }
    tasks = [Task(variant, i, x, lambda fn=fn, x=x: fn(x), plain.delta, plain.k)
             for i, x in most_uncertain(bundle, dataset.test_inputs(), n_inputs)
             for variant, fn in variants.items()]
    return Plan(tasks, plain.lambda_x, plain.h_threshold)


def fit_amortized(bundle, dataset, seed, lambda_x=0.03, lambda_theta=0.01):
    """Partition, one mapper per usable class, DBM baselines.

    One explanation answers one uncertain training point of a usable class
    with all five amortised methods in turn, each timed on its own as well.
    A single method takes well under a millisecond, except nn-latent, which
    takes 20 times as long; timing the five as one unit keeps the workload's
    latency distribution single-peaked, so its p90 is not a boundary
    between two methods.

    The nearest-neighbour baselines search the whole certain set: it is the
    20% most certain training points by construction, so every query does
    the same work whatever class split the seed draws.
    """
    tau_low, tau_high = data.default_taus(bundle)
    part = data.partition_by_certainty(dataset, bundle, tau_low, tau_high)
    xt = dataset.train_inputs()
    usable = [c for c in range(bundle.c_classes)
              if len(part.uncertain_of_class(c)) >= 3 and len(part.certain_of_class(c)) >= 3]
    if not usable:
        raise WorkloadError(f"seed {seed}: no class has 3 certain and 3 uncertain "
                            f"training points, so no mapper can be trained")
    mappers, dbm = {}, {}
    for c in usable:
        xu, xc = xt[part.uncertain_of_class(c)], xt[part.certain_of_class(c)]
        mappers[c] = glam.train_mapper(xu, xc, bundle, lambda_theta=lambda_theta,
                                       source_group=c, target_group=c)
        for space in ("input", "latent"):
            dbm[space, c] = glam.dbm_baseline(space, xu, xc, bundle)
    certain = xt[part.flags == "certain"]

    def explain(x, c):
        out = Output([])
        before = dict(models.EVAL_COUNTS)
        t0 = time.perf_counter()
        out.candidates.append(glam.apply_mapper(mappers[c], x, bundle, lambda_x))
        out.method_s["apply_mapper"] = time.perf_counter() - t0
        out.mapper_evals = {k: models.EVAL_COUNTS[k] - v for k, v in before.items()}
        for method, call in (
                ("dbm-input", lambda: dbm["input", c].apply(x, bundle, lambda_x)),
                ("dbm-latent", lambda: dbm["latent", c].apply(x, bundle, lambda_x)),
                ("nn-input", lambda: glam.nn_baseline("input", x, certain, bundle, lambda_x)),
                ("nn-latent", lambda: glam.nn_baseline("latent", x, certain, bundle,
                                                       lambda_x))):
            t0 = time.perf_counter()
            out.candidates.append(call())
            out.method_s[method] = time.perf_counter() - t0
        return out

    tasks = [Task("amortized", int(i), xt[i], lambda x=xt[i], c=c: explain(x, c), k=5)
             for c in usable for i in part.uncertain_of_class(c)]
    return Plan(tasks, lambda_x, tau_high, scores_sets=False)


WORKLOADS = {
    w.name: w for w in (
        Workload("search", BLOBS_DATA, BLOBS_TRAIN, fit_search, 7),
        Workload("diverse", DIGITS_DATA, DIGITS_TRAIN, fit_diverse, 11),
        Workload("amortized", BLOBS_DATA, BLOBS_TRAIN, fit_amortized, 7),
    )
}


def check_output(task, plan, out):
    """Problems with one explanation's output; an empty list means it passed."""
    problems = []
    if len(out.candidates) != task.k:
        problems.append(f"returned {len(out.candidates)} candidates, expected {task.k}")
    if out.mapper_evals is not None and out.mapper_evals != APPLY_MAPPER_EVALS:
        problems.append(f"apply_mapper made model evaluations {out.mapper_evals}, "
                        f"expected exactly {APPLY_MAPPER_EVALS}")
    for j, c in enumerate(out.candidates):
        if not (all(np.all(np.isfinite(a)) for a in (c.z, c.x, c.posterior))
                and all(math.isfinite(v) for v in (c.entropy, c.d_x, c.cost))):
            problems.append(f"candidate {j}: non-finite output")
            continue
        p = np.asarray(c.posterior)
        if p.min() < 0.0 or abs(p.sum() - 1.0) > 1e-9:
            problems.append(f"candidate {j}: posterior is not a simplex (sum {p.sum()!r})")
        if abs(c.entropy + float(np.sum(xlogy(p, p)))) > 1e-9:
            problems.append(f"candidate {j}: entropy does not match its posterior")
        if c.x.min() < 0.0 or c.x.max() > 1.0:
            problems.append(f"candidate {j}: input outside [0, 1]")
        d_x = float(np.sum(np.abs(c.x - task.x0)))
        if abs(c.d_x - d_x) > 1e-9 * max(1.0, d_x):
            problems.append(f"candidate {j}: d_x {c.d_x!r} != {d_x!r}")
        cost = c.entropy + plan.lambda_x * c.d_x
        if abs(c.cost - cost) > 1e-9 * max(1.0, abs(cost)):
            problems.append(f"candidate {j}: cost {c.cost!r} != H + lambda_x d_x = {cost!r}")
        if math.isfinite(task.delta):
            rho = float(np.linalg.norm(c.z - out.z0))
            if rho > task.delta * (1.0 + 1e-9):
                problems.append(f"candidate {j}: rho {rho!r} outside the delta={task.delta} ball")
    return problems


class Quality:
    """Deterministic quality of one pass over the plan's tasks."""

    def __init__(self, plan):
        self.plan = plan
        self.returned = 0
        self.accepted = 0
        self.best_costs = []
        self.set_dpps = []

    def add(self, candidates):
        self.returned += len(candidates)
        self.accepted += sum(c.entropy < self.plan.h_threshold for c in candidates)
        self.best_costs.append(min(c.cost for c in candidates))
        if self.plan.scores_sets:
            self.set_dpps.append(_dpp(np.stack([c.z for c in candidates])))

    def summary(self):
        return {
            "accepted_frac": self.accepted / self.returned if self.returned else math.nan,
            "mean_best_cost": float(np.mean(self.best_costs)) if self.best_costs else math.nan,
            "mean_set_dpp": float(np.mean(self.set_dpps)) if self.set_dpps else None,
        }
