"""Runs one workload and reports its metrics.

Untraced (``--trace 0``): set-up and fit run ``SETUP_REPEATS`` times
between host-speed probes and report their corrected median. The timed
phase then replays the plan's tasks in a
closed loop with one caller, one explanation per call, until ``seconds``
have passed and at least ``MIN_EXPLANATIONS`` explanations and one full
pass over the tasks are done. Quality metrics come from that first pass,
so they depend only on the seed and the code.

Traced (``--trace 1``): one set-up and one fit run with the tracer
installed. Then untraced and traced passes over the tasks alternate until
``seconds`` have passed. Per-layer numbers are those of one set-up, one
fit and one pass (the mean over the traced passes); the tracing overhead
compares the median traced pass with the median untraced one.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import cluekit
from cluekit import models

import environment
import tracer as tracing
import workloads

MIN_EXPLANATIONS = 100  # ten samples beyond p90
SETUP_REPEATS = 3

# Gated end-to-end metrics. Their times are corrected to the nominal host
# speed (environment.HostSpeed): on a host that switches between a fast and
# a slow state for seconds or minutes at a time, raw times move with the
# share of the run spent in each state, and no run length averages that
# out. The raw times are printed next to them.
END_TO_END = (
    ("setup_s", "s"),
    ("explain_per_s", "1/s"),
    ("explain_p50_ms", "ms"),
    ("explain_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Printed with each untraced result and written to the result file, not
# gated: raw times, and quality numbers, which repeat exactly for a seed but
# differ between seeds because each seed trains another bundle.
REPORTED = (
    ("fit_s", "s"),
    ("raw_setup_s", "s"),
    ("raw_explain_per_s", "1/s"),
    ("raw_explain_p50_ms", "ms"),
    ("raw_explain_p90_ms", "ms"),
    ("probe_ms", "ms"),
    ("failed_frac", "ratio"),
    ("accepted_frac", "ratio"),
    ("mean_best_cost", "nats"),
    ("mean_set_dpp", "-"),
)

_CALLS_AND_SELF = ("diffcore.backward", "models.encode", "models.decode", "models.predict",
                   "clue.objective", "clue.project_to_ball", "diversity.diversity_node")
_SELF_ONLY = ("models.encode_graph", "models.decode_logits_graph", "models.decode_graph",
              "models.member_probs_graph", "models.posterior_graph", "models.entropy_graph",
              "models.train_vae", "models.train_ensemble", "clue.make_candidate",
              "divclue.nabla_clue_simultaneous", "divclue.nabla_clue_sequential",
              "divclue.nabla_clue_penalty", "divclue.diversity_presearch",
              "diversity.metric_report_rows", "glam.apply_mapper", "glam.nn_baseline",
              "glam.DbmBaseline.apply", "glam.train_mapper", "data.partition_by_certainty",
              "data.gen", "cli.main")
PER_LAYER = (
    *[(f"{n}.calls", "count") for n in _CALLS_AND_SELF],
    *[(f"{n}.self_ms", "ms") for n in _CALLS_AND_SELF + _SELF_ONLY],
    ("diffcore.tensors", "count"),
    ("diffcore.tensors_per_objective", "count"),
    ("clue.objective_per_explanation", "count"),
    ("clue.project_to_ball.clipped_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
)


class Tally:
    """Latencies and failures of the explanation calls made so far.

    With a ``HostSpeed``, a probe precedes each call when one is due, so
    that every call lies between two probes once the caller probes at the
    end; ``corrected`` then scales the latencies to the nominal host speed.
    """

    def __init__(self, speed=None):
        self.speed = speed
        self.intervals = []  # (start, end) of each call
        self.by_variant = defaultdict(list)  # (call index, seconds) per method
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def latencies(self):
        return np.array([end - start for start, end in self.intervals])

    def factors(self):
        return np.array([self.speed.factor(start, end) for start, end in self.intervals])

    def explain(self, task, plan, quality=None):
        """Make one explanation call, time it, and check its output."""
        if self.speed is not None:
            self.speed.probe_if_due()
        t0 = time.perf_counter()
        try:
            out = task.run()
        except (FloatingPointError, models.TrainingDivergence) as e:
            t1 = time.perf_counter()
            out, problems = None, [f"{type(e).__name__}: {e}"]
        else:
            t1 = time.perf_counter()
            problems = workloads.check_output(task, plan, out)
        for method, seconds in (out.method_s.items() if out and out.method_s
                                else [(task.variant, t1 - t0)]):
            self.by_variant[method].append((self.attempted, seconds))
        self.attempted += 1
        self.intervals.append((t0, t1))
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{task.variant} input {task.input_id}: "
                                     + "; ".join(problems))
        elif quality is not None:
            quality.add(out.candidates)


def _prepare(workload, workdir, seed, repeats, speed):
    """Set-up and fit ``repeats`` times, each between two host-speed probes.

    Returns the last plan, the raw and corrected set-up plus fit times, the
    corrected fit times, and problems. The repeats must train identical
    weights.
    """
    raw, setup_s, fit_s, weights = [], [], [], set()
    for r in range(repeats):
        before = speed.probe()
        t0 = time.perf_counter()
        bundle, dataset, sha = workloads.setup(workload, workdir / f"setup{r}", seed)
        t1 = time.perf_counter()
        plan = workload.fit(bundle, dataset, seed)
        t2 = time.perf_counter()
        factor = environment.NOMINAL_PROBE_MS / ((before + speed.probe()) / 2.0)
        raw.append(t2 - t0)
        setup_s.append(factor * (t2 - t0))
        fit_s.append(factor * (t2 - t1))
        weights.add(sha)
    problems = [] if len(weights) == 1 else [
        f"set-up is not deterministic: {len(weights)} distinct weight files from one seed"]
    return plan, raw, setup_s, fit_s, problems


def timed_run(workload, workdir, seed, seconds, min_explanations, setup_repeats):
    speed = environment.HostSpeed()
    plan, raw_setup_s, setup_s, fit_s, problems = _prepare(workload, workdir, seed,
                                                           setup_repeats, speed)
    tally = Tally(speed)
    tally.problems += problems
    quality = workloads.Quality(plan)
    tasks = plan.tasks
    n_min = max(min_explanations, len(tasks))
    t_start = time.perf_counter()
    deadline = t_start + seconds
    i = 0
    while i < n_min or time.perf_counter() < deadline:
        tally.explain(tasks[i % len(tasks)], plan, quality if i < len(tasks) else None)
        i += 1
    wall = time.perf_counter() - t_start
    speed.probe()  # closes the bracket of the last call
    ok = tally.attempted - tally.failed
    factors = tally.factors()
    raw_ms = 1000.0 * tally.latencies
    corrected_ms = factors * raw_ms
    metrics = {
        "setup_s": statistics.median(setup_s),
        "explain_per_s": 1000.0 * ok / float(np.sum(corrected_ms)),
        "explain_p50_ms": float(np.percentile(corrected_ms, 50)),
        "explain_p90_ms": float(np.percentile(corrected_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "fit_s": statistics.median(fit_s),
        "raw_setup_s": statistics.median(raw_setup_s),
        "raw_explain_per_s": ok / wall,
        "raw_explain_p50_ms": float(np.percentile(raw_ms, 50)),
        "raw_explain_p90_ms": float(np.percentile(raw_ms, 90)),
        "probe_ms": statistics.median(speed.probes_ms),
        "probe_ms_min_max": [min(speed.probes_ms), max(speed.probes_ms)],
        "probes": len(speed.probes_ms),
        "setup_s_samples": setup_s,
        "raw_setup_s_samples": raw_setup_s,
        "fit_s_samples": fit_s,
        "timed_wall_s": wall,
        "tasks_per_pass": len(tasks),
        "failed_frac": tally.failed / tally.attempted,
        **quality.summary(),
        "variant_p50_ms": {v: 1000.0 * float(np.median([factors[i] * sec for i, sec in t]))
                           for v, t in tally.by_variant.items()},
        "variant_calls": {v: len(t) for v, t in tally.by_variant.items()},
        "problems": tally.problems,
    }
    return tally, metrics, report


def traced_run(workload, workdir, seed, seconds, out_dir):
    tr = tracing.Tracer()
    with tr.installed(cluekit):
        with tr.span("bench.setup"):
            bundle, dataset, _ = workloads.setup(workload, workdir / "setup0", seed)
        with tr.span("bench.fit"):
            plan = workload.fit(bundle, dataset, seed)
    prep_spans = len(tr.spans)
    prep_tensors = tr.counts["diffcore.tensors"]

    tally = Tally()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for task in plan.tasks:
            tally.explain(task, plan)
        untraced.append(time.perf_counter() - t0)
        with tr.installed(cluekit):
            t0 = time.perf_counter()
            with tr.span("bench.pass"):
                for j, task in enumerate(plan.tasks):
                    tr.explanation = len(traced) * len(plan.tasks) + j
                    tally.explain(task, plan)
            traced.append(time.perf_counter() - t0)
        tr.explanation = -1
    passes = len(traced)

    selfs = tracing.self_times(tr.spans)
    calls, self_s = defaultdict(float), defaultdict(float)
    for idx, (span, own) in enumerate(zip(tr.spans, selfs)):
        weight = 1.0 if idx < prep_spans else 1.0 / passes
        calls[span.name] += weight
        self_s[span.name] += weight * own
    pass_calls = defaultdict(int)
    for span in tr.spans[prep_spans:]:
        pass_calls[span.name] += 1
    pass_tensors = tr.counts["diffcore.tensors"] - prep_tensors

    metrics = {}
    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = calls[layer]
        elif stat == "self_ms":
            metrics[name] = 1000.0 * self_s[layer]
    objective_calls = pass_calls["clue.objective"]
    projections = pass_calls["clue.project_to_ball"]
    bench_wall = sum(s.end - s.start for s in tr.spans if s.parent < 0)
    library_self = sum(own for s, own in zip(tr.spans, selfs) if not s.name.startswith("bench."))
    metrics.update({
        "diffcore.tensors": prep_tensors + pass_tensors / passes,
        "diffcore.tensors_per_objective": pass_tensors / objective_calls if objective_calls else 0.0,
        "clue.objective_per_explanation": objective_calls / (passes * len(plan.tasks)),
        "clue.project_to_ball.clipped_frac":
            tr.counts["clue.project_to_ball.clipped"] / projections if projections else 0.0,
        "trace.overhead_frac": (statistics.median(traced) - statistics.median(untraced))
                               / statistics.median(untraced),
        "trace.attributed_frac": library_self / bench_wall,
    })
    spans_path = out_dir / f"{workload.name}-seed{seed}-spans.jsonl.gz"
    tr.write(spans_path)
    report = {
        "passes": passes,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "traced_wall_s": bench_wall,
        "self_s_sum": sum(selfs),
        "library_self_s": library_self,
        "spans": len(tr.spans),
        "spans_file": str(spans_path),
        "problems": tally.problems,
    }
    return tally, metrics, report


def run(name, seed, seconds, trace, root, *, min_explanations=MIN_EXPLANATIONS,
        setup_repeats=SETUP_REPEATS, blas_threads=None):
    """One benchmark run. Returns the result dict; writes it under ``.bench_out``."""
    workload = workloads.WORKLOADS[name]
    root = Path(root)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = root / ".bench_work" / f"{name}-{os.getpid()}"
    env = environment.record(root, seed, blas_threads)
    env["reference_loop_ms_start"] = environment.reference_loop_ms()
    try:
        if trace:
            tally, metrics, report = traced_run(workload, workdir, seed, seconds, out_dir)
        else:
            tally, metrics, report = timed_run(workload, workdir, seed, seconds,
                                               min_explanations, setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["reference_loop_ms_end"] = environment.reference_loop_ms()
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "report": report, "result": result}
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return detail


def amortization_line(out_dir, seed, k=4):
    """apply_mapper p50 against search p50 per candidate, if both runs exist."""
    paths = [Path(out_dir) / f"{w}-seed{seed}-trace0.json" for w in ("amortized", "search")]
    if not all(p.exists() for p in paths):
        return None
    amortized, search = (json.loads(p.read_text(encoding="utf-8")) for p in paths)
    try:
        mapper_ms = amortized["report"]["variant_p50_ms"]["apply_mapper"]
        search_ms = search["result"]["metrics"]["explain_p50_ms"]["value"]
    except KeyError:  # a result file written by another version of the benchmark
        return None
    per_candidate = search_ms / k
    return (f"amortization (seed {seed}): apply_mapper p50 {mapper_ms:.4f} ms vs search "
            f"p50/k {per_candidate:.3f} ms ({search_ms:.3f} ms / k={k}); ratio "
            f"{mapper_ms / per_candidate:.5f} = 1/{per_candidate / mapper_ms:.1f} "
            f"(criterion 9 gates it at <= 1/50)")


def format_report(detail):
    """Human-readable lines that precede the JSON result line."""
    r, rep, env = detail["result"], detail["report"], detail["env"]
    lines = [f"workload {detail['workload']}  seed {detail['seed']}  "
             f"seconds {detail['seconds']}  trace {detail['trace']}",
             "env " + json.dumps(env, sort_keys=True),
             f"reference loop (20k 8x8 matmuls; context, not a metric): "
             f"start {env['reference_loop_ms_start']:.2f} ms, "
             f"end {env['reference_loop_ms_end']:.2f} ms",
             f"explanations: {r['attempted']} attempted, {r['failed']} failed, "
             f"failed_frac {r['failed'] / r['attempted']:.4f} (closed loop, one caller)"]
    for name, m in r["metrics"].items():
        lines.append(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if detail["trace"]:
        lines.append(f"traced wall {rep['traced_wall_s']:.3f} s = sum of self times "
                     f"{rep['self_s_sum']:.3f} s, of which library layers "
                     f"{rep['library_self_s']:.3f} s; {rep['passes']} traced passes, "
                     f"{rep['spans']} spans in {rep['spans_file']}")
    else:
        lines.append("not gated (see README.md); fit_s is part of setup_s:")
        for name, unit in REPORTED:
            value = rep[name]
            lines.append(f"  {name:40s} " + (f"{value:>14.6g} {unit}" if value is not None
                                             else "           n/a"))
        for v, ms in rep["variant_p50_ms"].items():
            lines.append(f"  p50 {v:36s} {ms:>14.6g} ms  ({rep['variant_calls'][v]} calls, "
                         f"corrected)")
    for p in rep["problems"]:
        lines.append(f"FAILED CHECK: {p}")
    return lines
