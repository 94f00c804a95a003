"""Tests of the benchmark itself: self-time arithmetic, the wrappers, the
output checks, the metric declarations, and short runs on a second seed.

    python -m pytest -q perfbench/tests
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cluekit  # noqa: E402
from cluekit import clue, data, divclue, diversity, models  # noqa: E402

import environment  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent, -1)


def test_self_time_of_nested_spans():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0, 0), _span("c", 2.0, 3.0, 1)]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]


def test_self_time_of_sibling_spans():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0, 0), _span("c", 5.0, 7.0, 0),
             _span("d", 2.0, 3.0, 1)]
    selfs = tracing.self_times(spans)
    assert selfs == [5.0, 2.0, 2.0, 1.0]
    assert sum(selfs) == 10.0  # self times of a tree add up to its root's span


def test_self_time_merges_overlaps_and_clips_children():
    overlapping = [_span("a", 0.0, 10.0), _span("b", 2.0, 6.0, 0), _span("c", 4.0, 8.0, 0)]
    assert tracing.self_times(overlapping)[0] == 4.0
    overhanging = [_span("a", 0.0, 5.0), _span("b", 3.0, 9.0, 0)]
    assert tracing.self_times(overhanging)[0] == 3.0


def test_host_speed_factor_uses_the_probes_around_an_interval():
    speed = environment.HostSpeed()
    speed.starts, speed.ends, speed.probes_ms = [0.0, 1.0, 2.0], [0.1, 1.1, 2.1], [4.0, 2.0, 6.0]
    nominal = environment.NOMINAL_PROBE_MS
    assert speed.factor(0.2, 0.9) == pytest.approx(nominal / 3.0)
    assert speed.factor(1.1, 2.0) == pytest.approx(nominal / 4.0)
    assert speed.factor(0.1, 1.5) == pytest.approx(nominal / 5.0)  # spans a probe
    with pytest.raises(ValueError):
        speed.factor(0.05, 0.5)  # the first probe had not ended
    with pytest.raises(ValueError):
        speed.factor(1.2, 2.05)  # no probe began after it


@pytest.fixture(scope="module")
def tiny():
    ds = data.gen_blobs(c=3, d=8, n=120, spread=0.2, seed=3)
    bundle = models.train_bundle(ds, models.VaeHyperparams(hidden=12, latent=3, epochs=10),
                                 models.EnsembleHyperparams(hidden=8, epochs=10),
                                 n_members=3, seed=3)
    return ds, bundle


def test_wrappers_count_every_objective_call(tiny):
    ds, bundle = tiny
    x0 = ds.train_inputs()[0]
    config = clue.ExperimentConfig(delta=1.0, k=3, r=1.0, scheme="s1", lambda_x=0.05,
                                   lambda_d=0.5, lr=0.3, iters=7, seed=1)
    spec = diversity.DiversitySpec(metric="dpp", space="latent")
    originals = (clue.objective, divclue.objective, divclue.project_to_ball,
                 cluekit.diffcore.Tensor.backward)
    runs = {
        "delta_clue": lambda: clue.delta_clue(x0, bundle, config),
        "simultaneous": lambda: divclue.nabla_clue_simultaneous(x0, bundle, config, spec),
        "sequential": lambda: divclue.nabla_clue_sequential(x0, bundle, config, spec),
        "penalty": lambda: divclue.nabla_clue_penalty(x0, bundle, config),
    }
    for name, fn in runs.items():
        tr = tracing.Tracer()
        with tr.installed(cluekit):
            fn()
        counts = Counter(span.name for span in tr.spans)
        assert counts["clue.objective"] == config.k * config.iters, name
        assert counts["diffcore.backward"] >= config.k * config.iters, name
        assert "divclue.objective" not in counts
    assert (clue.objective, divclue.objective, divclue.project_to_ball,
            cluekit.diffcore.Tensor.backward) == originals


def test_output_checks_catch_bad_candidates(tiny):
    ds, bundle = tiny
    x0 = ds.train_inputs()[0]
    config = clue.ExperimentConfig(delta=1.0, k=2, r=1.0, scheme="s1", lambda_x=0.05,
                                   lr=0.3, iters=5, seed=1)
    ceset = clue.delta_clue(x0, bundle, config)
    task = workloads.Task("delta_clue", 0, x0, None, config.delta, config.k)
    plan = workloads.Plan([task], config.lambda_x, math.inf)

    def problems(candidates, **kw):
        return workloads.check_output(task, plan,
                                      workloads.Output(candidates, ceset.z0, **kw))

    assert problems(ceset.candidates) == []
    far = copy.deepcopy(ceset.candidates)
    far[0].z = ceset.z0 + 2.0 * config.delta
    assert any("ball" in p for p in problems(far))
    skewed = copy.deepcopy(ceset.candidates)
    skewed[1].posterior = skewed[1].posterior * 1.01
    assert any("simplex" in p for p in problems(skewed))
    nan = copy.deepcopy(ceset.candidates)
    nan[0].x = np.full_like(nan[0].x, np.nan)
    assert any("non-finite" in p for p in problems(nan))
    assert any("expected 2" in p for p in problems(ceset.candidates[:1]))
    twice = {"encode": 2, "decode": 1, "predict": 1}
    assert any("model evaluations" in p
               for p in problems(ceset.candidates, mapper_evals=twice))


def test_amortized_fails_loudly_without_a_usable_class(tiny):
    ds, bundle = tiny
    all_certain = copy.copy(bundle)
    all_certain.ensemble_report = models.TrainingReport(
        entropy_percentiles={"20": 10.0, "80": 10.0})
    with pytest.raises(workloads.WorkloadError, match="no class"):
        workloads.fit_amortized(all_certain, ds, seed=3)


def test_declared_metrics_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_second_seed_runs_without_failures(name, tmp_path):
    seed = 5
    assert seed != workloads.WORKLOADS[name].default_seed
    detail = harness.run(name, seed, 0.0, False, tmp_path, min_explanations=1,
                         setup_repeats=1)
    result = detail["result"]
    assert result["correct"], detail["report"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert detail["report"]["failed_frac"] == 0.0
    assert set(result["metrics"]) == {n for n, _ in harness.END_TO_END}


def test_traced_run_reports_every_layer_metric(tmp_path):
    detail = harness.run("amortized", 5, 0.0, True, tmp_path)
    result, report = detail["result"], detail["report"]
    assert result["correct"], report["problems"]
    assert set(result["metrics"]) == {n for n, _ in harness.PER_LAYER}
    assert result["metrics"]["glam.apply_mapper.self_ms"]["value"] > 0.0
    assert result["metrics"]["models.train_vae.self_ms"]["value"] > 0.0
    # self times add up to the traced wall time
    assert report["self_s_sum"] == pytest.approx(report["traced_wall_s"], rel=1e-9)
    assert Path(report["spans_file"]).is_file()
