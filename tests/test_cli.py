"""End-to-end command-line checks: each subcommand on a tiny workspace,
exit codes for usage and numerical failures, and byte-level determinism."""

import ast
import contextlib
import importlib.util
import io
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cluekit import cli, clue, data, glam, models


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny dataset + bundle built through the CLI itself."""
    root = tmp_path_factory.mktemp("cliws")
    gd = root / "gd"
    tr = root / "tr"
    assert run(["gen-data", "--out", str(gd), "--seed", "3",
                "--set", "generator=blobs", "--set", "c=3", "--set", "d=8",
                "--set", "n=240", "--set", "spread=0.22"]) == 0
    assert run(["train", "--out", str(tr), "--dataset", str(gd / "dataset"),
                "--seed", "3",
                "--set", "vae_hidden=16", "--set", "latent=3",
                "--set", "vae_epochs=40", "--set", "kl_weight=0.01",
                "--set", "ens_hidden=16", "--set", "ens_epochs=150",
                "--set", "members=3"]) == 0
    return {"root": root, "dataset": str(gd / "dataset"),
            "bundle": str(tr / "bundle"), "gd": str(gd), "tr": str(tr)}


def read_bytes_except(out_dir, skip=("run_manifest.json",)):
    got = {}
    for root, _dirs, files in os.walk(out_dir):
        for name in sorted(files):
            if name in skip:
                continue
            p = os.path.join(root, name)
            with open(p, "rb") as f:
                got[os.path.relpath(p, out_dir)] = f.read()
    return got


def test_gen_data_outputs_and_manifest(workspace):
    gd = workspace["gd"]
    assert os.path.isdir(os.path.join(gd, "dataset"))
    assert os.path.isfile(os.path.join(gd, "dataset.csv"))
    with open(os.path.join(gd, "run_manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["command"] == "gen-data"
    assert manifest["seed"] == 3
    assert manifest["outputs"], "manifest must hash the written files"
    for path, digest in manifest["outputs"].items():
        assert cli._sha256(path) == digest


def test_gen_data_rerun_is_byte_identical(workspace, tmp_path):
    again = tmp_path / "gd2"
    assert run(["gen-data", "--out", str(again), "--seed", "3",
                "--set", "generator=blobs", "--set", "c=3", "--set", "d=8",
                "--set", "n=240", "--set", "spread=0.22"]) == 0
    assert read_bytes_except(workspace["gd"]) == read_bytes_except(str(again))


def test_train_report_and_accuracy(workspace, capsys):
    with open(os.path.join(workspace["tr"], "training_report.json")) as f:
        report = json.load(f)
    assert 0.5 < report["ensemble"]["heldout_accuracy"] <= 1.0
    assert len(report["vae"]["loss_curve"]) == 40


def test_missing_dataset_exits_2_and_names_path(capsys):
    code = run(["train", "--out", "/tmp/cli_nowhere",
                "--dataset", "/nope/missing"])
    assert code == 2
    assert "/nope/missing" in capsys.readouterr().err


def test_missing_bundle_exits_2(workspace, tmp_path, capsys):
    code = run(["explain", "--out", str(tmp_path), "--bundle", "/nope/bundle",
                "--dataset", workspace["dataset"]])
    assert code == 2
    assert "/nope/bundle" in capsys.readouterr().err


def test_divergent_training_exits_3(workspace, tmp_path, capsys):
    with np.errstate(all="ignore"):
        code = run(["train", "--out", str(tmp_path),
                    "--dataset", workspace["dataset"],
                    "--set", "vae_lr=1e6", "--set", "vae_epochs=5"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_ensemble_divergence_in_the_training_worker_exits_3(workspace, tmp_path, capsys):
    """The ensemble trains in a forked worker; its divergence still exits 3,
    leaves no output directory and no process behind."""
    out = tmp_path / "model"
    with np.errstate(all="ignore"):
        code = run(["train", "--out", str(out), "--dataset", workspace["dataset"],
                    "--set", "ens_lr=1e300", "--set", "vae_epochs=2", "--set", "ens_epochs=2"])
    assert code == 3
    assert "numerical failure: ensemble member 0 diverged" in capsys.readouterr().err
    assert not out.exists()
    assert not multiprocessing.active_children()


EXPLAIN_SETS = ["--set", "delta=1.2", "--set", "r=1.2", "--set", "k=3",
                "--set", "lambda_x=0.05", "--set", "iters=10",
                "--set", "lr=0.3", "--set", "seed=5"]


def test_explain_outputs(workspace, tmp_path):
    out = tmp_path / "ex"
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--method", "dclue",
                "--top", "2"] + EXPLAIN_SETS) == 0
    cesets = sorted(p for p in os.listdir(out) if p.startswith("ceset_"))
    assert len(cesets) == 2
    scatter = (out / "scatter.csv").read_text().strip().splitlines()
    assert scatter[0] == "input,candidate,H,d_x,rho,cost,label,accepted"
    assert len(scatter) == 1 + 2 * 3  # header + top * k
    for ceset in cesets:
        loaded = clue.load_ceset(str(out / ceset))
        assert len(loaded.candidates) == 3
        for c in loaded.candidates:
            assert c.rho <= 1.2 + 1e-9


def test_explain_rerun_is_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["explain", "--bundle", workspace["bundle"],
            "--dataset", workspace["dataset"], "--method", "divclue-sim",
            "--top", "1", "--set", "lambda_d=0.3"] + EXPLAIN_SETS
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert read_bytes_except(str(a)) == read_bytes_except(str(b))


def test_clue_method_is_single_unconstrained_candidate(workspace, tmp_path):
    """method=clue forces an unconstrained single-start run: one candidate
    that starts at the query's own latent code."""
    out = tmp_path / "clue"
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--method", "clue",
                "--top", "1"] + EXPLAIN_SETS) == 0
    name = next(p for p in os.listdir(out) if p.startswith("ceset_"))
    ceset = clue.load_ceset(str(out / name))
    assert len(ceset.candidates) == 1
    assert ceset.config.delta == float("inf")
    assert ceset.config.r == 0.0


def test_explain_top_zero_writes_empty_tables(workspace, tmp_path):
    out = tmp_path / "empty"
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--top", "0"]
               + EXPLAIN_SETS) == 0
    scatter = (out / "scatter.csv").read_text().strip().splitlines()
    assert len(scatter) == 1  # header only
    assert not [p for p in os.listdir(out) if p.startswith("ceset_")]


def test_explain_on_an_empty_test_split_writes_empty_tables(workspace, tmp_path):
    """Selection is one batched entropy call, which also takes 0 rows."""
    ds = data.gen_blobs(c=3, d=8, n=8, spread=0.22, seed=1, test_frac=0.01)
    assert len(ds.test_inputs()) == 0
    data.save_dataset(ds, tmp_path / "dataset")
    out = tmp_path / "ex"
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", str(tmp_path / "dataset"), "--top", "1"] + EXPLAIN_SETS) == 0
    assert (out / "scatter.csv").read_text().strip().splitlines() == [
        "input,candidate,H,d_x,rho,cost,label,accepted"]
    assert (out / "label_distribution.csv").read_text() == "input,class,weight\n"
    assert not [p for p in os.listdir(out) if p.startswith("ceset_")]


def test_sweep_on_an_empty_test_split_exit_2(workspace, tmp_path, capsys):
    """A sweep explains the most uncertain test input; with none it is a usage error."""
    ds = data.gen_blobs(c=3, d=8, n=8, spread=0.22, seed=1, test_frac=0.01)
    data.save_dataset(ds, tmp_path / "dataset")
    out = tmp_path / "sw"
    assert run(["sweep", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", str(tmp_path / "dataset"), "--axis", "delta",
                "--grid", "1"] + EXPLAIN_SETS) == 2
    assert "test split" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sets", [
    ["explain", "--top", "1", "--set", "lr=1e300"],
    ["explain", "--top", "1", "--set", "r=1e308", "--set", "iters=2"],
    pytest.param(["train", "--set", "vae_lr=1e300"], id="train_vae_lr"),
    pytest.param(["bench", "--schemes", "dclue", "--set", "lr=1e300", "--set", "k=2",
                  "--set", "r=1"], id="bench_dclue_lr"),
    # glam's cost of a point, and the mean cost of a scheme, overflow
    pytest.param(["glam", "--variant", "glam1", "--set", "cap=3", "--set", "lambda_x=1.7e308"],
                 id="glam_cost"),
    pytest.param(["glam", "--variant", "glam1", "--set", "cap=3", "--set", "lambda_x=1e308"],
                 id="glam_mean_cost"),
])
def test_diverged_search_exits_3(workspace, tmp_path, sets, capsys):
    """A search or a training run that overflows is a numerical failure, not
    an inf in the outputs, and the command leaves no output directory."""
    inputs = ["--bundle", workspace["bundle"], "--dataset", workspace["dataset"]]
    argv = sets + (inputs[2:] if sets[0] == "train" else inputs)
    with np.errstate(all="ignore"):
        assert run(argv + ["--out", str(tmp_path / "dv")]) == 3
    assert "diverged" in capsys.readouterr().err
    assert not (tmp_path / "dv").exists()


def test_diverged_mapper_fit_exits_3(workspace, tmp_path, monkeypatch, capsys):
    """A mapper fit whose loss overflows exits 3 and writes nothing. The
    workspace's translations are shorter than 1 in l1, so that no finite
    lambda_theta overflows the loss; the fit starts from a longer one."""
    monkeypatch.setattr(glam, "mean_translation",
                        lambda x_uncertain, x_certain, bundle: np.full(bundle.m_latent, 10.0))
    out = tmp_path / "dv"
    assert run(["glam", "--variant", "glam1", "--set", "cap=3", "--set", "lambda_theta=1e308",
                "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"]]) == 3
    assert "mapper loss diverged" in capsys.readouterr().err
    assert not out.exists()


def _ceset_file(path, width, n_candidates=1, x_width=None):
    """A ceset JSON for an input of ``width`` with ``n_candidates`` candidates,
    whose ``x`` is ``x_width`` wide (``width`` unless given)."""
    cand = {"z": [0.0] * 3, "x": [0.5] * (x_width or width), "posterior": [1.0, 0.0, 0.0],
            "entropy": 0.0, "d_x": 0.0, "d_y": 0.0, "rho": 0.0, "cost": 0.0,
            "label": 0, "accepted": True, "start_index": 0}
    path.write_text(json.dumps({"config": {}, "x0": [0.5] * width, "z0": [0.0] * 3,
                                "candidates": [cand] * n_candidates}))
    return path


def test_ceset_without_candidates_exit_2(workspace, tmp_path, capsys):
    empty = _ceset_file(tmp_path / "empty.json", 8, n_candidates=0)
    with pytest.raises(ValueError, match="no candidates"):
        clue.load_ceset(str(empty))
    out = tmp_path / "gl"
    assert run(["glam", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--variant", "glam2",
                "--cesets", str(empty)]) == 2
    assert str(empty) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["x0", "z"])
def test_ceset_with_a_non_numeric_array_exit_2(workspace, tmp_path, field, capsys):
    """Three copies of one ceset give glam2 a group of three pairs; one whose
    x0, or a candidate's z, holds strings is malformed, and names its file."""
    path = _ceset_file(tmp_path / "edited.json", 8)
    payload = json.loads(path.read_text())
    target = payload if field == "x0" else payload["candidates"][0]
    target[field] = ["a"] * len(target[field])
    path.write_text(json.dumps(payload))
    out = tmp_path / "gl"
    assert run(["glam", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--variant", "glam2",
                "--cesets"] + [str(path)] * 3) == 2
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,width", [("z", 3), ("posterior", 3)])
def test_ceset_candidate_of_another_width_exit_2(workspace, tmp_path, field, width, capsys):
    """A candidate's z must be as wide as the bundle's latent, and its posterior
    as the bundle's classes; otherwise glam exits 2 naming the file and both widths."""
    path = _ceset_file(tmp_path / "edited.json", 8)
    payload = json.loads(path.read_text())
    payload["candidates"][0][field] = [0.25] * (width + 2)
    path.write_text(json.dumps(payload))
    out = tmp_path / "gl"
    assert run(["glam", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--variant", "glam2",
                "--cesets"] + [str(path)] * 3) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in (str(path), f"candidate 0's {field}",
                                        f"width {width + 2}", f"width {width}")), err
    assert not out.exists()


def test_explain_negative_top_exit_2(workspace, tmp_path, capsys):
    out = tmp_path / "neg"
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--top", "-1"]
               + EXPLAIN_SETS) == 2
    assert "--top" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting,message", [("lambda_x=NaN", "lambda_x must be finite"),
                                             ("lr=-1", "lr must be > 0"),
                                             ("scheme=\"s9\"", "unknown scheme 's9'")],
                         ids=["lambda_x=NaN", "lr=-1", "scheme=\"s9\""])
def test_bad_experiment_setting_exit_2(workspace, tmp_path, setting, message, capsys):
    assert run(["explain", "--out", str(tmp_path / "bad"), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--set", "r=0", "--set", setting]) == 2
    assert message in capsys.readouterr().err


# --set text -> the value it reads: JSON, else a bare nan, inf or -inf, else the text
SCAN_VALUES = {"1": 1, "0": 0, "2": 2, "0.5": 0.5, '"0.5"': "0.5", "nan": float("nan"),
               "inf": float("inf"), "-inf": float("-inf"), "true": True, "null": None,
               "[1]": [1], "abc": "abc", "-1": -1}


@pytest.mark.parametrize("key", [f.name for f in fields(clue.ExperimentConfig)])
def test_search_setting_is_checked_by_one_rule(workspace, tmp_path, key, capsys):
    """The config and the CLI check a search key with the same rule: building
    the config raises exactly when ``explain --set`` exits 2, with the same
    message (r=1 keeps k >= 2 from starting every point at z0)."""
    inputs = ["--bundle", workspace["bundle"], "--dataset", workspace["dataset"]]
    for text, value in SCAN_VALUES.items():
        try:
            clue.ExperimentConfig(**{"r": 1, key: value})
            message = None
        except ValueError as e:
            message = str(e)
        out = tmp_path / f"out{len(os.listdir(tmp_path))}"
        code = run(["explain", "--out", str(out), "--top", "0", "--set", "r=1",
                    "--set", f"{key}={text}"] + inputs)
        assert (code, capsys.readouterr().err) == ((2, f"error: {message}\n") if message
                                                   else (0, "")), (key, text)


SWEEP = ["sweep", "--axis", "lambda_d", "--grid", "0,0.5"]


@pytest.mark.parametrize("argv,message", [
    (["explain", "--set", "k=2.5"], "k must be an int"),
    (["explain", "--set", "iters=2.5"], "iters must be an int"),
    (["explain", "--set", "n_i=1.5"], "n_i must be an int"),
    (["explain", "--set", "seed=1.5"], "seed must be an int"),
    (["explain", "--set", "metric=bogus"], "unknown metric"),
    (["explain", "--set", "space=bogus"], "unknown space"),
    (SWEEP + ["--set", "metric=bogus"], "unknown metric"),
    (SWEEP + ["--set", "space=bogus"], "unknown space"),
    (SWEEP + ["--set", "k=2.5"], "k must be an int"),
    (SWEEP + ["--set", "metric=label_entropy"], "diversity search needs"),
    (["sweep", "--axis", "n_i", "--grid", "0,1.5"], "n_i must be an int"),
    (["sweep", "--axis", "n_i", "--grid", "inf"], "n_i must be an int"),
    (["explain", "--method", "divclue-sim", "--set", "metric=distinct_labels"],
     "diversity search needs"),
    (["explain", "--method", "divclue-seq", "--set", "space=prediction"],
     "diversity search needs"),
    (["explain", "--set", "lambda_x=true"], "lambda_x must be a number"),
    (SWEEP, "needs k >= 2"),
    (["sweep", "--axis", "n_i", "--grid", "0,5"], "needs k >= 2"),
    (["explain", "--set", "k=4", "--set", "delta=2"], "needs r > 0"),
    (["explain", "--method", "divclue-sim", "--set", "k=4", "--set", "delta=2",
      "--set", "lambda_d=0.5"], "needs r > 0"),
    (["explain", "--method", "divclue-seq", "--set", "k=4", "--set", "delta=2"],
     "needs r > 0"),
    (SWEEP + ["--set", "k=4", "--set", "delta=2"], "needs k >= 2 and r > 0"),
    (["sweep", "--axis", "n_i", "--grid", "0,5", "--set", "k=4", "--set", "delta=2"],
     "needs k >= 2 and r > 0"),
    (["bench", "--schemes", "dclue", "--set", "k=4", "--set", "delta=2"], "needs r > 0"),
    # delta takes inf, but its axis sets r to each grid value too
    (["sweep", "--axis", "delta", "--grid", "1,inf"],
     "r (sweep --axis delta sets r to each delta value too) must be finite, got inf"),
])
def test_malformed_search_config_exit_2(workspace, tmp_path, argv, message, capsys):
    out = tmp_path / "bad"
    assert run(argv + ["--out", str(out), "--bundle", workspace["bundle"],
                       "--dataset", workspace["dataset"]]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["divclue-seq", "divclue-pen"])
def test_repelled_sequential_search_runs_at_r_0(workspace, tmp_path, method):
    """With lambda_d > 0 the sequential variants repel each descent from the
    points found before it, so k starts at z0 still give distinct candidates."""
    out = tmp_path / method
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--method", method, "--top", "1",
                "--set", "k=3", "--set", "delta=1.2", "--set", "lambda_d=0.5",
                "--set", "iters=10", "--set", "lr=0.3"]) == 0
    rows = (out / "scatter.csv").read_text().strip().splitlines()[1:]
    assert len({tuple(r.split(",")[2:4]) for r in rows}) == 3


def test_unknown_method_axis_variant_exit_2(workspace, tmp_path, capsys):
    common = ["--out", str(tmp_path), "--bundle", workspace["bundle"],
              "--dataset", workspace["dataset"]]
    assert run(["explain", "--method", "mystery"] + common) == 2
    assert run(["sweep", "--axis", "gamma", "--grid", "1,2"] + common) == 2
    assert run(["sweep", "--axis", "delta", "--grid", ""] + common) == 2
    assert run(["glam", "--variant", "glam9"] + common) == 2
    assert run(["bench", "--schemes", "warp"] + common) == 2
    capsys.readouterr()
    assert run(["glam", "--variant", "glam3"] + common) == 2
    assert "unknown variant 'glam3'" in capsys.readouterr().err


def test_sweep_single_point_grid(workspace, tmp_path):
    out = tmp_path / "sw"
    assert run(["sweep", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--axis", "lambda_d",
                "--grid", "0.5"] + EXPLAIN_SETS) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "axis,value,statistic,result"
    rows = [line.split(",") for line in lines[1:]]
    assert rows and all(r[0] == "lambda_d" and float(r[1]) == 0.5 for r in rows)
    stats = {r[2] for r in rows}
    assert {"min_H", "mean_H", "max_H", "mean_d_x"} <= stats


def test_sweep_lambda_theta_axis(workspace, tmp_path):
    out = tmp_path / "swt"
    assert run(["sweep", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--axis", "lambda_theta",
                "--grid", "0,1.0", "--set", "cap=10"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    dx = {float(r[1]): float(r[3]) for r in rows if r[2] == "mean_d_x"}
    assert dx[1.0] <= dx[0.0] + 1e-9  # regularization shortens translations


def test_glam_variants_and_comparison_csv(workspace, tmp_path):
    ex = tmp_path / "ex"
    assert run(["explain", "--out", str(ex), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--method", "dclue",
                "--top", "6"] + EXPLAIN_SETS) == 0
    cesets = sorted(str(ex / p) for p in os.listdir(ex)
                    if p.startswith("ceset_"))
    out = tmp_path / "gl"
    assert run(["glam", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--variant", "all",
                "--cesets"] + cesets + ["--set", "cap=10"]) == 0
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    assert lines[0] == "scheme,point,H,d_x,cost,label"
    rows = [line.split(",") for line in lines[1:]]
    schemes = {r[0] for r in rows}
    assert schemes == set(cli.GLAM_VARIANTS)
    summary = [r for r in rows if r[1] == "summary"]
    assert len(summary) == len(cli.GLAM_VARIANTS)
    for r in summary:
        assert float(r[2]) >= 0.0
    assert [p for p in os.listdir(out) if p.startswith("mapper_glam1_")]


def test_glam23_without_cesets_exit_2(workspace, tmp_path, capsys):
    code = run(["glam", "--out", str(tmp_path), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--variant", "glam2"])
    assert code == 2
    assert "CESet" in capsys.readouterr().err


def test_bench_outputs(workspace, tmp_path):
    out = tmp_path / "be"
    assert run(["bench", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--repetitions", "1"]
               + EXPLAIN_SETS) == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "scheme,median_ms,repetitions"
    rows = {r.split(",")[0]: r.split(",") for r in lines[1:]}
    assert set(rows) == set(cli.BENCH_SCHEMES) | {"mapper-training"}
    for name, r in rows.items():
        assert float(r[1]) > 0.0
        assert int(r[2]) == 1


@pytest.mark.parametrize("repetitions", ["0", "-3"])
def test_bench_repetitions_below_1_exit_2(workspace, tmp_path, repetitions, capsys):
    out = tmp_path / "be"
    assert run(["bench", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--repetitions", repetitions]
               + EXPLAIN_SETS) == 2
    assert "--repetitions" in capsys.readouterr().err
    assert not out.exists()


def test_bench_wall_time_spans_the_timed_work(workspace, tmp_path, monkeypatch):
    """wall_times_s.bench is the time from the start of mapper training to
    the end of the last timed scheme, not a sum of per-scheme medians."""
    readings = []

    def clock():
        readings.append(float(len(readings)))  # each reading one second later
        return readings[-1]

    monkeypatch.setattr(cli.time, "perf_counter", clock)
    out = tmp_path / "be"
    assert run(["bench", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--repetitions", "2"]
               + EXPLAIN_SETS) == 0
    monkeypatch.undo()
    manifest = json.loads((out / "run_manifest.json").read_text())
    rows = [r.split(",") for r in (out / "bench.csv").read_text().splitlines()[1:]]
    assert manifest["wall_times_s"]["bench"] == readings[-1] - readings[0]
    assert manifest["wall_times_s"]["bench"] > sum(float(r[1]) for r in rows) / 1000.0


def test_config_file_and_override_precedence(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 1.0, "k": 2, "r": 1.0,
                               "iters": 5, "lr": 0.3, "seed": 1}))
    out = tmp_path / "ex"
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--config", str(cfg),
                "--set", "k=4", "--top", "1"]) == 0
    name = next(p for p in os.listdir(out) if p.startswith("ceset_"))
    ceset = clue.load_ceset(str(out / name))
    assert len(ceset.candidates) == 4  # --set wins over the config file
    assert ceset.config.delta == 1.0


def test_bad_config_file_exit_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["explain", "--out", str(tmp_path / "o"),
                "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"],
                "--config", str(bad)]) == 2
    assert run(["explain", "--out", str(tmp_path / "o"),
                "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"],
                "--set", "oops"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["explain", "sweep"])
@pytest.mark.parametrize("scheme", ["s2", "s5"])
def test_certainty_schemes_run_from_the_cli(workspace, tmp_path, command, scheme):
    """s2 and s5 take their start data from the certainty partition."""
    out = tmp_path / "out"
    extra = (["--method", "dclue", "--top", "2"] if command == "explain"
             else ["--axis", "lambda_d", "--grid", "0,0.3"])
    assert run([command, "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--set", f"scheme={scheme}"]
               + extra + EXPLAIN_SETS) == 0
    if command == "explain":
        names = [p for p in os.listdir(out) if p.startswith("ceset_")]
        assert len(names) == 2
        for name in names:
            ceset = clue.load_ceset(str(out / name))
            assert len(ceset.candidates) == 3
            assert all(c.rho <= 1.2 + 1e-9 for c in ceset.candidates)
    else:
        assert (out / "sweep.csv").read_text().count("\nlambda_d,") > 0


def test_s2_without_certain_points_exit_2(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--set", "scheme=s2",
                "--set", "tau_low=-1"] + EXPLAIN_SETS) == 2
    assert "class 0" in capsys.readouterr().err
    assert not out.exists()


def test_glam_all_without_enough_pairs_leaves_no_outputs(workspace, tmp_path, capsys):
    ex = tmp_path / "ex"
    assert run(["explain", "--out", str(ex), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--top", "1"] + EXPLAIN_SETS) == 0
    ceset = next(str(ex / p) for p in os.listdir(ex) if p.startswith("ceset_"))
    out = tmp_path / "gl"
    assert run(["glam", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--variant", "all",
                "--cesets", ceset, "--set", "cap=5"]) == 2
    assert "enough pairs" in capsys.readouterr().err
    assert not list(out.glob("mapper_*.json"))
    assert not (out / "comparison.csv").exists()


def _truncated_weights(bundle):
    path = bundle / "weights.bin"
    path.write_bytes(path.read_bytes()[:-12])
    return path


def _edit_manifest(bundle, edit):
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return path


def _manifest_without_tensors(bundle):
    return _edit_manifest(bundle, lambda manifest: manifest.pop("tensors"))


def _transposed_decoder_w0(bundle):
    """decoder.w0 read as out x in: the blob length still matches."""
    def edit(manifest):
        entry = next(t for t in manifest["tensors"] if t["name"] == "decoder.w0")
        entry["shape"] = entry["shape"][::-1]
    return _edit_manifest(bundle, edit)


BROKEN_BUNDLES = {"weights": _truncated_weights, "manifest": _manifest_without_tensors,
                  "decoder_w0": _transposed_decoder_w0}
LAMBDA_THETA = ["sweep", "--axis", "lambda_theta", "--grid", "0"]
BAD_SETTINGS = {  # case -> (argv, the text the error must hold)
    "vae_epochs": (["train", "--set", "vae_epochs=abc"], "vae_epochs"),
    "members": (["train", "--set", "members=0"], "members"),
    # no split leaves every class a training point
    "test_frac": (["gen-data", "--set", "test_frac=1"], "split"),
    "members_fraction": (["train", "--set", "members=2.5"], "members must be an int"),
    "members_bool": (["train", "--set", "members=true"], "members must be an int"),
    "n_fraction": (["gen-data", "--set", "n=100.5"], "n must be an int"),
    "cap_glam": (["glam", "--variant", "glam1", "--set", "cap=2.5"], "cap must be an int"),
    "cap_sweep": (LAMBDA_THETA + ["--set", "cap=2.5"], "cap must be an int"),
    "seed_gen_data": (["gen-data", "--set", "seed=1.5"], "seed must be an int"),
    "seed_glam": (["glam", "--variant", "glam1", "--set", "seed=1.5"], "seed must be an int"),
    "test_frac_nan": (["gen-data", "--set", "test_frac=nan"], "test_frac"),
    "test_frac_negative": (["gen-data", "--set", "test_frac=-0.5"], "test_frac"),
    "spread_nan": (["gen-data", "--set", "spread=nan"], "spread"),
    "spread_bool": (["gen-data", "--set", "spread=true"], "spread must be a number"),
    "kl_weight_bool": (["train", "--set", "kl_weight=false"], "kl_weight must be a number"),
    "lambda_x_glam": (["glam", "--variant", "glam1", "--set", "lambda_x=true"],
                      "lambda_x must be a number"),
    "cap_zero_glam1": (["glam", "--variant", "glam1", "--set", "cap=0"], "cap must be >= 1"),
    "cap_zero_dbm": (["glam", "--variant", "dbm-input", "--set", "cap=0"], "cap must be >= 1"),
    "cap_negative": (["glam", "--variant", "glam1", "--set", "cap=-1"], "cap must be >= 1"),
    "cap_zero_sweep": (LAMBDA_THETA + ["--set", "cap=0"], "cap must be >= 1"),
    "seed_train": (["train", "--seed", "-1"], "seed must be >= 0"),
    "seed_explain": (["explain", "--set", "seed=-1"], "seed must be >= 0"),
    "seed_bench": (["bench", "--set", "seed=-1"], "seed must be >= 0"),
    "lambda_x_nan": (["glam", "--variant", "nn-latent", "--set", "cap=2", "--set", "lambda_x=nan"],
                     "lambda_x must be finite"),
    "lambda_x_negative": (["glam", "--variant", "dbm-latent", "--set", "lambda_x=-5"],
                          "lambda_x must be >= 0"),
    "lambda_theta_nan": (["glam", "--variant", "glam1", "--set", "lambda_theta=nan"],
                         "lambda_theta must be finite"),
    "lambda_theta_grid_nan": (["sweep", "--axis", "lambda_theta", "--grid", "nan"],
                              "lambda_theta must be finite"),
    "lambda_theta_grid_negative": (["sweep", "--axis", "lambda_theta", "--grid", "-1"],
                                   "lambda_theta must be >= 0"),
    "lambda_theta_clue_negative": (["glam", "--variant", "glam2", "--set", "lambda_theta_clue=-1"],
                                   "lambda_theta_clue must be >= 0"),
    "tau_high_inf": (["glam", "--variant", "dbm-input", "--set", "tau_high=inf"],
                     "tau_high must be finite"),
    # a misspelled key names the key probably meant; every key is checked, also
    # one that the chosen scheme or variant does not use
    "lambda_x_misspelled": (["explain", "--set", "lamdba_x=5"],
                            "'lamdba_x' for explain; did you mean 'lambda_x'"),
    "vae_epochs_misspelled": (["train", "--set", "vea_epochs=3"],
                              "'vea_epochs' for train; did you mean 'vae_epochs'"),
    "generator_misspelled": (["gen-data", "--set", "genrator=minidigits"],
                             "did you mean 'generator'"),
    "tau_high_nan_s1": (["explain", "--set", "tau_high=nan"], "tau_high must be finite"),
    "lambda_theta_clue_dbm": (["glam", "--variant", "dbm-input", "--set", "lambda_theta_clue=-1"],
                              "lambda_theta_clue must be >= 0"),
    "lambda_x_string": (["glam", "--variant", "glam1", "--set", 'lambda_x="0.5"'],
                        "lambda_x must be a number"),
    # a step size must be > 0, and the KL weight >= 0, before the dataset loads
    "vae_lr_zero": (["train", "--set", "vae_lr=0"], "vae_lr must be > 0"),
    "vae_lr_negative": (["train", "--set", "vae_lr=-0.05"], "vae_lr must be > 0"),
    "ens_lr_zero": (["train", "--set", "ens_lr=0"], "ens_lr must be > 0"),
    "ens_lr_negative": (["train", "--set", "ens_lr=-0.1"], "ens_lr must be > 0"),
    "kl_weight_negative": (["train", "--set", "kl_weight=-1"], "kl_weight must be >= 0"),
    # the counts have upper bounds far above any desk-scale run
    "k_too_many": (["explain", "--set", "k=1001"], "k must be <= 1000"),
    "iters_too_many": (["explain", "--set", "iters=100001"], "iters must be <= 100000"),
    "n_i_too_many": (["explain", "--set", "n_i=100001"], "n_i must be <= 100000"),
}


WIDE_INPUTS = {  # case -> argv run on a 64-wide dataset, or ceset, and the 8-wide bundle
    "width_explain": ["explain"] + EXPLAIN_SETS,
    "width_sweep_delta": ["sweep", "--axis", "delta", "--grid", "1"],
    "width_glam_dbm_input": ["glam", "--variant", "dbm-input"],
    "width_bench": ["bench", "--repetitions", "1"],
    "width_glam2_ceset": ["glam", "--variant", "glam2"],
    "width_glam2_candidate_x": ["glam", "--variant", "glam2"],  # x0 8 wide, x 64
}


def _all_rows_in_test(ds):
    ds.split[:] = "test"


def _negative_train_label(ds):
    ds.labels[np.flatnonzero(ds.split == "train")[0]] = -1


BAD_DATASETS = {  # case -> (edit of the workspace dataset, text the error holds)
    "train_no_train_rows": (_all_rows_in_test, "empty dataset"),
    "train_negative_label": (_negative_train_label, "non-negative"),
}


@pytest.mark.parametrize("case", list(BROKEN_BUNDLES) + list(BAD_SETTINGS) + list(WIDE_INPUTS)
                         + list(BAD_DATASETS))
def test_malformed_input_exit_2(workspace, tmp_path, case, capsys):
    """A broken bundle file, a bad numeric setting, a dataset or ceset whose
    input width is not the bundle's, or a dataset that cannot be trained on
    exits 2 with a message that names the file or the key (and both widths),
    and writes nothing."""
    bundle = tmp_path / "bundle"
    shutil.copytree(workspace["bundle"], bundle)
    out = tmp_path / "out"
    inputs = ["--bundle", str(bundle), "--dataset", workspace["dataset"]]
    if case in BROKEN_BUNDLES:
        broken = BROKEN_BUNDLES[case](bundle)
        argv, named = ["explain"] + inputs + EXPLAIN_SETS, [str(broken)]
    elif case in WIDE_INPUTS:
        wide = tmp_path / "wide"
        if case.startswith("width_glam2"):
            x0_width = 8 if case == "width_glam2_candidate_x" else 64
            extra = inputs + ["--cesets", str(_ceset_file(wide, x0_width, x_width=64))]
        else:
            data.save_dataset(data.gen_minidigits(n=40, seed=0), wide)
            extra = ["--bundle", str(bundle), "--dataset", str(wide)]
        argv, named = WIDE_INPUTS[case] + extra, [str(wide), str(bundle), "64", "8"]
    elif case in BAD_DATASETS:
        edit, text = BAD_DATASETS[case]
        ds = data.load_dataset(workspace["dataset"])
        edit(ds)
        bad = tmp_path / "dataset"
        data.save_dataset(ds, bad)
        argv, named = ["train", "--dataset", str(bad), "--set", "vae_epochs=1"], [str(bad), text]
    else:
        argv, named = BAD_SETTINGS[case]
        argv, named = argv + {"gen-data": [], "train": inputs[2:]}.get(argv[0], inputs), [named]
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in named), err
    assert not out.exists()


def test_older_manifest_loads_with_the_dimensions_of_its_weights(workspace, tmp_path):
    """A manifest in the older format, which also held ``dims`` and
    ``architecture``, loads with the dimensions its weights have, even where
    ``dims`` says otherwise, and every command runs on it."""
    bundle = tmp_path / "bundle"
    shutil.copytree(workspace["bundle"], bundle)

    def older(manifest):
        shapes = {t["name"]: t["shape"] for t in manifest["tensors"]}
        manifest["architecture"] = {
            net: [shape for name, shape in shapes.items() if name.startswith(f"{prefix}.w")]
            for net, prefix in (("encoder", "encoder"), ("decoder", "decoder"),
                                ("ensemble", "ensemble0"))}
        manifest["dims"] = {"d_in": 9, "m_latent": 3, "c_classes": 5, "n_members": 3}
    _edit_manifest(bundle, older)
    loaded = models.load_bundle(str(bundle))
    assert (loaded.d_in, loaded.m_latent, loaded.c_classes, loaded.n_members) == (8, 3, 3, 3)
    inputs = ["--bundle", str(bundle), "--dataset", workspace["dataset"]]
    assert run(["explain", "--out", str(tmp_path / "ex"), "--set", "scheme=s5"]
               + inputs + EXPLAIN_SETS) == 0
    sw = tmp_path / "sw"
    assert run(["sweep", "--out", str(sw), "--axis", "lambda_d", "--grid", "0.5"]
               + inputs + EXPLAIN_SETS) == 0
    rows = [line.split(",") for line in (sw / "sweep.csv").read_text().splitlines()[1:]]
    shares = [float(r[3]) for r in rows if r[2].startswith("distinct_labels")]
    # distinct labels over c' = 3 classes: a multiple of 1/3, never 0.2 or 0.4
    assert shares and all(v > 0 and abs(3 * v - round(3 * v)) < 1e-12 for v in shares)


FUZZ_ARGS = {  # command -> cheap arguments the drawn --set is added to
    "gen-data": [],
    "train": ["--set", "vae_epochs=1", "--set", "ens_epochs=1"],
    "explain": ["--top", "0"],
    "sweep": ["--axis", "delta", "--grid", "1", "--set", "iters=2"],
    "glam": ["--variant", "glam1", "--set", "cap=2"],
    "bench": ["--schemes", "glam,dclue", "--repetitions", "1", "--set", "iters=2"],
}
JSON_SCALARS = st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
# numbers as often as every other JSON type, and a bare string as --set reads one
JSON_VALUES = (st.integers(-3, 40).map(json.dumps) | st.floats().map(json.dumps)
               | (JSON_SCALARS | st.text(max_size=6) | st.lists(JSON_SCALARS, max_size=3)
                  | st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2)).map(json.dumps)
               | st.text(max_size=6))


def _near_misses(key):
    """The spellings one dropped, doubled or swapped letter away from ``key``."""
    return sorted({key[:i] + key[i + 1:] for i in range(len(key))}
                  | {key[:i] + key[i] + key[i:] for i in range(len(key))}
                  | {key[:i] + key[i + 1] + key[i] + key[i + 2:] for i in range(len(key) - 1)}
                  - {"", key})


@st.composite
def _single_setting(draw):
    command = draw(st.sampled_from(sorted(cli.SETTINGS)))
    key = draw(st.sampled_from(sorted(cli.SETTINGS[command])))
    key = draw(st.just(key) | st.sampled_from(_near_misses(key)))
    return command, key, draw(JSON_VALUES)


@settings(max_examples=200, deadline=None)
@given(case=_single_setting())
def test_any_single_setting_exits_0_or_2(workspace, case):
    """Whatever one --set of any command holds, a key of the command's table
    or a near miss of one, the command exits 0; or exits 2 naming the key; or,
    where the value makes a search or training diverge, exits 3. Neither
    failure leaves an output directory."""
    command, key, value = case
    inputs = {"gen-data": [], "train": ["--dataset", workspace["dataset"]]}.get(
        command, ["--bundle", workspace["bundle"], "--dataset", workspace["dataset"]])
    with tempfile.TemporaryDirectory() as root:
        out = os.path.join(root, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                np.errstate(all="ignore"):
            code = run([command, "--out", out] + inputs + FUZZ_ARGS[command]
                       + ["--set", f"{key}={value}"])
        event(f"{command} exits {code}")
        assert code in (0, 2, 3), err.getvalue()
        assert code == 0 or not os.path.exists(out)
        assert code != 2 or re.search(rf"\b{re.escape(key)}\b", err.getvalue()), err.getvalue()

def test_manifest_records_every_setting_with_the_value_used(workspace, tmp_path):
    """The run manifest's config holds every key of the command's table: the
    value given, else the default (an infinite one as the string "inf"), and
    the entropy thresholds the partition used, the bundle's percentiles unless
    set."""
    inputs = ["--bundle", workspace["bundle"], "--dataset", workspace["dataset"]]
    lo, hi = data.default_taus(models.load_bundle(workspace["bundle"]))
    ex, gl = tmp_path / "ex", tmp_path / "gl"
    assert run(["explain", "--out", str(ex), "--top", "1", "--set", "scheme=s2",
                "--set", "tau_high=0.5"] + inputs + EXPLAIN_SETS) == 0
    assert run(["glam", "--out", str(gl), "--variant", "dbm-latent", "--set", "cap=3",
                "--seed", "4"] + inputs) == 0
    explain = json.loads((ex / "run_manifest.json").read_text())["config"]
    glam_ = json.loads((gl / "run_manifest.json").read_text())
    assert set(explain) == set(cli.SETTINGS["explain"])
    assert set(glam_["config"]) == set(cli.SETTINGS["glam"]) | {"variant"}
    assert explain == {**{k: clue.to_json(v[1]) for k, v in cli.SETTINGS["explain"].items()},
                       "delta": 1.2, "r": 1.2, "k": 3, "lambda_x": 0.05, "iters": 10,
                       "lr": 0.3, "seed": 5, "scheme": "s2", "tau_low": lo, "tau_high": 0.5}
    assert glam_["config"] == {"seed": 4, "cap": 3, "lambda_x": 0.03, "lambda_theta": 0.01,
                               "lambda_theta_clue": 0.0, "tau_low": lo, "tau_high": hi,
                               "variant": "dbm-latent"}
    assert glam_["seed"] == 4


def test_search_keys_keep_their_json_type_and_other_floats_are_floats(workspace, tmp_path):
    """A ceset echoes its search config as given, so ``--set r=1`` stays the
    int 1; every other float setting, glam's lambda_x among them, is read
    as a float."""
    inputs = ["--bundle", workspace["bundle"], "--dataset", workspace["dataset"]]
    ex, gl = tmp_path / "ex", tmp_path / "gl"
    assert run(["explain", "--out", str(ex), "--top", "1", "--set", "r=1", "--set", "k=2",
                "--set", "delta=2", "--set", "iters=2"] + inputs) == 0
    assert run(["glam", "--out", str(gl), "--variant", "dbm-latent", "--set", "cap=3",
                "--set", "lambda_x=1", "--set", "tau_high=1"] + inputs) == 0
    name = next(p for p in os.listdir(ex) if p.startswith("ceset_"))
    echo = json.loads((ex / name).read_text())["config"]
    assert (echo["r"], echo["delta"]) == (1, 2) and type(echo["r"]) is type(echo["delta"]) is int
    config = json.loads((gl / "run_manifest.json").read_text())["config"]
    assert type(config["lambda_x"]) is type(config["tau_high"]) is float


def test_benchmark_workloads_pass_only_known_keys(monkeypatch):
    """The benchmark's set-up passes gen-data and train only keys they read."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for command, keys in (("gen-data", workloads.BLOBS_DATA), ("gen-data", workloads.DIGITS_DATA),
                          ("train", workloads.BLOBS_TRAIN), ("train", workloads.DIGITS_TRAIN)):
        assert set(keys) <= set(cli.SETTINGS[command]), (command, keys)


def _exit_9(*args):
    os._exit(9)


def _killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("lose,named", [(_exit_9, "exited with code 9"),
                                        (_killed, "was killed by signal 9")],
                         ids=["exit", "kill"])
def test_a_lost_training_worker_exits_4(workspace, tmp_path, monkeypatch, capsys, lose, named):
    """A training worker that ends without a result exits 4 with one line
    naming its exit code or signal, and leaves no output directory."""
    monkeypatch.setattr(models, "train_ensemble", lose)
    out = tmp_path / "model"
    code = run(["train", "--out", str(out), "--dataset", workspace["dataset"],
                "--set", "vae_epochs=2", "--set", "ens_epochs=2"])
    assert (code, capsys.readouterr().err) == (
        4, f"error: the ensemble's training worker {named} and sent no result\n")
    assert not out.exists()
    assert not multiprocessing.active_children()


def test_a_count_past_its_bound_exits_2_at_once(workspace, tmp_path, capsys):
    """A sweep grid value past a count's upper bound exits 2 naming the key
    before any input loads."""
    t0 = time.monotonic()
    code = run(["sweep", "--out", str(tmp_path / "sw"), "--axis", "n_i", "--grid", "1e12",
                "--set", "k=2", "--set", "delta=1", "--set", "r=1",
                "--bundle", workspace["bundle"], "--dataset", workspace["dataset"]])
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert "n_i must be <= 100000, got 1000000000000" in capsys.readouterr().err


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"{path} holds {name}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_every_json_file_is_strict_json(workspace, tmp_path):
    """Default explain, sweep, glam and bench runs write standard JSON only: an
    infinite setting (delta and h_threshold by default) is the string "inf"."""
    inputs = ["--bundle", workspace["bundle"], "--dataset", workspace["dataset"]]
    ex = tmp_path / "ex"
    assert run(["explain", "--out", str(ex), "--top", "6"] + inputs) == 0
    cesets = sorted(str(p) for p in ex.glob("ceset_*.json"))
    assert run(["sweep", "--out", str(tmp_path / "sw"), "--axis", "delta", "--grid", "1"]
               + inputs) == 0
    assert run(["glam", "--out", str(tmp_path / "gl"), "--cesets"] + cesets + inputs) == 0
    assert run(["bench", "--out", str(tmp_path / "be")] + inputs) == 0
    files = sorted(tmp_path.rglob("*.json"))
    assert {p.parent.name for p in files} == {"ex", "sw", "gl", "be"}
    assert any(p.name.startswith("mapper_") for p in files)
    payloads = {p: _strict_json(p) for p in files}
    for p in files:
        if p.parent.name != "gl":  # glam has no search keys
            assert payloads[p]["config"]["h_threshold"] == "inf", p


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter has loaded after running ``code``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_the_cli_loads_scipy_only_at_the_first_determinant():
    assert _scipy_modules_after("import cluekit.cli") == []
    for det in ("cluekit.diversity.dpp(np.eye(2))", "cluekit.diffcore.det(np.eye(2))"):
        assert "scipy.linalg" in _scipy_modules_after(f"import numpy as np, cluekit.cli\n{det}")
