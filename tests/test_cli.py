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
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cluekit import cli, clue, data, glam, models, store


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
        assert store.hash_tree(path) == {path: digest}


def test_gen_data_records_only_the_keys_its_generator_reads(tmp_path):
    """A key that the generator does not read may be given at its default; the
    run manifest and the dataset record only the keys the generator read."""
    out = tmp_path / "gd"
    assert run(["gen-data", "--out", str(out), "--seed", "2", "--set", "generator=minidigits",
                "--set", "n=50", "--set", "d=16", "--set", "spread=0.18"]) == 0
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert config == {"seed": 2, "generator": "minidigits", "n": 50, "test_frac": 0.2}
    generator = data.load_dataset(str(out / "dataset")).generator
    assert generator == {"kind": "minidigits", "n": 50, "seed": 2, "test_frac": 0.2}
    assert (out / "dataset.csv").read_text().splitlines()[0].count(",") == 1 + 64


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


def test_train_manifest_records_each_job_and_the_blas_threads(workspace):
    """Each job's own wall time and the thread count of each BLAS library
    training ran at are in the run manifest, and in no other output."""
    with open(os.path.join(workspace["tr"], "run_manifest.json")) as f:
        manifest = json.load(f)
    times = manifest["wall_times_s"]
    assert set(times) == {"train", "vae", "ensemble"}
    assert 0.0 < times["vae"] <= times["train"] and times["ensemble"] > 0.0
    assert manifest["blas_threads"] == {name: 1 for name, _, _ in models._blas_libraries()}


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
    assert run(["explain", "--out", str(tmp_path / "o"), "--dataset", workspace["dataset"]]) == 2
    assert "--bundle is required" in capsys.readouterr().err


def test_divergent_training_exits_3(workspace, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["train", "--out", str(tmp_path),
                    "--dataset", workspace["dataset"],
                    "--set", "vae_lr=1e6", "--set", "vae_epochs=5"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_ensemble_divergence_in_the_training_worker_exits_3(workspace, tmp_path, capsys):
    """The ensemble trains in a forked worker; its divergence still exits 3,
    leaves no output directory and no process behind."""
    out = tmp_path / "model"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["train", "--out", str(out), "--dataset", workspace["dataset"],
                    "--set", "ens_lr=1e300", "--set", "vae_epochs=2", "--set", "ens_epochs=2"])
    assert code == 3
    assert "numerical failure: ensemble member 0 diverged" in capsys.readouterr().err
    assert not out.exists()
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("n,code", [(1, 2), (2, 0)])
def test_train_on_one_row_exits_2(tmp_path, n, code, capsys):
    """One training row is all held out, which is a usage error with one
    stderr line and no output directory; two rows train."""
    assert run(["gen-data", "--out", str(tmp_path / "gd"), "--seed", "0",
                "--set", "generator=minidigits", "--set", f"n={n}"]) == 0
    out = tmp_path / "model"
    capsys.readouterr()
    assert run(["train", "--out", str(out), "--dataset", str(tmp_path / "gd" / "dataset"),
                "--set", "vae_epochs=2", "--set", "ens_epochs=2"]) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: cannot train on dataset " + str(tmp_path / "gd" / "dataset")
                       + ": train_ensemble: holding out 1 of 1 rows leaves none to train on\n")
    assert out.exists() == (code == 0)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--set", f"n={2**59}"],
    ["gen-data", "--set", "generator=minidigits", "--set", f"n={2**59}"],
    ["train", "--set", f"vae_hidden={2**55}"],
], ids=["blobs_n", "minidigits_n", "vae_hidden"])
def test_size_past_memory_exits_2(workspace, tmp_path, argv, capsys):
    """A size whose arrays pass the address space fails its first allocation
    at once: one error: line, exit 2, and no output directory."""
    out = tmp_path / "out"
    if argv[0] == "train":
        argv = argv + ["--dataset", workspace["dataset"]]
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
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


# EXPLAIN_SETS less the keys that --method clue fixes
CLUE_SETS = ["--set", "lambda_x=0.05", "--set", "iters=10", "--set", "lr=0.3", "--set", "seed=5"]


def test_clue_method_is_single_unconstrained_candidate(workspace, tmp_path):
    """method=clue is an unconstrained single-start run: one candidate
    that starts at the query's own latent code."""
    out = tmp_path / "clue"
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--method", "clue",
                "--top", "1"] + CLUE_SETS) == 0
    name = next(p for p in os.listdir(out) if p.startswith("ceset_"))
    ceset = clue.load_ceset(str(out / name))
    assert len(ceset.candidates) == 1
    assert ceset.config.delta == float("inf")
    assert ceset.config.r == 0.0


@pytest.mark.parametrize("key, value", [("k", "4"), ("delta", "2"), ("r", "1")])
def test_clue_method_refuses_a_setting_it_fixes(workspace, tmp_path, capsys, key, value):
    """method=clue runs at delta=inf, r=0 and k=1; another value of any of
    them exits 2 naming the key, and writes nothing."""
    out = tmp_path / "clue"
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--method", "clue", "--top", "1",
                "--set", f"{key}={value}"] + CLUE_SETS) == 2
    assert f"--method clue runs at {key}=" in capsys.readouterr().err
    assert not out.exists()
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--method", "clue", "--top", "1",
                "--set", "k=1", "--set", "delta=inf", "--set", "r=0"] + CLUE_SETS) == 0


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
    # the apd of points that overflow in latent space, in both diversity searches
    *[pytest.param(["explain", "--top", "1", "--method", method, "--set", "metric=apd",
                    "--set", "space=latent", "--set", "k=3", "--set", "r=1",
                    "--set", "lambda_d=0.5", "--set", "lr=1e300"], id=f"{method}_apd")
      for method in ("divclue-sim", "divclue-seq")],
])
def test_diverged_search_exits_3(workspace, tmp_path, sets, capsys):
    """A search or a training run that overflows is a numerical failure, not
    an inf in the outputs: one line on stderr, no warning before it, and no
    output directory."""
    inputs = ["--bundle", workspace["bundle"], "--dataset", workspace["dataset"]]
    argv = sets + (inputs[2:] if sets[0] == "train" else inputs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(tmp_path / "dv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert "diverged" in err
    assert not (tmp_path / "dv").exists()


def test_diverged_mapper_fit_exits_3(workspace, tmp_path, monkeypatch, capsys):
    """A mapper fit whose loss overflows exits 3 and writes nothing. The
    workspace's translations are shorter than 1 in l1, so that no finite
    lambda_theta overflows the loss; an encoder that stretches every latent
    1,000-fold makes the fit start from a longer one."""
    encode = models.encode
    monkeypatch.setattr(models, "encode", lambda bundle, x: 1e3 * encode(bundle, x))
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


@pytest.mark.parametrize("field,value,message", [
    ("config", 5, "config must be an object, got 5"),
    ("label", 99, "has candidate 0's label 99"),
    ("label", -3, "candidates.label must be >= 0, got -3"),
])
def test_ceset_of_a_config_or_label_the_bundle_cannot_hold_exit_2(workspace, tmp_path, field,
                                                                   value, message, capsys):
    """Three copies of a ceset whose config is not an object, or whose
    candidate's label is not one of the bundle's classes, make glam2 exit 2
    with one line naming the file, rather than fail with a traceback or write
    a mapper to a class the bundle does not have."""
    path = _ceset_file(tmp_path / "edited.json", 8)
    payload = json.loads(path.read_text())
    (payload if field == "config" else payload["candidates"][0])[field] = value
    path.write_text(json.dumps(payload))
    out = tmp_path / "gl"
    assert run(["glam", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--variant", "glam2",
                "--cesets"] + [str(path)] * 3) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err and message in err, err
    if value == 99:
        assert f"bundle {workspace['bundle']} has 3 classes" in err, err
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
    """bench.csv holds each scheme's repetitions and the model calls of one call,
    and a rerun writes it byte for byte; the run manifest holds the timings."""
    outs = [tmp_path / "be", tmp_path / "be-2"]
    for out in outs:
        assert run(["bench", "--out", str(out), "--bundle", workspace["bundle"],
                    "--dataset", workspace["dataset"], "--repetitions", "1"]
                   + EXPLAIN_SETS) == 0
    assert read_bytes_except(outs[0]) == read_bytes_except(outs[1])
    lines = (outs[0] / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "scheme,repetitions,encode,decode,predict"
    rows = {r.split(",")[0]: [int(v) for v in r.split(",")[1:]] for r in lines[1:]}
    assert set(rows) == set(cli.BENCH_SCHEMES)
    assert all(r[0] == 1 and min(r[1:]) >= 0 for r in rows.values())
    assert rows["glam"] == [1, 1, 1, 1]  # apply_mapper: one encode, decode and predict
    manifest = json.loads((outs[0] / "run_manifest.json").read_text())
    assert set(manifest["median_ms"]) == set(cli.BENCH_SCHEMES)
    assert min(manifest["median_ms"].values()) > 0.0
    assert manifest["wall_times_s"]["mapper-training"] > 0.0
    config = manifest["config"]
    assert (config["schemes"], config["repetitions"]) == (list(cli.BENCH_SCHEMES), 1)


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
    assert manifest["wall_times_s"]["bench"] == readings[-1] - readings[0]
    assert manifest["wall_times_s"]["bench"] > sum(manifest["median_ms"].values()) / 1000.0


def test_bench_times_nn_latent_as_glam_runs_it(workspace, tmp_path, monkeypatch):
    """Each timed nn-latent call encodes the input and every certain point of
    bench's group, as glam's nn-latent scheme does on each call."""
    encodes = []
    clock = time.perf_counter

    def counting_clock():
        encodes.append(models.EVAL_COUNTS["encode"])
        return clock()

    monkeypatch.setattr(cli.time, "perf_counter", counting_clock)
    assert run(["bench", "--out", str(tmp_path / "be"), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--schemes", "nn-latent",
                "--repetitions", "2"] + EXPLAIN_SETS) == 0
    monkeypatch.undo()
    row = (tmp_path / "be" / "bench.csv").read_text().splitlines()[1].split(",")
    # readings: the start, the end of mapper training, each call's start and
    # end, and the end of the run
    assert len(encodes) == 7
    per_call = [encodes[3] - encodes[2], encodes[5] - encodes[4]]
    bundle = models.load_bundle(workspace["bundle"])
    ds = data.load_dataset(workspace["dataset"])
    cfg = dict(zip(cli.TAUS, data.default_taus(bundle)), lambda_x=0.0)
    c, (xu, xc) = next(iter(cli._groups(cfg, ds, bundle).items()))
    scheme, _ = cli._glam_scheme("nn-latent", cfg, {c: (xu, xc)}, bundle, [])
    before = models.EVAL_COUNTS["encode"]
    scheme(xu[0], c)
    assert per_call == [models.EVAL_COUNTS["encode"] - before] * 2 == [1 + len(xc)] * 2
    assert row[:3] == ["nn-latent", "2", str(1 + len(xc))]  # bench.csv's one-call encodes


def test_bench_fits_glam1_as_glam_does(workspace, tmp_path, monkeypatch):
    """bench's glam row and its mapper-training time use glam's glam1 mapper: one fit
    on at most cap rows of each side at glam's default lambda_theta."""
    fits, train_mapper = [], glam.train_mapper

    def recording(x_uncertain, x_certain, bundle, lambda_theta=0.1, **kwargs):
        fits.append((len(x_uncertain), len(x_certain), lambda_theta))
        return train_mapper(x_uncertain, x_certain, bundle, lambda_theta, **kwargs)

    monkeypatch.setattr(glam, "train_mapper", recording)
    assert run(["bench", "--out", str(tmp_path / "be"), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--schemes", "glam",
                "--repetitions", "1"] + EXPLAIN_SETS) == 0
    cap = cli.SETTINGS["glam"]["cap"][1]
    [(n_uncertain, n_certain, lambda_theta)] = fits
    assert n_uncertain <= cap and n_certain <= cap and lambda_theta == 0.01


def test_bench_partitions_for_s2_only_to_time_dclue(workspace, tmp_path, monkeypatch):
    """One partition gives bench its group; an s2 dclue needs a second for
    its certain set, and no other scheme does."""
    calls = []
    partition = data.partition_by_certainty
    monkeypatch.setattr(data, "partition_by_certainty",
                        lambda *args: calls.append(1) or partition(*args))
    for schemes, partitions in (("nn-latent", 1), ("dclue", 2)):
        calls.clear()
        assert run(["bench", "--out", str(tmp_path / schemes), "--bundle", workspace["bundle"],
                    "--dataset", workspace["dataset"], "--schemes", schemes,
                    "--repetitions", "1", "--set", "scheme=s2"] + EXPLAIN_SETS) == 0
        assert len(calls) == partitions


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
    listed = tmp_path / "list.json"
    listed.write_text('[{"k": 2}]')
    assert run(["explain", "--out", str(tmp_path / "o"), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--config", str(listed)]) == 2
    assert f"config file {listed} must hold a JSON object" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["explain", "sweep"])
def test_s5_never_partitions_the_training_set(workspace, tmp_path, monkeypatch, command):
    """s5 walks from the bundle alone; only s2 reads the certain set."""
    def refuse(*args, **kwargs):
        raise AssertionError("the training set was partitioned")

    monkeypatch.setattr(data, "partition_by_certainty", refuse)
    extra = (["--top", "2"] if command == "explain"
             else ["--axis", "lambda_d", "--grid", "0,0.3"])
    assert run([command, "--out", str(tmp_path / "out"), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--set", "scheme=s5"]
               + extra + EXPLAIN_SETS) == 0


def test_s2_without_certain_points_exit_2(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                "--dataset", workspace["dataset"], "--set", "scheme=s2",
                "--set", "tau_low=-1"] + EXPLAIN_SETS) == 2
    assert "class 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_s2_needs_certain_points_only_in_the_classes_it_walks_to(workspace, tmp_path, capsys,
                                                                  k):
    """s2 builds a way to each of its first min(k, c') classes only: with no
    training point in class 2, k = 1 and 2 write the library call's bytes,
    and k = 3 exits 2 naming class 2."""
    ds = data.load_dataset(workspace["dataset"])
    ds.labels[ds.labels == 2] = 0
    edited = tmp_path / "dataset"
    data.save_dataset(ds, edited)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["explain", "--out", str(out), "--bundle", workspace["bundle"],
                    "--dataset", str(edited), "--set", "scheme=s2", "--set", f"k={k}",
                    "--set", "r=2", "--set", "delta=2"])
    if k == 3:
        assert code == 2
        assert "class 2 has none" in capsys.readouterr().err
        assert not out.exists()
        return
    assert code == 0
    bundle = models.load_bundle(workspace["bundle"])
    part = data.partition_by_certainty(ds, bundle, *data.default_taus(bundle))
    certain = part.flags == "certain"
    context = clue.InitContext(models.encode(bundle, ds.train_inputs())[certain],
                               part.labels[certain])
    [(idx, x0)] = cli._top_uncertain(ds, bundle, 1)
    config = clue.ExperimentConfig(scheme="s2", k=k, r=2, delta=2)
    clue.dump_ceset(clue.delta_clue(x0, bundle, config, context), tmp_path / "library.json")
    assert (out / f"ceset_{idx}.json").read_bytes() == (tmp_path / "library.json").read_bytes()


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


def _edit_manifest(directory, edit):
    path = directory / "manifest.json"
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


def _renamed(*renames):
    """The bundle with tensor ``old`` named ``new`` for each (old, new): the blob
    length still matches."""
    def edit(manifest):
        for old, new in renames:
            next(t for t in manifest["tensors"] if t["name"] == old)["name"] = new
    return lambda bundle: _edit_manifest(bundle, edit)


BROKEN_BUNDLES = {  # case -> (edit of the bundle, the text the error must hold)
    "weights": (_truncated_weights, "weights.bin holds"),
    "manifest": (_manifest_without_tensors, "tensors is missing"),
    "decoder_w0": (_transposed_decoder_w0, "decoder layer 0 has weights"),
    # ensemble0 has no first layer, so the bundle has no member
    "no_members": (_renamed(("ensemble0.w0", "spare.w0")), "the ensemble has no members"),
    # ensemble1 keeps two of its three layers
    "member_shapes": (_renamed(("ensemble1.w2", "spare.w2"), ("ensemble1.b2", "spare.b2")),
                      "the ensemble members have different shapes"),
}
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
    # minidigits reads n, seed and test_frac: a value of its own for another key is refused
    "generator_unread_keys": (["gen-data", "--set", "generator=minidigits", "--set", "n=50",
                               "--set", "d=7", "--set", "c=3", "--set", "spread=5"],
                              "generator 'minidigits' does not read c, d, spread"),
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
    "members_too_many": (["train", "--set", "members=1001"], "members must be <= 1000"),
    "vae_epochs_too_many": (["train", "--set", "vae_epochs=100001"],
                            "vae_epochs must be <= 100000"),
    "ens_epochs_too_many": (["train", "--set", "ens_epochs=100001"],
                            "ens_epochs must be <= 100000"),
    "repetitions_too_many": (["bench", "--repetitions", "100001"],
                             "--repetitions must be <= 100000"),
    "grid_not_a_number": (["sweep", "--axis", "delta", "--grid", "1,abc"], "bad grid"),
    # coverage has no prediction-space form, which a diversity search would optimize
    "coverage_prediction": (["sweep", "--axis", "delta", "--grid", "1", "--set", "metric=coverage",
                             "--set", "space=prediction"],
                            "coverage applies in input or latent space only"),
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
    "train_negative_label": (_negative_train_label, "labels must be >= 0"),
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
        edit, text = BROKEN_BUNDLES[case]
        argv, named = ["explain"] + inputs + EXPLAIN_SETS, [str(edit(bundle)), text]
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


DELETED = object()  # a RECORD_EDITS value that deletes its field
RECORD_EDITS = {  # case -> (the record, the keys of one manifest field, its new value,
    #                    and the text naming the field in the error)
    "label_past_int64": ("dataset", ("labels", 0), 10**30, "labels"),
    "label_fraction": ("dataset", ("labels", 0), 0.5, "labels"),
    "d_fraction": ("dataset", ("d",), 8.5, "d must be an int"),
    "split_dev": ("dataset", ("split", 0), "dev", "split"),
    # the workspace's d is 8: n * d * 8 bytes is 2**68, past int64
    "n_past_int64_bytes": ("dataset", ("n",), 2**62, f"the manifest needs {2**68}"),
    "seed_string": ("bundle", ("seed",), "x", "seed"),
    "loss_curve_string": ("bundle", ("vae_report", "loss_curve"), "abc",
                          "vae_report.loss_curve"),
    "percentile_string": ("bundle", ("ensemble_report", "entropy_percentiles", "20"), "abc",
                          "ensemble_report.entropy_percentiles"),
    "percentile_missing": ("bundle", ("ensemble_report", "entropy_percentiles", "20"), DELETED,
                           "ensemble_report.entropy_percentiles.20 is missing"),
    # a tensor shape is an int >= 0, not read as int(2.5) = 2 or failed on by int("a")
    "shape_fraction": ("bundle", ("tensors", 0, "shape", 0), 2.5, "tensors.shape must be an int"),
    "shape_string": ("bundle", ("tensors", 0, "shape", 0), "a", "tensors.shape must be an int"),
    # a tensor's name is a string, and a network whose names are gone has no layers
    "tensor_name_int": ("bundle", ("tensors", 0, "name"), 5, "tensors.name must be a string"),
    "tensor_name_unknown": ("bundle", ("tensors", 0, "name"), "x", "encoder has no layers"),
    # a tensor no network reads, and a repeated name, are refused, not dropped:
    # tensor -6 is the last member's w0 (the members have three layers)
    "tensor_name_unread": ("bundle", ("tensors", -6, "name"), "x",
                           "no network reads tensor 'x'"),
    "tensor_name_repeated": ("bundle", ("tensors", 1, "name"), "encoder.w0",
                             "tensor 'encoder.w0' is named twice"),
    "labels_short": ("dataset", ("labels",), [0], "labels and split must have n="),
    "split_short": ("dataset", ("split",), ["train"], "labels and split must have n="),
}


@pytest.mark.parametrize("case", list(RECORD_EDITS))
def test_an_edited_record_exits_2_naming_its_manifest_and_field(workspace, tmp_path, capsys,
                                                                 case):
    """A dataset or bundle manifest whose field holds a value its record
    cannot hold makes every command that loads it exit 2 with one line that
    names the manifest and the field, and write no output, rather than read
    the value as another one or fail later with a traceback."""
    record, keys, value, field = RECORD_EDITS[case]
    paths = {"dataset": workspace["dataset"], "bundle": workspace["bundle"]}
    paths[record] = tmp_path / record
    shutil.copytree(workspace[record], paths[record])

    def edit(manifest):
        for key in keys[:-1]:
            manifest = manifest[key]
        if value is DELETED:
            del manifest[keys[-1]]
        else:
            manifest[keys[-1]] = value

    manifest = _edit_manifest(paths[record], edit)
    commands = [["explain", "--bundle", str(paths["bundle"])] + EXPLAIN_SETS]
    if record == "dataset":
        commands.append(["train", "--set", "vae_epochs=1"])
    out = tmp_path / "out"
    for argv in commands:
        assert run(argv + ["--dataset", str(paths["dataset"]), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(manifest) in err and field in err, err
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "explain", "glam"])
@pytest.mark.parametrize("entry", [np.nan, np.inf, 1.5, -0.25])
def test_a_dataset_of_inputs_outside_the_unit_interval_exits_2(workspace, tmp_path, capsys,
                                                                command, entry):
    """A non-finite input, or one outside [0, 1], makes every command that
    loads the dataset exit 2 naming the inputs file, warn nothing and write
    no output, before training can diverge on it or a search runs on it."""
    ds = data.load_dataset(workspace["dataset"])
    ds.inputs[3, 1] = entry
    bad = tmp_path / "dataset"
    data.save_dataset(ds, bad)
    argv = {"train": ["train", "--set", "vae_epochs=1"],
            "explain": ["explain", "--bundle", workspace["bundle"]] + EXPLAIN_SETS,
            "glam": ["glam", "--bundle", workspace["bundle"]]}[command]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--dataset", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad / 'inputs.bin'}: inputs must be finite and lie in [0, 1]" in err, err
    assert not out.exists()


RECORD_TABLES = {"dataset": data.DATASET_FIELDS, "bundle": models.BUNDLE_FIELDS,
                 "ceset": clue.CESET_FIELDS, "mapper": glam.MAPPER_FIELDS}


@pytest.fixture(scope="module")
def record_files(workspace):
    """A file of each record kind, as the CLI writes it: the workspace's
    dataset and bundle manifests, a ceset of ``explain`` and a mapper of ``glam``."""
    root, inputs = workspace["root"], ["--bundle", workspace["bundle"],
                                       "--dataset", workspace["dataset"]]
    assert run(["explain", "--out", str(root / "rec-ex"), "--top", "1"]
               + inputs + EXPLAIN_SETS) == 0
    assert run(["glam", "--out", str(root / "rec-gl"), "--variant", "glam1",
                "--set", "cap=3"] + inputs) == 0
    return {"dataset": os.path.join(workspace["dataset"], "manifest.json"),
            "bundle": os.path.join(workspace["bundle"], "manifest.json"),
            "ceset": str(next((root / "rec-ex").glob("ceset_*.json"))),
            "mapper": str(next((root / "rec-gl").glob("mapper_*.json")))}


def _unnamed(table, payload, path=""):
    """The fields of ``payload`` that ``table`` does not name. A table ``{}``
    names an object whose own keys it leaves alone (a ceset's config, which
    ExperimentConfig checks, and a dataset's generator spec)."""
    if isinstance(table, list):
        return {name for entry in payload for name in _unnamed(table[0], entry, path)}
    if not isinstance(table, dict) or not table:
        return set()
    return {f"{path}{key}" for key in payload if key not in table} | {
        name for key in table for name in _unnamed(table[key], payload[key], f"{path}{key}.")}


def test_each_record_table_names_every_field_its_writer_writes(record_files):
    """Every field a record's writer writes has its rule in the record's
    table, and each written record takes its table. A ceset's candidates and a bundle's
    reports are written from their tables, so those tables must name every
    field of the dataclass they stand for."""
    for record, path in record_files.items():
        with open(path) as f:
            payload = json.load(f)
        store.check_fields(RECORD_TABLES[record], payload)
        assert _unnamed(RECORD_TABLES[record], payload) == set(), record
    assert set(clue.CANDIDATE_FIELDS) == {f.name for f in fields(clue.CandidateCE)} - {"trajectory"}
    reports = [t for t in models.BUNDLE_FIELDS.values() if isinstance(t, dict)]
    assert sorted(k for t in reports for k in t) == sorted(f.name for f in fields(models.TrainingReport))


def _field_paths(table, path=()):
    """The key path of each field ``table`` names, with its rule; the entry
    of a list is at index 0."""
    children = ([(0, table[0])] if isinstance(table, list)
                else table.items() if isinstance(table, dict) else [])
    for key, rule in children:
        yield path + (key,), rule
        yield from _field_paths(rule, path + (key,))


def _refuses(rule, value):
    try:
        store.check_fields(rule, value, "field")
    except ValueError:
        return True
    return False


JSON_ANY = st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                        | st.text(max_size=4),
                        lambda inner: st.lists(inner, max_size=2)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=4)


# a --config file of explain's settings is a record too, though no command writes one
CONFIG_RULES = {key: rule for key, (rule, _default) in cli.SETTINGS["explain"].items()}


@st.composite
def _refused_field(draw):
    record = draw(st.sampled_from(sorted(RECORD_TABLES) + ["config"]))
    table = RECORD_TABLES.get(record, CONFIG_RULES)
    path, rule = draw(st.sampled_from(list(_field_paths(table))))
    return record, path, draw(JSON_ANY.filter(lambda value: _refuses(rule, value)))


@settings(max_examples=200, deadline=None)
@given(case=_refused_field())
def test_a_field_its_rule_refuses_exits_2_naming_the_record_and_field(workspace, record_files,
                                                                      case):
    """Whatever field of a dataset, bundle, ceset, mapper or ``--config`` file
    holds a value its rule refuses, ``explain`` (on a dataset, bundle or config
    file) or ``glam2`` (on three copies of a ceset) exits 2 with one ``error:``
    line naming the file and the field, and writes no output; ``load_mapper``
    raises ValueError naming them."""
    record, path, value = case
    field = ".".join(key for key in path if isinstance(key, str))
    event(f"{record} {field}")
    with tempfile.TemporaryDirectory() as root:
        inputs = {"dataset": workspace["dataset"], "bundle": workspace["bundle"]}
        if record in inputs:
            inputs[record] = os.path.join(root, record)
            shutil.copytree(workspace[record], inputs[record])
            edited = os.path.join(inputs[record], "manifest.json")
        else:
            edited = os.path.join(root, f"{record}.json")
        payload = {}  # a config file of the one refused setting
        if record != "config":
            with open(record_files[record]) as f:
                payload = json.load(f)
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with open(edited, "w") as f:
            f.write(json.dumps(payload))
        if record == "mapper":
            with pytest.raises(ValueError) as raised:
                glam.load_mapper(edited)
            assert edited in str(raised.value) and field in str(raised.value)
            return
        argv = (["explain", "--top", "0"] if record != "ceset"
                else ["glam", "--variant", "glam2", "--cesets"] + [edited] * 3)
        argv += ["--config", edited] if record == "config" else []
        out = os.path.join(root, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(argv + ["--bundle", inputs["bundle"], "--dataset", inputs["dataset"],
                               "--out", out])
        err = err.getvalue()
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
        assert edited in err and field in err, err
        assert not os.path.exists(out)


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


FUZZ_ARGS = {  # command -> cheap options and settings the drawn setting is added to
    "gen-data": ([], {}),
    "train": ([], {"vae_epochs": 1, "ens_epochs": 1}),
    "explain": (["--top", "0"], {}),
    "sweep": (["--axis", "delta", "--grid", "1"], {"iters": 2}),
    "glam": (["--variant", "glam1"], {"cap": 2}),
    "bench": (["--schemes", "glam,dclue", "--repetitions", "1"], {"iters": 2}),
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
    failure leaves an output directory. The same setting in a --config file
    gives the same exit code and, on exit 2, names the key too."""
    command, key, value = case
    inputs = {"gen-data": [], "train": ["--dataset", workspace["dataset"]]}.get(
        command, ["--bundle", workspace["bundle"], "--dataset", workspace["dataset"]])
    options, cheap = FUZZ_ARGS[command]
    try:  # the value as --set reads it
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = float(value) if value in ("nan", "inf", "-inf") else value
    codes = []
    with tempfile.TemporaryDirectory() as root:
        config = os.path.join(root, "config.json")
        with open(config, "w") as f:  # the drawn key last, as the last --set wins
            json.dump({**cheap, key: parsed}, f)
        sets = [a for k, v in cheap.items() for a in ("--set", f"{k}={v}")]
        for way, setting in (("--set", sets + ["--set", f"{key}={value}"]),
                             ("--config", ["--config", config])):
            out = os.path.join(root, way.strip("-"))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    np.errstate(all="ignore"):
                code = run([command, "--out", out] + inputs + options + setting)
            event(f"{command} {way} exits {code}")
            assert code in (0, 2, 3), err.getvalue()
            assert code == 0 or not os.path.exists(out)
            assert code != 2 or re.search(rf"\b{re.escape(key)}\b", err.getvalue()), \
                err.getvalue()
            codes.append(code)
    assert codes[0] == codes[1], (codes, parsed)

def test_manifest_records_every_setting_with_the_value_used(workspace, tmp_path):
    """The run manifest's config holds every key of the command's table: the
    value given, else the default (an infinite one as the string "inf"), and
    the entropy thresholds the partition used, the bundle's percentiles unless
    set; and the options that chose what ran (explain's method and top)."""
    inputs = ["--bundle", workspace["bundle"], "--dataset", workspace["dataset"]]
    lo, hi = data.default_taus(models.load_bundle(workspace["bundle"]))
    ex, gl = tmp_path / "ex", tmp_path / "gl"
    assert run(["explain", "--out", str(ex), "--top", "1", "--set", "scheme=s2",
                "--set", "tau_high=0.5"] + inputs + EXPLAIN_SETS) == 0
    assert run(["glam", "--out", str(gl), "--variant", "dbm-latent", "--set", "cap=3",
                "--seed", "4"] + inputs) == 0
    explain = json.loads((ex / "run_manifest.json").read_text())["config"]
    glam_ = json.loads((gl / "run_manifest.json").read_text())
    assert set(explain) == set(cli.SETTINGS["explain"]) | {"method", "top"}
    assert set(glam_["config"]) == set(cli.SETTINGS["glam"]) | {"variant"}
    assert explain == {**{k: store.to_json(v[1]) for k, v in cli.SETTINGS["explain"].items()},
                       "delta": 1.2, "r": 1.2, "k": 3, "lambda_x": 0.05, "iters": 10,
                       "lr": 0.3, "seed": 5, "scheme": "s2", "tau_low": lo, "tau_high": 0.5,
                       "method": "dclue", "top": 1}
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


def test_every_file_is_written_through_store_write_file(workspace, tmp_path, monkeypatch):
    """Each command writes each file under its --out, and nothing else,
    through ``store.write_file``, the one atomic writer."""
    written, write_file = [], store.write_file

    def recorded(path, content):
        written.append(str(path))
        write_file(path, content)

    monkeypatch.setattr(store, "write_file", recorded)
    inputs = ["--bundle", workspace["bundle"], "--dataset", workspace["dataset"]]
    commands = {
        "gd": ["gen-data", "--set", "n=60", "--set", "c=3", "--set", "d=4"],
        "tr": ["train", "--dataset", workspace["dataset"], "--set", "vae_epochs=1",
               "--set", "ens_epochs=1", "--set", "members=2"],
        "ex": ["explain", "--top", "6"] + inputs,
        "sw": ["sweep", "--axis", "delta", "--grid", "1"] + inputs,
        "gl": ["glam", "--cesets"],  # the explain run's cesets and the inputs follow
        "be": ["bench", "--repetitions", "1"] + inputs,
    }
    for name, argv in commands.items():
        if name == "gl":
            argv = argv + sorted(str(p) for p in (tmp_path / "ex").glob("ceset_*.json")) + inputs
        written.clear()
        out = tmp_path / name
        assert run(argv + ["--out", str(out)]) == 0
        assert sorted(written) == sorted(str(p) for p in out.rglob("*") if p.is_file()), name


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter has loaded after running ``code``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_no_cluekit_code_path_loads_scipy(workspace, tmp_path):
    """A fresh interpreter has loaded no scipy module after importing the CLI,
    after a dpp value and a tape determinant, and after an in-process
    divclue ``explain`` and a ``sweep`` over lambda_d, whose metric reports
    score each set's dpp."""
    inputs = ["--bundle", workspace["bundle"], "--dataset", workspace["dataset"]]
    commands = {
        "explain": ["explain", "--method", "divclue-sim", "--top", "1", "--set", "lambda_d=0.3"]
                   + EXPLAIN_SETS,
        "sweep": SWEEP + ["--set", "k=3", "--set", "delta=1.2", "--set", "r=1.2",
                          "--set", "iters=10"],
    }
    steps = ["import cluekit.cli",
             "import numpy as np, cluekit.diversity\nassert cluekit.diversity.dpp(np.eye(3)) > 0",
             "import numpy as np, cluekit.diffcore\nassert cluekit.diffcore.det(np.eye(3)).data == 1"]
    for name, argv in commands.items():
        argv += inputs + ["--out", str(tmp_path / name)]
        steps.append(f"import cluekit.cli\nassert cluekit.cli.main({argv!r}) == 0")
    for code in steps:
        assert _scipy_modules_after(code) == [], code
    # both commands took determinants: the search's repulsion was a dpp term,
    # and the sweep reports each set's dpp
    config = json.loads((tmp_path / "explain" / "run_manifest.json").read_text())["config"]
    assert (config["metric"], config["lambda_d"]) == ("dpp", 0.3)
    assert "dpp_latent" in (tmp_path / "sweep" / "sweep.csv").read_text()
