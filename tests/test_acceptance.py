"""Acceptance suite: twelve end-to-end properties of the full pipeline, from
gradient correctness through CLI determinism. Each test prints one PASS or
FAIL line so the suite doubles as a checklist."""

import contextlib
import json
import os
import sys

import numpy as np
import pytest
from scipy import stats

from cluekit import cli, clue, data, divclue, diversity as div
from cluekit import glam, models
from test_diversity import coverage_max


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _live_output(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def announce(line):
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextlib.contextmanager
def criterion(n, name):
    try:
        yield
    except BaseException:
        announce(f"[{n:2d}/12] {name}: FAIL")
        raise
    announce(f"[{n:2d}/12] {name}: PASS")


def fd_grad(f, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    out = g.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        out[i] = (f((flat + bump).reshape(x.shape))
                  - f((flat - bump).reshape(x.shape))) / (2.0 * h)
    return g


def assert_grad_close(g, fd, rel=1e-4, floor=1e-7):
    assert np.all(np.abs(g - fd) <= rel * np.abs(fd) + floor)


# ---------------------------------------------------------------------------
# 1. gradient correctness over >= 100 random configurations


def test_gradients_match_finite_differences(tiny_bundle):
    ds, bundle = tiny_bundle
    m = bundle.m_latent
    d = ds.inputs.shape[1]
    rng = np.random.default_rng(0)
    trials = 0
    with criterion(1, "gradient correctness vs finite differences"):
        # search objective: entropy + weighted input and label distances
        for _ in range(40):
            z = rng.normal(0.0, 1.0, m)
            x0 = rng.uniform(0.05, 0.95, d)
            lam_x = float(rng.choice([0.0, rng.uniform(0.01, 0.2)]))
            lam_y = float(rng.choice([0.0, rng.uniform(0.01, 0.2)]))
            label = int(rng.integers(bundle.c_classes))
            _, g = clue.objective(z, x0, bundle, lam_x, lam_y, label)
            fd = fd_grad(lambda v: clue.objective(v, x0, bundle,
                                                  lam_x, lam_y, label)[0], z)
            assert_grad_close(g, fd)
            trials += 1
        # differentiable diversity metrics, through the gradient that the
        # diverse searches and the pre-search run (latent space, so x0 is
        # the coverage origin z0)
        for t in range(30):
            metric = div.DIFFERENTIABLE_METRICS[t % 3]
            k = int(rng.integers(2, 6))
            dim = int(rng.integers(2, 5))
            pts = rng.normal(0.0, 1.0, (k, dim))
            x0 = rng.normal(0.0, 1.0, dim)
            spec = div.DiversitySpec(metric=metric)
            _, g = divclue._diversity(spec, bundle, x0, None, list(pts))
            fd = fd_grad(lambda v: divclue._diversity(spec, bundle, x0, None, list(v))[0],
                         pts)
            assert_grad_close(np.stack(g), fd)
            trials += 1
        # translation-mapper reconstruction with the nearest targets fixed,
        # through the step that the mapper fit runs
        for _ in range(35):
            theta = rng.normal(0.0, 0.5, m)
            z_u = rng.normal(0.0, 1.0, (3, m))
            x_c = rng.uniform(0.0, 1.0, (4, d))
            _, g = glam._recon_and_grad(bundle, z_u, x_c, theta)
            fd = fd_grad(lambda v: glam._recon_and_grad(bundle, z_u, x_c, v)[0], theta)
            assert_grad_close(g, fd)
            trials += 1
        assert trials >= 100


# ---------------------------------------------------------------------------
# 2. algorithm-collapse identities, bitwise


def _base_config(**kw):
    base = dict(delta=1.2, k=3, r=1.2, scheme="s1", lambda_x=0.05,
                lr=0.3, iters=15, seed=4)
    base.update(kw)
    return clue.ExperimentConfig(**base)


def test_collapse_identities_bitwise(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[0]
    spec = div.DiversitySpec(metric="dpp", space="latent")
    with criterion(2, "collapse identities (diversity weight 0, free ball)"):
        config = _base_config(lambda_d=0.0)
        plain = clue.delta_clue(x0, bundle, config)
        for record in (divclue.nabla_clue_simultaneous(x0, bundle, config, spec),
                       divclue.nabla_clue_sequential(x0, bundle, config, spec),
                       divclue.nabla_clue_penalty(x0, bundle, config)):
            for ca, cb in zip(record.ceset.candidates, plain.candidates):
                assert np.array_equal(ca.z, cb.z)
                assert np.array_equal(ca.x, cb.x)
                assert ca.cost == cb.cost
        # free ball, zero init radius, one start: plain unconstrained descent
        free = _base_config(delta=float("inf"), r=0.0, k=1)
        ceset = clue.delta_clue(x0, bundle, free)
        z = models.encode(bundle, x0)
        label = models.argmax_label(models.predict(bundle, x0))
        for _ in range(free.iters):
            _, g = clue.objective(z, x0, bundle, free.lambda_x,
                                  free.lambda_y, label)
            z = np.asarray(z - free.lr * g)
        assert np.array_equal(ceset.candidates[0].z, z)


# ---------------------------------------------------------------------------
# 3. constraint satisfaction


def test_constraints_and_projection_idempotence(tiny_bundle):
    ds, bundle = tiny_bundle
    spec = div.DiversitySpec(metric="dpp", space="latent")
    rng = np.random.default_rng(8)
    with criterion(3, "ball constraints on all candidates and trajectories"):
        for xi, delta in ((1, 0.8), (2, 1.5)):
            x0 = ds.train_inputs()[xi]
            config = _base_config(delta=delta, r=delta, k=4, lambda_d=0.4)
            runs = [clue.delta_clue(x0, bundle, config, trace=True),
                    divclue.nabla_clue_simultaneous(x0, bundle, config, spec,
                                                    trace=True).ceset]
            for ceset in runs:
                for c in ceset.candidates:
                    assert c.rho <= delta + 1e-6
                    for point in c.trajectory:
                        assert np.linalg.norm(point - ceset.z0) <= delta + 1e-6
        for _ in range(50):
            mdim = int(rng.integers(2, 6))
            z0 = rng.normal(0.0, 1.0, mdim)
            z = z0 + rng.normal(0.0, 2.0, mdim)
            delta = float(rng.uniform(0.1, 2.0))
            once = clue.project_to_ball(z, z0, delta)
            twice = clue.project_to_ball(once, z0, delta)
            assert np.array_equal(once, twice)


# ---------------------------------------------------------------------------
# 4. metric correctness vs brute-force oracles


def det_cofactor(k):
    k = np.asarray(k, dtype=np.float64)
    n = k.shape[0]
    if n == 1:
        return k[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(k, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * k[0, j] * det_cofactor(minor)
    return total


def dpp_oracle(points):
    n = len(points)
    kmat = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            kmat[i, j] = 1.0 / (1.0 + np.linalg.norm(points[i] - points[j]))
    return det_cofactor(kmat)


def apd_oracle(points):
    n = len(points)
    if n < 2:
        return 0.0
    total = sum(np.linalg.norm(points[i] - points[j])
                for i in range(n) for j in range(n) if i != j)
    return total / (n * (n - 1))


def coverage_oracle(points, x0):
    diffs = np.asarray(points) - np.asarray(x0)
    pos = np.max(diffs, axis=0)
    neg = np.max(-diffs, axis=0)
    return float(np.mean(pos + neg))


def test_metrics_match_oracles_and_ranges():
    rng = np.random.default_rng(4)
    with criterion(4, "diversity metrics vs brute-force oracles"):
        for _ in range(50):
            k = int(rng.integers(2, 7))
            dim = int(rng.integers(2, 5))
            pts = rng.normal(0.0, 1.0, (k, dim))
            x0 = rng.normal(0.0, 1.0, dim)
            assert abs(div.dpp(pts) - dpp_oracle(pts)) < 1e-10
            assert abs(div.apd(pts) - apd_oracle(pts)) < 1e-10
            assert abs(div.coverage(pts, x0) - coverage_oracle(pts, x0)) < 1e-10
            c = int(rng.integers(2, 5))
            labels = rng.integers(0, c, k)
            posts = rng.dirichlet(np.ones(c), k)
            assert div.distinct_labels(labels, c) == len(set(labels.tolist())) / c
            counts = np.bincount(labels, minlength=c)
            p = counts[counts > 0] / k
            want = 0.0 if c < 2 else -np.sum(p * np.log(p)) / np.log(c)
            assert abs(div.label_entropy(labels, c) - min(1.0, want)) < 1e-10
            assert abs(div.prediction_coverage(posts)
                       - np.mean(np.max(posts, axis=0))) < 1e-10
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            dim = int(rng.integers(1, 5))
            c = int(rng.integers(2, 6))
            pts = rng.uniform(0.0, 1.0, (k, dim))
            x0 = rng.uniform(0.0, 1.0, dim)
            labels = rng.integers(0, c, k)
            posts = rng.dirichlet(np.ones(c), k)
            assert 0.0 <= div.dpp(pts) <= 1.0
            assert 0.0 <= div.label_entropy(labels, c) <= 1.0
            assert 1.0 / c - 1e-12 <= div.prediction_coverage(posts) <= 1.0
            assert (div.coverage(pts, x0)
                    <= coverage_max(np.zeros(dim), np.ones(dim)) + 1e-12)


# ---------------------------------------------------------------------------
# 5. radius trend: tighter balls keep more uncertainty at less distance


def test_radius_tradeoff_trend(digits_bundle, most_uncertain_digit):
    with criterion(5, "radius sweep: entropy falls, distance grows"):
        min_h, d_x = [], []
        for delta in (0.5, 1.0, 2.0, 3.0, 4.0):
            config = clue.ExperimentConfig(delta=delta, k=8, r=delta,
                                           scheme="s1", lambda_x=0.05,
                                           lr=0.3, iters=50, seed=3)
            ceset = clue.delta_clue(most_uncertain_digit, digits_bundle, config)
            best = min(ceset.candidates, key=lambda c: c.entropy)
            min_h.append(best.entropy)
            d_x.append(best.d_x)

        def almost_monotone(seq, direction):
            inversions = [direction * (b - a) for a, b in zip(seq, seq[1:])
                          if direction * (b - a) > 0.0]
            return len(inversions) <= 1 and all(v < 0.01 for v in inversions)

        assert almost_monotone(min_h, +1.0)  # non-increasing
        assert almost_monotone(d_x, -1.0)    # non-decreasing


# ---------------------------------------------------------------------------
# 6. diversity weight sweep improves the optimized metric


def test_diversity_weight_sweep(digits_bundle, most_uncertain_digit):
    spec = div.DiversitySpec(metric="dpp", space="latent")
    with criterion(6, "diversity weight sweep improves the target metric"):
        grid = (0.0, 0.1, 0.3, 1.0, 3.0)
        tables = []
        for lam in grid:
            config = clue.ExperimentConfig(delta=3.0, k=4, r=3.0, scheme="s1",
                                           lambda_x=0.05, lambda_d=lam,
                                           lr=0.3, iters=50, seed=5)
            record = divclue.nabla_clue_simultaneous(most_uncertain_digit,
                                                     digits_bundle, config, spec)
            tables.append(dict(((m, s), v)
                               for m, s, _k, v in record.metrics_rows))
        dpps = [t[("dpp", "latent")] for t in tables]
        rho, _ = stats.spearmanr(grid, dpps)
        assert rho > 0.0
        others = [key for key in tables[0] if key != ("dpp", "latent")]
        weakly_up = sum(
            all(tb[key] >= ta[key] - 1e-9 for ta, tb in zip(tables, tables[1:]))
            for key in others)
        assert weakly_up >= 2


# ---------------------------------------------------------------------------
# 7. descent beats sampling from every start


def test_descent_beats_sampling(digits_bundle, most_uncertain_digit):
    with criterion(7, "descent improves on its start point, 100 of 100"):
        config = clue.ExperimentConfig(delta=3.0, k=100, r=3.0, scheme="s1",
                                       lambda_x=0.05, lr=0.3, iters=20, seed=5)
        z0 = models.encode(digits_bundle, most_uncertain_digit)
        label = models.argmax_label(
            models.predict(digits_bundle, most_uncertain_digit))
        starts = clue.make_starts(z0, config)
        initial = [clue.objective(zs, most_uncertain_digit, digits_bundle,
                                  config.lambda_x, config.lambda_y, label)[0]
                   for zs in starts]
        ceset = clue.delta_clue(most_uncertain_digit, digits_bundle, config)
        improvements = [i - c.cost for i, c in zip(initial, ceset.candidates)]
        assert len(improvements) == 100
        assert all(v >= -1e-9 for v in improvements)
        assert np.mean(improvements) > 0.0


# ---------------------------------------------------------------------------
# 8. planted-translation recovery


@pytest.fixture(scope="module")
def planted(blobs, blobs_bundle):
    x_u = blobs.train_inputs()[:40]
    z_u = np.stack([models.encode(blobs_bundle, x) for x in x_u])
    t = np.random.default_rng(42).normal(0.0, 0.5, size=blobs_bundle.m_latent)
    x_c = np.stack([models.decode(blobs_bundle, z + t) for z in z_u])
    return x_u, x_c, t


def test_planted_translation_recovery(planted, blobs_bundle):
    x_u, x_c, t = planted
    with criterion(8, "planted latent translation recovered"):
        mapper = glam.train_mapper(
            x_u, x_c, blobs_bundle, lambda_theta=0.0,
            hyperparams=glam.MapperHyperparams(lr=0.1, steps=400))
        assert np.linalg.norm(mapper.theta - t) < 1e-2


# ---------------------------------------------------------------------------
# 9. amortization: constant-time inference, far cheaper than search


def test_amortized_inference_is_cheap(planted, blobs_bundle):
    import time
    x_u, x_c, t = planted
    mapper = glam.MapperParams(source_group=0, target_group=0, theta=t,
                               lambda_theta=0.0)
    config = clue.ExperimentConfig(delta=1.5, k=4, r=1.5, scheme="s1",
                                   lambda_x=0.03, lr=0.3, iters=50, seed=5)
    with criterion(9, "amortized inference at most 1/50 of search"):
        models.reset_eval_counts()
        glam.apply_mapper(mapper, x_u[0], blobs_bundle)
        assert models.EVAL_COUNTS == {"encode": 1, "decode": 1, "predict": 1}
        models.reset_eval_counts()

        # interleaved rounds, so that a slow spell of the host lands on both
        # sides, and medians over all rounds, not over one sample per side
        mapper_times, search_times = [], []
        for _ in range(7):
            t0 = time.perf_counter()
            clue.delta_clue(x_u[0], blobs_bundle, config)
            search_times.append((time.perf_counter() - t0) / config.k)
            for _ in range(5):
                t0 = time.perf_counter()
                glam.apply_mapper(mapper, x_u[0], blobs_bundle)
                mapper_times.append(time.perf_counter() - t0)
        ratio = np.median(mapper_times) / np.median(search_times)
        assert ratio <= 1.0 / 50.0


# ---------------------------------------------------------------------------
# 10. mapped points land in the target group at competitive cost


@pytest.fixture(scope="module")
def blob_partition(blobs, blobs_bundle):
    lo, hi = data.default_taus(blobs_bundle)
    part = data.partition_by_certainty(blobs, blobs_bundle, lo, hi)
    usable = [c for c in range(blobs_bundle.c_classes)
              if len(part.uncertain_of_class(c)) >= 3
              and len(part.certain_of_class(c)) >= 3]
    return part, usable


def test_mapper_validity_and_cost(blobs, blobs_bundle, blob_partition):
    part, usable = blob_partition
    xt = blobs.train_inputs()
    cap, lam_x = 20, 0.03
    with criterion(10, "mappers valid and at most the worst baseline cost"):
        assert usable, "need at least one class with both groups"
        per_class = {c: glam.train_mapper(
            xt[part.uncertain_of_class(c)][:cap],
            xt[part.certain_of_class(c)][:cap], blobs_bundle,
            lambda_theta=0.01, source_group=c, target_group=c)
            for c in usable}
        points = [(c, x) for c in usable
                  for x in xt[part.uncertain_of_class(c)][:cap]]

        hits = [glam.apply_mapper(per_class[c], x, blobs_bundle).label == c
                for c, x in points]
        assert np.mean(hits) >= 0.8

        search_mappers = {}
        for lam_pairs in (0.0, lam_x):
            config = clue.ExperimentConfig(delta=1.5, k=4, r=1.5, scheme="s1",
                                           lambda_x=lam_pairs, lr=0.3,
                                           iters=50, seed=5)
            cesets = [clue.delta_clue(x, blobs_bundle, config)
                      for _c, x in points]
            labels = [models.argmax_label(
                models.predict(blobs_bundle, x)) for _c, x in points]
            search_mappers[lam_pairs] = glam.mappers_from_cesets(
                cesets, labels, blobs_bundle, lambda_theta=0.0)

        schemes = {
            "per-class": lambda x, c: glam.apply_mapper(per_class[c], x,
                                                        blobs_bundle, lam_x),
            "from-search": lambda x, c: glam.pick_best_mapper(
                search_mappers[0.0], x, blobs_bundle, lam_x),
            "from-sparse-search": lambda x, c: glam.pick_best_mapper(
                search_mappers[lam_x], x, blobs_bundle, lam_x),
        }
        baselines = {}
        for space in ("input", "latent"):
            dbm = {c: glam.dbm_baseline(space, xt[part.uncertain_of_class(c)],
                                        xt[part.certain_of_class(c)],
                                        blobs_bundle) for c in usable}
            baselines[f"dbm-{space}"] = (
                lambda x, c, _d=dbm: _d[c].apply(x, blobs_bundle, lam_x))
            baselines[f"nn-{space}"] = (
                lambda x, c, _s=space: glam.nn_baseline(
                    _s, x, xt[part.certain_of_class(c)], blobs_bundle, lam_x))

        def mean_cost(fn):
            return float(np.mean([fn(x, c).cost for c, x in points]))

        worst = max(mean_cost(fn) for fn in baselines.values())
        for name, fn in schemes.items():
            assert mean_cost(fn) <= worst, name


# ---------------------------------------------------------------------------
# 11. regularization trades distance against residual uncertainty


def test_regularization_tradeoff_direction(blobs, blobs_bundle, blob_partition):
    part, usable = blob_partition
    xt = blobs.train_inputs()
    cap = 20
    with criterion(11, "regularization: shorter moves, more uncertainty"):
        grid = (0.0, 0.1, 0.5, 2.0)
        mean_dx, mean_h = [], []
        for lam in grid:
            hs, dxs = [], []
            for c in usable:
                mapper = glam.train_mapper(
                    xt[part.uncertain_of_class(c)][:cap],
                    xt[part.certain_of_class(c)][:cap], blobs_bundle,
                    lambda_theta=lam, source_group=c, target_group=c)
                for x in xt[part.uncertain_of_class(c)][:cap]:
                    ce = glam.apply_mapper(mapper, x, blobs_bundle)
                    hs.append(ce.entropy)
                    dxs.append(ce.d_x)
            mean_dx.append(float(np.mean(dxs)))
            mean_h.append(float(np.mean(hs)))
        rho_dx, _ = stats.spearmanr(grid, mean_dx)
        rho_h, _ = stats.spearmanr(grid, mean_h)
        assert rho_dx < 0.0
        assert rho_h > 0.0


# ---------------------------------------------------------------------------
# 12. command-line determinism


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


def test_cli_reruns_are_byte_identical(tmp_path):
    with criterion(12, "command-line reruns byte-identical"):
        results = {}
        for tag in ("a", "b"):
            base = tmp_path / tag
            gd, tr = base / "gd", base / "tr"
            assert cli.main(["gen-data", "--out", str(gd), "--seed", "3",
                             "--set", "c=3", "--set", "d=8", "--set", "n=240",
                             "--set", "spread=0.22"]) == 0
            assert cli.main(["train", "--out", str(tr),
                             "--dataset", str(gd / "dataset"), "--seed", "3",
                             "--set", "vae_hidden=16", "--set", "latent=3",
                             "--set", "vae_epochs=40",
                             "--set", "kl_weight=0.01",
                             "--set", "ens_hidden=16",
                             "--set", "ens_epochs=150",
                             "--set", "members=3"]) == 0
            inputs = ["--bundle", str(tr / "bundle"), "--dataset", str(gd / "dataset"),
                      "--set", "seed=5"]
            common = inputs + ["--set", "delta=1.2", "--set", "r=1.2", "--set", "k=3",
                               "--set", "iters=10", "--set", "lr=0.3"]
            assert cli.main(["explain", "--out", str(base / "ex"),
                             "--method", "dclue", "--top", "1"] + common) == 0
            assert cli.main(["sweep", "--out", str(base / "sw"),
                             "--axis", "lambda_d", "--grid", "0,0.5"]
                            + common) == 0
            assert cli.main(["glam", "--out", str(base / "gl"),
                             "--variant", "glam1", "--set", "cap=10"]
                            + inputs) == 0  # glam reads no search setting
            results[tag] = {sub: read_bytes_except(str(base / sub))
                            for sub in ("gd", "tr", "ex", "sw", "gl")}
        assert results["a"] == results["b"]
