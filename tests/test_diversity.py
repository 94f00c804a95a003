"""Diversity metrics against independent brute-force oracles, range
invariants on fuzzed sets, and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cluekit.diffcore as dc
from cluekit import divclue, diversity as div


# ---------------------------------------------------------------------------
# oracles


def det_cofactor(m):
    """Determinant by recursive cofactor expansion along the first row."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * m[0, j] * det_cofactor(minor)
    return total


def dpp_oracle(points, base="l2"):
    k = len(points)
    if k == 1:
        return 0.0
    kern = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            d = (np.linalg.norm(points[i] - points[j]) if base == "l2"
                 else np.sum(np.abs(points[i] - points[j])))
            kern[i, j] = 1.0 / (1.0 + d)
    return min(1.0, max(0.0, det_cofactor(kern)))


def apd_oracle(points):
    k = len(points)
    if k == 1:
        return 0.0
    total = count = 0
    for i in range(k):
        for j in range(i + 1, k):
            total += np.linalg.norm(points[i] - points[j])
            count += 1
    return total / count


def coverage_oracle(points, x0):
    d = len(x0)
    acc = 0.0
    for coord in range(d):
        acc += max(p[coord] - x0[coord] for p in points)
        acc += max(x0[coord] - p[coord] for p in points)
    return acc / d


# ---------------------------------------------------------------------------
# oracle agreement


def random_set(rng, k=None, dim=None):
    k = k or int(rng.integers(1, 7))
    dim = dim or int(rng.integers(2, 6))
    return rng.standard_normal((k, dim)) * rng.uniform(0.5, 2.0)


def test_dpp_matches_cofactor_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pts = random_set(rng)
        for base in ("l2", "l1"):
            assert abs(div.dpp(pts, base) - dpp_oracle(pts, base)) < 1e-10


def test_apd_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pts = random_set(rng)
        assert abs(div.apd(pts) - apd_oracle(pts)) < 1e-10


def test_coverage_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pts = random_set(rng)
        x0 = rng.standard_normal(pts.shape[1])
        assert abs(div.coverage(pts, x0) - coverage_oracle(pts, x0)) < 1e-10


def test_label_metrics_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = int(rng.integers(2, 6))
        labels = rng.integers(0, c, size=rng.integers(1, 7))
        assert div.distinct_labels(labels, c) == len(set(labels.tolist())) / c
        k = len(labels)
        h = 0.0
        for cls in range(c):
            p = np.sum(labels == cls) / k
            if p > 0:
                h -= p * np.log(p)
        assert abs(div.label_entropy(labels, c) - h / np.log(c)) < 1e-12


def test_prediction_coverage_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(50):
        k, c = int(rng.integers(1, 7)), int(rng.integers(2, 6))
        ps = rng.dirichlet(np.ones(c), size=k)
        expected = np.mean([max(ps[i][j] for i in range(k)) for j in range(c)])
        assert abs(div.prediction_coverage(ps) - expected) < 1e-12


# ---------------------------------------------------------------------------
# range invariants on 1,000 fuzzed sets


def test_range_invariants_fuzzed():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        c = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 5))
        pts = rng.uniform(-1.0, 2.0, size=(k, dim))
        labels = rng.integers(0, c, size=k)
        ps = rng.dirichlet(np.ones(c), size=k)
        assert 0.0 <= div.dpp(pts) <= 1.0
        assert 0.0 <= div.label_entropy(labels, c) <= 1.0
        assert 1.0 / c - 1e-12 <= div.prediction_coverage(ps) <= 1.0 + 1e-12
        x0 = rng.uniform(-1.0, 2.0, size=dim)
        all_pts = np.vstack([pts, x0[None, :]])
        bound = coverage_max(all_pts.min(axis=0), all_pts.max(axis=0))
        assert div.coverage(pts, x0) <= bound + 1e-12


def test_single_point_conventions():
    pt = np.array([[1.0, 2.0]])
    assert div.dpp(pt) == 0.0
    assert div.apd(pt) == 0.0


def test_dpp_duplicate_point_is_zero():
    pts = np.array([[0.5, 1.0], [0.5, 1.0], [2.0, -1.0]])
    assert div.dpp(pts) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    pts = random_set(rng, k=int(rng.integers(2, 6)))
    x0 = rng.standard_normal(pts.shape[1])
    perm = rng.permutation(len(pts))
    assert abs(div.dpp(pts) - div.dpp(pts[perm])) < 1e-12
    assert abs(div.apd(pts) - div.apd(pts[perm])) < 1e-12
    assert abs(div.coverage(pts, x0) - div.coverage(pts[perm], x0)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_monotone_metrics_never_decrease_when_adding_a_point(seed):
    rng = np.random.default_rng(seed)
    pts = random_set(rng, k=int(rng.integers(1, 5)))
    x0 = rng.standard_normal(pts.shape[1])
    extra = np.vstack([pts, rng.standard_normal(pts.shape[1])])
    assert div.coverage(extra, x0) >= div.coverage(pts, x0) - 1e-12
    c = 4
    labels = rng.integers(0, c, size=len(pts))
    more = np.append(labels, rng.integers(0, c))
    assert div.distinct_labels(more, c) >= div.distinct_labels(labels, c)
    ps = rng.dirichlet(np.ones(c), size=len(pts))
    ps_more = np.vstack([ps, rng.dirichlet(np.ones(c))])
    assert div.prediction_coverage(ps_more) >= div.prediction_coverage(ps) - 1e-12


# ---------------------------------------------------------------------------
# gradients


def fd_points_grad(f, pts, step=1e-6):
    g = np.zeros_like(pts)
    for i in range(pts.shape[0]):
        for j in range(pts.shape[1]):
            hi, lo = pts.copy(), pts.copy()
            hi[i, j] += step
            lo[i, j] -= step
            g[i, j] = (f(hi) - f(lo)) / (2 * step)
    return g


def latent_grad(spec, pts, z0=None):
    """Per-point gradients of a latent-space metric, as the searches take them."""
    _, grads = divclue._diversity(spec, None, z0, None, list(pts))
    return np.stack(grads)


def test_dpp_gradient_matches_fd():
    rng = np.random.default_rng(6)
    spec = div.DiversitySpec(metric="dpp", space="latent")
    for _ in range(10):
        pts = random_set(rng, k=3, dim=3)
        grad = latent_grad(spec, pts)
        numeric = fd_points_grad(lambda p: div.dpp(p), pts)
        denom = np.maximum(np.abs(numeric), 1e-3)
        assert np.max(np.abs(grad - numeric) / denom) < 1e-4


def test_apd_gradient_matches_fd():
    rng = np.random.default_rng(7)
    spec = div.DiversitySpec(metric="apd", space="latent")
    for _ in range(10):
        pts = random_set(rng, k=4, dim=3)
        grad = latent_grad(spec, pts)
        numeric = fd_points_grad(lambda p: div.apd(p), pts)
        denom = np.maximum(np.abs(numeric), 1e-3)
        assert np.max(np.abs(grad - numeric) / denom) < 1e-4


def test_coverage_gradient_is_plus_minus_one_over_d():
    # distinct coordinates so every arg-max is unique
    pts = np.array([[2.0, -1.0], [0.5, 3.0], [-1.5, 0.2]])
    x0 = np.zeros(2)
    spec = div.DiversitySpec(metric="coverage", space="latent")
    grad = latent_grad(spec, pts, z0=x0)
    d = 2
    expected = np.array([[1 / d, -1 / d], [0.0, 1 / d], [-1 / d, 0.0]])
    assert np.allclose(grad, expected)


def test_label_metrics_are_not_differentiable():
    for metric in div.LABEL_METRICS:
        with pytest.raises(ValueError, match="not differentiable"):
            div.value_and_grad(div.DiversitySpec(metric=metric), np.zeros((2, 2)), 1)


# ---------------------------------------------------------------------------
# spec rules and reporting


def test_spec_space_forcing_rules():
    assert div.DiversitySpec(metric="label_entropy", space="latent").space == "prediction"
    assert div.DiversitySpec(metric="prediction_coverage", space="input").space == "prediction"
    with pytest.raises(ValueError):
        div.DiversitySpec(metric="coverage", space="prediction")
    with pytest.raises(ValueError):
        div.DiversitySpec(metric="nope")


def test_spec_rejects_unknown_space_and_base():
    with pytest.raises(ValueError, match="space"):
        div.DiversitySpec(metric="dpp", space="bogus")
    with pytest.raises(ValueError, match="base"):
        div.DiversitySpec(metric="apd", base="l3")


def test_dpp_rejects_non_finite_points():
    pts = np.array([[0.0, 1.0], [np.inf, 0.0]])
    with pytest.raises(ValueError):
        div.dpp(pts)
    with pytest.raises(ValueError):
        div.apd(pts)
    with pytest.raises(ValueError):
        div.coverage(pts, np.zeros(2))


def test_coverage_rejects_dimension_mismatch():
    with pytest.raises(dc.ShapeError, match="dimension mismatch"):
        div.coverage(np.zeros((2, 3)), np.zeros(2))


def coverage_max(mins, maxs):
    """(S+ - S-)/d' bound on coverage from per-coordinate data ranges."""
    mins = np.asarray(mins, dtype=np.float64)
    maxs = np.asarray(maxs, dtype=np.float64)
    if np.any(maxs < mins):
        raise ValueError("coverage_max: per-coordinate max must be >= min")
    return float((maxs.sum() - mins.sum()) / len(mins))


def test_coverage_max_rejects_bad_ranges():
    with pytest.raises(ValueError):
        coverage_max([1.0, 0.0], [0.0, 1.0])


def test_metric_report_covers_all_six():
    rng = np.random.default_rng(8)
    k, dim, m, c = 4, 5, 3, 3
    xs = rng.uniform(0, 1, size=(k, dim))
    zs = rng.standard_normal((k, m))
    ps = rng.dirichlet(np.ones(c), size=k)
    labels = rng.integers(0, c, size=k)
    rows = div.metric_report_rows(xs, zs, ps, labels,
                                  rng.uniform(0, 1, size=dim),
                                  rng.standard_normal(m), c)
    metrics = {r[0] for r in rows}
    assert metrics == set(div.ALL_METRICS)
