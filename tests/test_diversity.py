"""Diversity metrics against independent brute-force oracles, range
invariants on fuzzed sets, and gradient checks."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cluekit.diffcore as dc
from cluekit import clue, divclue, diversity as div
from tape_oracle import diversity_node


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


def cofactor_matrix(m):
    """The cofactors of m by ``det_cofactor``: det's gradient, adj(m)^T."""
    n = m.shape[0]
    if n == 1:
        return np.ones((1, 1))
    return np.array([[(-1.0) ** (i + j) * det_cofactor(np.delete(np.delete(m, i, 0), j, 1))
                      for j in range(n)] for i in range(n)])


def kernel_oracle(points):
    """The dpp kernel K_ij = 1/(1 + ||x_i - x_j||), entry by entry."""
    k = len(points)
    kern = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            kern[i, j] = 1.0 / (1.0 + np.linalg.norm(points[i] - points[j]))
    return kern


def dpp_oracle(points):
    if len(points) == 1:
        return 0.0
    return min(1.0, max(0.0, det_cofactor(kernel_oracle(points))))


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
        assert abs(div.dpp(pts) - dpp_oracle(pts)) < 1e-10


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


def odd_swap_matrix(rng, k):
    """A k x k matrix whose LU with partial pivoting swaps rows exactly once:
    a strictly column diagonally dominant matrix (which needs no swap) with
    its first two rows exchanged. Its determinant is negative."""
    m = rng.uniform(-1.0, 1.0, (k, k)) + (k + 1.0) * np.eye(k)
    m[[0, 1]] = m[[1, 0]]
    return m


@pytest.mark.parametrize("k", range(1, 7))
def test_det_and_the_dpp_kernel_match_cofactor_expansion(k):
    """``dc.det``'s value and gradient and the dpp kernel's value equal the
    cofactor expansion's, also for matrices whose LU swaps rows an odd number
    of times: their determinant is negative, and numpy's LU gives the sign."""
    rng = np.random.default_rng(40 + k)
    mats = [rng.standard_normal((k, k)) for _ in range(5)]
    odd = [odd_swap_matrix(rng, k) for _ in range(3)] if k > 1 else []
    for m in mats + odd:
        t = dc.Tensor(m.copy(), requires_grad=True)
        out = dc.det(t)
        out.backward()
        np.testing.assert_allclose(float(out.data), det_cofactor(m), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(t.grad, cofactor_matrix(m), rtol=1e-12, atol=1e-13)
    assert all(float(dc.det(m).data) < 0.0 for m in odd)
    spec = div.DiversitySpec(metric="dpp")
    for _ in range(5):
        pts = random_set(rng, k=k)
        value = div.value_and_grad(spec, pts, k)[0]
        expected = det_cofactor(kernel_oracle(pts)) if k > 1 else 0.0
        np.testing.assert_allclose(value, expected, rtol=1e-12, atol=1e-14)


def test_a_zero_determinant_takes_the_adjugate_and_warns_nothing():
    """A singular matrix's determinant is exactly 0.0 and its gradient the
    cofactor matrix; a duplicated point gives the dpp kernel the value 0.0
    and the gradient the tape chains through the same adjugate."""
    m3 = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0], [1.0, 2.0, 3.0]])
    pts = np.array([[0.5, 1.0], [0.5, 1.0], [2.0, -1.0], [0.0, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3)), m3):
            t = dc.Tensor(m, requires_grad=True)
            out = dc.det(t)
            out.backward()
            assert float(out.data) == 0.0 and not np.signbit(out.data)
            np.testing.assert_allclose(t.grad, cofactor_matrix(m), rtol=1e-12, atol=1e-14)
        spec = div.DiversitySpec(metric="dpp")
        value, grad = div.value_and_grad(spec, pts, len(pts))
        node = dc.Tensor(pts, requires_grad=True)
        diversity_node(spec, node).backward()
        assert value == 0.0
        np.testing.assert_allclose(grad, node.grad, rtol=1e-12, atol=1e-14)


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
    """dpp and apd measure l2 distances: a spec takes no base distance."""
    with pytest.raises(ValueError, match="space"):
        div.DiversitySpec(metric="dpp", space="bogus")
    with pytest.raises(TypeError, match="base"):
        div.DiversitySpec(metric="apd", base="l2")


def test_an_infinite_distance_raises_in_dpp_as_in_apd():
    """Finite points further apart than the float range have an infinite
    distance, whose 0 kernel entry would give dpp a NaN gradient."""
    pts = np.array([[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]])
    with np.errstate(over="ignore"):
        for metric in ("dpp", "apd"):
            with pytest.raises(FloatingPointError, match=f"^{metric} "):
                div.value_and_grad(div.DiversitySpec(metric=metric), pts, 2)
        with pytest.raises(FloatingPointError, match="^dpp "):
            div.dpp(pts)


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


def random_ceset(rng, accepted, dim=5, m=3, c=3):
    """A CESet of random candidates, one per ``accepted`` flag."""
    candidates = [clue.CandidateCE(
        z=rng.standard_normal(m), x=rng.uniform(0, 1, size=dim),
        posterior=rng.dirichlet(np.ones(c)), entropy=0.0, d_x=0.0, d_y=0.0, rho=0.0,
        cost=0.0, label=int(rng.integers(0, c)), accepted=flag, start_index=i)
        for i, flag in enumerate(accepted)]
    return clue.CESet(candidates=candidates, config=clue.ExperimentConfig(),
                      x0=rng.uniform(0, 1, size=dim), z0=rng.standard_normal(m))


def test_metric_report_covers_all_six():
    rows = div.metric_report_rows(random_ceset(np.random.default_rng(8), [True] * 4))
    metrics = {r[0] for r in rows}
    assert metrics == set(div.ALL_METRICS)
    assert {r[2] for r in rows} == {4}


def test_metric_report_scores_the_accepted_candidates_or_all_when_none_is():
    rng = np.random.default_rng(9)
    some = random_ceset(rng, [True, False, True, False])
    accepted = clue.CESet(candidates=some.accepted(), config=some.config,
                          x0=some.x0, z0=some.z0)
    rows = div.metric_report_rows(some)
    assert rows == div.metric_report_rows(accepted)
    assert {r[2] for r in rows} == {2}
    assert ("dpp", "latent", 2, div.dpp([c.z for c in accepted.candidates])) in rows
    none = random_ceset(rng, [False] * 4)
    every = clue.CESet(candidates=[replace(c, accepted=True) for c in none.candidates],
                       config=none.config, x0=none.x0, z0=none.z0)
    rows = div.metric_report_rows(none)
    assert rows == div.metric_report_rows(every)
    assert {r[2] for r in rows} == {4}
