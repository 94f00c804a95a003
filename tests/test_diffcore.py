"""Gradient checks for the autodiff engine against central finite differences."""

import numpy as np
import pytest

import cluekit.diffcore as dc

REL_TOL = 1e-4
ABS_TOL = 1e-7
FD_STEP = 1e-5


def fd_grad(f, x, step=FD_STEP):
    """Central finite-difference gradient of scalar f at x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = f(x)
        flat[i] = keep - step
        lo = f(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2.0 * step)
    return g


def check_grad(build, x, rng=None):
    """build(tensor) -> scalar node; compares backward to finite differences."""
    t = dc.Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    numeric = fd_grad(lambda v: float(build(dc.Tensor(v.copy())).data), x.copy())
    denom = np.maximum(np.abs(numeric), ABS_TOL / REL_TOL)
    err = np.abs(t.grad - numeric) / denom
    assert err.max() < REL_TOL, f"max rel err {err.max():.2e}"


UNARY_OPS = [
    ("tanh", dc.tanh, 2.0),
    ("relu", dc.relu, 2.0),
    ("sigmoid", dc.sigmoid, 3.0),
    ("exp", dc.exp, 1.0),
    ("softplus", dc.softplus, 3.0),
]


@pytest.mark.parametrize("name,op,scale", UNARY_OPS)
def test_unary_ops_gradcheck(name, op, scale):
    rng = np.random.default_rng(hash(name) % (2**32))
    for _ in range(25):
        x = scale * rng.standard_normal(rng.integers(1, 8))
        if name == "relu":
            x = x + np.where(np.abs(x) < 1e-3, 0.1, 0.0)  # avoid the kink
        check_grad(lambda t: dc.tsum(dc.mul(op(t), op(t))), x)


def test_log_recip_gradcheck():
    rng = np.random.default_rng(10)
    for _ in range(25):
        x = rng.uniform(0.2, 3.0, size=rng.integers(1, 8))
        check_grad(lambda t: dc.tsum(dc.log(t)), x.copy())
        check_grad(lambda t: dc.tsum(dc.recip(t)), x.copy())


def test_matmul_affine_gradcheck():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n, m, k = rng.integers(1, 5, size=3)
        a = rng.standard_normal((n, m))
        b = rng.standard_normal((m, k))
        bias = rng.standard_normal(k)
        check_grad(lambda t: dc.tsum(dc.matmul(t, dc.Tensor(b))), a.copy())
        check_grad(lambda t: dc.tsum(dc.matmul(dc.Tensor(a), t)), b.copy())
        check_grad(lambda t: dc.sq_norm(dc.affine(dc.Tensor(a), dc.Tensor(b), t)),
                   bias.copy())
        # stacked: E x n x m @ E x m x k, and n x m @ E x m x k, whose input
        # gradient sums over the E slabs
        e = int(rng.integers(1, 4))
        sa = rng.standard_normal((e, n, m))
        sb = rng.standard_normal((e, m, k))
        check_grad(lambda t: dc.sq_norm(dc.matmul(t, dc.Tensor(sb))), sa.copy())
        check_grad(lambda t: dc.sq_norm(dc.matmul(dc.Tensor(sa), t)), sb.copy())
        check_grad(lambda t: dc.sq_norm(dc.matmul(t, dc.Tensor(sb))), a.copy())
        check_grad(lambda t: dc.sq_norm(dc.matmul(dc.Tensor(a), t)), sb.copy())


def test_reshape_and_cols_gradcheck():
    rng = np.random.default_rng(14)
    for _ in range(25):
        n, m = rng.integers(1, 5, size=2)
        lo = int(rng.integers(0, m))
        hi = int(rng.integers(lo + 1, m + 1))
        w = rng.standard_normal(n * m)
        x = rng.standard_normal((n, m))
        check_grad(lambda t: dc.tsum(dc.mul(dc.reshape(t, (-1,)), dc.Tensor(w))), x.copy())
        check_grad(lambda t: dc.sq_norm(dc.reshape(t, (n, m))), w.copy())
        check_grad(lambda t: dc.sq_norm(dc.tanh(dc.cols(t, lo, hi))), x.copy())
        check_grad(lambda t: dc.sq_norm(dc.cols(t, lo, hi)), x[0].copy())


def test_broadcast_add_mul_gradcheck():
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = rng.standard_normal((3, 4))
        row = rng.standard_normal(4)
        check_grad(lambda t: dc.tsum(dc.add(dc.Tensor(a), t)), row.copy())
        check_grad(lambda t: dc.tsum(dc.mul(dc.Tensor(a), t)), row.copy())


def test_softmax_entropy_chain_gradcheck():
    rng = np.random.default_rng(13)
    for _ in range(30):
        logits = 3.0 * rng.standard_normal(rng.integers(2, 6))

        def neg_entropy(t):
            p = dc.softmax(t)
            return dc.tsum(dc.mul(p, dc.log(p)))

        check_grad(neg_entropy, logits)


def test_reduction_ops_gradcheck():
    rng = np.random.default_rng(14)
    for _ in range(25):
        x = rng.standard_normal((3, 5))
        # perturb away from argmax ties so amax is differentiable
        x = x + rng.uniform(0, 0.01, size=x.shape)
        check_grad(lambda t: dc.amax(dc.tsum(t, axis=1), axis=0), x.copy())
        # a tuple of axes, as the stacked ensemble's per-member loss sums
        w = rng.standard_normal(2)
        check_grad(lambda t: dc.tsum(dc.mul(dc.tsum(dc.tanh(t), axis=(1, 2)), dc.Tensor(w))),
                   rng.standard_normal((2, 3, 4)))


def test_distance_ops_gradcheck():
    rng = np.random.default_rng(15)
    for _ in range(25):
        x = rng.standard_normal(6)
        ref = rng.standard_normal(6)
        check_grad(lambda t: dc.l1_dist(t, dc.Tensor(ref)), x.copy())
        check_grad(lambda t: dc.sq_norm(t), x.copy())


def test_pairwise_dist_gradcheck():
    rng = np.random.default_rng(16)
    for _ in range(15):
        pts = rng.standard_normal((4, 3))
        check_grad(lambda t: dc.tsum(dc.pairwise_dist(t)), pts.copy())


def test_det_gradcheck():
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        m = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
        check_grad(dc.det, m.copy())


def test_det_singular_matrix_has_finite_gradient():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    t = dc.Tensor(m, requires_grad=True)
    out = dc.det(t)
    out.backward()
    assert abs(float(out.data)) < 1e-12
    assert np.all(np.isfinite(t.grad))
    # adjugate of [[1,2],[2,4]] is [[4,-2],[-2,1]] transposed into the gradient
    assert np.allclose(t.grad, np.array([[4.0, -2.0], [-2.0, 1.0]]).T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_det_rejects_a_non_finite_matrix(bad):
    m = np.eye(3)
    m[1, 2] = bad
    with pytest.raises(FloatingPointError):
        dc.det(m)


def test_l1_grad_sign_cases():
    t = dc.Tensor(np.array([2.0, 3.0, 4.0]), requires_grad=True)
    dc.l1_dist(t, dc.Tensor(np.array([1.0, 1.0, 1.0]))).backward()
    assert np.array_equal(t.grad, np.ones(3))
    t = dc.Tensor(np.array([0.0, 2.0]), requires_grad=True)
    dc.l1_dist(t, dc.Tensor(np.array([1.0, 1.0]))).backward()
    assert np.array_equal(t.grad, np.array([-1.0, 1.0]))


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(18)
    for _ in range(50):
        logits = rng.uniform(-500.0, 500.0, size=5)
        p = dc.softmax(dc.Tensor(logits)).data
        assert abs(p.sum() - 1.0) < 1e-12
        q = dc.softmax(dc.Tensor(logits + 123.0)).data
        assert np.allclose(p, q, atol=1e-12)
        assert np.all(np.isfinite(p))


def test_pick_selects_single_entry():
    t = dc.Tensor(np.array([0.1, 0.7, 0.2]), requires_grad=True)
    out = dc.pick(t, 1)
    out.backward()
    assert float(out.data) == 0.7
    assert np.array_equal(t.grad, np.array([0.0, 1.0, 0.0]))


def test_concat_roundtrip_gradient():
    a = dc.Tensor(np.ones((2, 3)), requires_grad=True)
    b = dc.Tensor(np.ones((1, 3)), requires_grad=True)
    out = dc.tsum(dc.concat([a, b], axis=0))
    out.backward()
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.ones((1, 3)))


def test_backward_requires_scalar():
    t = dc.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        dc.mul(t, 2.0).backward()


def test_matmul_shape_error():
    with pytest.raises(dc.ShapeError):
        dc.matmul(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((4, 2))))
    with pytest.raises(dc.ShapeError):
        dc.matmul(dc.Tensor(np.ones(3)), dc.Tensor(np.ones((3, 2))))


def test_forward_backward_deterministic():
    rng = np.random.default_rng(19)
    x = rng.standard_normal(8)

    def run():
        t = dc.Tensor(x.copy(), requires_grad=True)
        out = dc.tsum(dc.mul(dc.tanh(t), dc.sigmoid(t)))
        out.backward()
        return float(out.data), t.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_trial_count_meets_contract():
    """The per-op loops above add up to at least 100 seeded trials."""
    counts = [25 * len(UNARY_OPS), 50, 175, 100, 50, 30, 50, 50, 30, 25]
    assert sum(counts) >= 100
