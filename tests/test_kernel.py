"""The fused search kernel, the diversity kernel, the mapper fit's step and
the numpy forward against the autodiff tape.

``clue.objective``, ``divclue._diversity``, the metric report's ``dpp``,
``apd`` and ``coverage``, ``glam._recon_and_grad`` and ``models.encode``/
``decode``/``predict`` run on plain numpy with a hand-derived backward;
``tape_oracle`` builds the same computations on the tape, which is the
oracle here. Training is checked against the tape in ``test_models``.
"""

import re

import numpy as np
import pytest

import cluekit.diffcore as dc
from cluekit import clue, data, divclue, diversity as div, glam, models
import tape_oracle as tape

RTOL = 1e-10


@pytest.fixture(scope="module")
def digits64_bundle():
    """An undertrained d=64, m=8, E=5 bundle: the digits shapes, cheaply."""
    ds = data.gen_minidigits(n=200, seed=5)
    vae_hp = models.VaeHyperparams(hidden=16, latent=8, epochs=3)
    ens_hp = models.EnsembleHyperparams(hidden=16, epochs=3)
    return ds, models.train_bundle(ds, vae_hp, ens_hp, n_members=5, seed=5)


def tape_objective(z, x0, bundle, lambda_x, lambda_y, label):
    zt = dc.Tensor(np.asarray(z, dtype=np.float64), requires_grad=True)
    x = tape.decode_graph(bundle, zt)
    p = tape.posterior_graph(bundle, x)
    loss = tape.entropy_graph(p)
    if lambda_x > 0.0:
        loss = dc.add(loss, dc.mul(dc.l1_dist(x, dc.Tensor(x0)), lambda_x))
    if lambda_y > 0.0:
        loss = dc.add(loss, dc.mul(dc.mul(dc.log(dc.pick(p, label)), -1.0), lambda_y))
    loss.backward()
    return float(loss.data), zt.grad


@pytest.mark.parametrize("which", ["tiny", "digits64"])
def test_fused_objective_matches_tape(which, tiny_bundle, request):
    ds, bundle = tiny_bundle if which == "tiny" else request.getfixturevalue("digits64_bundle")
    rng = np.random.default_rng(12)
    z0s = models.encode(bundle, ds.train_inputs()[:20])
    weights = set()
    for i in range(120):
        z = z0s[i % len(z0s)] + rng.normal(0.0, 1.0, bundle.m_latent)
        x0 = rng.uniform(0.0, 1.0, bundle.d_in)
        # cycle through each distance term being off, both off, both on
        lam_x = 0.0 if i % 4 in (0, 2) else float(rng.uniform(0.01, 0.5))
        lam_y = 0.0 if i % 4 in (1, 2) else float(rng.uniform(0.01, 0.5))
        weights.add((lam_x > 0.0, lam_y > 0.0))
        label = int(rng.integers(bundle.c_classes))
        value, grad = clue.objective(z, x0, bundle, lam_x, lam_y, label)
        ref_value, ref_grad = tape_objective(z, x0, bundle, lam_x, lam_y, label)
        np.testing.assert_allclose(value, ref_value, rtol=RTOL, atol=0.0)
        np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=0.0)
    assert weights == {(False, True), (True, False), (False, False), (True, True)}


def test_fused_objective_is_one_tape_node(tiny_bundle, monkeypatch):
    ds, bundle = tiny_bundle
    made, backward_calls = [], []
    init, backward = dc.Tensor.__init__, dc.Tensor.backward

    def counted_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    def counted_backward(self, *args, **kwargs):
        backward_calls.append(1)
        return backward(self, *args, **kwargs)

    monkeypatch.setattr(dc.Tensor, "__init__", counted_init)
    monkeypatch.setattr(dc.Tensor, "backward", counted_backward)
    z = models.encode(bundle, ds.train_inputs()[0])
    clue.objective(z, ds.train_inputs()[1], bundle, 0.1, 0.1, 0)
    assert len(made) == 2  # the latent leaf and the fused loss node
    assert len(backward_calls) == 1


def test_objective_makes_no_counted_model_call(tiny_bundle):
    """The objective takes the input's label from its caller, so a step
    makes no encode, decode or predict call of its own."""
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[2]
    z = models.encode(bundle, x0) + 0.3
    label = models.argmax_label(models.predict(bundle, x0))
    models.reset_eval_counts()
    clue.objective(z, x0, bundle, 0.1, 0.2, label)
    assert models.EVAL_COUNTS == {"encode": 0, "decode": 0, "predict": 0}


@pytest.mark.parametrize("which", ["tiny", "digits64"])
def test_numpy_forward_matches_tape(which, tiny_bundle, request):
    ds, bundle = tiny_bundle if which == "tiny" else request.getfixturevalue("digits64_bundle")
    xs = ds.train_inputs()[:6]
    zs = models.encode(bundle, xs)
    for x, z in ((xs[0], zs[0]), (xs, zs)):  # one row, then a batch
        np.testing.assert_allclose(models.encode(bundle, x),
                                   tape.encode_graph(bundle, dc.Tensor(x)).data,
                                   rtol=RTOL, atol=0.0)
        np.testing.assert_allclose(models.decode(bundle, z),
                                   tape.decode_graph(bundle, dc.Tensor(z)).data,
                                   rtol=RTOL, atol=0.0)
        members = tape.member_probs_graph(bundle, dc.Tensor(x)).data
        ours = models._softmax(models._forward(bundle.ensemble, np.atleast_2d(x), models._relu))
        np.testing.assert_allclose(ours.reshape(members.shape), members, rtol=RTOL, atol=0.0)
        np.testing.assert_allclose(models.predict(bundle, x), members.mean(axis=0),
                                   rtol=RTOL, atol=0.0)
    # a batch row equals the same row on its own
    np.testing.assert_allclose(models.encode(bundle, xs)[3], models.encode(bundle, xs[3]),
                               rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("which", ["tiny", "digits64"])
def test_s5_ascent_gradient_matches_tape(which, tiny_bundle, request):
    """The s5 walk's step direction: the gradient of p_y(decode(z)) from the
    decoder and posterior kernels seeded with one-hot(y)."""
    ds, bundle = tiny_bundle if which == "tiny" else request.getfixturevalue("digits64_bundle")
    for z in models.encode(bundle, ds.train_inputs()[:4]):
        for y in range(bundle.c_classes):
            x, decoder_grad = models._decode_with_grad(bundle, z)
            p, posterior_grad = models._posterior_with_grad(bundle, x)
            grad = decoder_grad(posterior_grad(np.eye(bundle.c_classes)[y]))
            zt = dc.Tensor(z, requires_grad=True)
            ref = tape.posterior_graph(bundle, tape.decode_graph(bundle, zt))
            dc.pick(ref, y).backward()
            np.testing.assert_allclose(p, ref.data, rtol=RTOL, atol=0.0)
            np.testing.assert_allclose(grad, zt.grad, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 10])
@pytest.mark.parametrize("which", ["tiny", "digits64"])
def test_a_stack_of_rows_runs_as_each_row_alone(which, n, tiny_bundle, request):
    """``_decode_with_grad``, ``_posterior_with_grad`` (values and adjoints) and
    ``models.decode`` on n rows stacked on leading axes give each row's
    one-row call bit for bit: an n x 1 x width stack, and for the posterior
    also an n x d' array."""
    ds, bundle = tiny_bundle if which == "tiny" else request.getfixturevalue("digits64_bundle")
    rng = np.random.default_rng(n)
    zs = models.encode(bundle, ds.train_inputs()[:n]) + rng.normal(0.0, 0.5, (n, bundle.m_latent))
    gxs = rng.standard_normal((n, bundle.d_in))
    gps = rng.standard_normal((n, bundle.c_classes))
    xs, decoder_grad = models._decode_with_grad(bundle, zs[:, None])
    ps, posterior_grad = models._posterior_with_grad(bundle, xs)
    p2, posterior_grad2 = models._posterior_with_grad(bundle, xs[:, 0])
    stacked = (xs[:, 0], decoder_grad(gxs[:, None])[:, 0], ps[:, 0],
               posterior_grad(gps[:, None])[:, 0], p2, posterior_grad2(gps),
               models.decode(bundle, zs[:, None])[:, 0])
    for i, z in enumerate(zs):
        x, decoder_grad = models._decode_with_grad(bundle, z)
        p, posterior_grad = models._posterior_with_grad(bundle, x)
        gp = posterior_grad(gps[i])
        alone = (x, decoder_grad(gxs[i]), p, gp, p, gp, models.decode(bundle, z))
        for j, (a, b) in enumerate(zip(stacked, alone)):
            assert a[i].shape == b.shape and a[i].tobytes() == b.tobytes(), (i, j)


def _row_outputs(bundle, xs, zs, gxs, gps):
    """Each row-reading call at inputs ``xs`` and latents ``zs``, with the adjoints
    of the two kernels at seeds ``gxs`` and ``gps``, by name."""
    x, decoder_grad = models._decode_with_grad(bundle, zs)
    p, posterior_grad = models._posterior_with_grad(bundle, xs)
    return {"encode": models.encode(bundle, xs), "decode": models.decode(bundle, zs),
            "predict": models.predict(bundle, xs),
            "predict_entropy": np.float64(models.predict_entropy(bundle, xs)),
            "_decode_with_grad": x, "_decode_with_grad adjoint": decoder_grad(gxs),
            "_posterior_with_grad": p, "_posterior_with_grad adjoint": posterior_grad(gps)}


@pytest.mark.parametrize("rows", [(0,), (1,), (64,), (2, 3)], ids=["0", "1", "64", "2x3"])
@pytest.mark.parametrize("which", ["blobs", "digits64"])
def test_inference_reads_each_row_as_that_row_alone(which, rows, request):
    """Inference and the two adjoint kernels read rows: at an array X of rows
    (0, 1 or 64 rows, or a 2 x 3 stack of them) each call f gives f(X)[i]
    byte for byte f(X[i]), values and adjoints, for X[i] one row and, in the
    stack, for X[i] a 3-row array."""
    if which == "blobs":
        ds, bundle = request.getfixturevalue("blobs"), request.getfixturevalue("blobs_bundle")
    else:
        ds, bundle = request.getfixturevalue("digits64_bundle")
    rng = np.random.default_rng(len(rows))
    xs = ds.train_inputs()[:int(np.prod(rows))].reshape(rows + (bundle.d_in,))
    zs = models.encode(bundle, xs) + rng.normal(0.0, 0.5, rows + (bundle.m_latent,))
    gxs, gps = rng.standard_normal(xs.shape), rng.standard_normal(rows + (bundle.c_classes,))
    together = _row_outputs(bundle, xs, zs, gxs, gps)
    one = _row_outputs(bundle, *(np.zeros(a.shape[-1]) for a in (xs, zs, gxs, gps)))
    for name, out in together.items():
        assert out.shape == rows + one[name].shape, name
    stacks = [(j,) for j in range(rows[0])] if len(rows) > 1 else []
    for i in list(np.ndindex(rows)) + stacks:
        alone = _row_outputs(bundle, xs[i], zs[i], gxs[i], gps[i])
        for name, out in together.items():
            assert out[i].tobytes() == alone[name].tobytes(), (name, i)


def _ref_s5_path(z0, y, delta, bundle):
    """The reference walk of one s5 way on its own: S5_STEPS normalized ascent
    steps on p_y(decode(z)), one one-row call of each kernel per step, ending
    where the gradient is 0."""
    path, z = [z0], z0
    for _ in range(clue.S5_STEPS):
        x, decoder_grad = models._decode_with_grad(bundle, z)
        _, posterior_grad = models._posterior_with_grad(bundle, x)
        g = decoder_grad(posterior_grad(np.eye(bundle.c_classes)[y]))
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        z = z + delta / clue.S5_STEPS * (g / gn)
        path.append(z)
    return path


def _stop_way(monkeypatch, dead, after):
    """Patch the posterior kernel so that class ``dead``'s ascent gradient is 0
    from its step ``after`` on, in a one-row call and in a stack alike. Returns
    the per-class step counts, which the caller clears between walks, and the
    kernel calls made."""
    steps, calls, posterior_with_grad = {}, [], models._posterior_with_grad

    def patched(bundle, x):
        calls.append(x.shape)
        p, grad = posterior_with_grad(bundle, x)

        def stopping(gp):
            g = grad(gp)
            for gp_row, g_row in zip(gp.reshape(-1, gp.shape[-1]), g.reshape(-1, g.shape[-1])):
                y = int(gp_row.argmax())
                steps[y] = steps.get(y, 0) + 1
                if y == dead and steps[y] > after:
                    g_row[:] = 0.0  # a view of g
            return g
        return p, stopping

    monkeypatch.setattr(models, "_posterior_with_grad", patched)
    return steps, calls


@pytest.mark.parametrize("n", [1, 2, 10])
def test_lockstep_s5_ways_equal_the_per_class_walks(digits64_bundle, monkeypatch, n):
    """The n ways walked in lockstep read as the n ways walked one by one, bit
    for bit, with way n // 2's gradient 0 from its step 7 on: it stops there
    while the others walk on. The walk makes at most S5_STEPS calls of each
    kernel, each on the stack of the live ways (one way that stops ends it)."""
    ds, bundle = digits64_bundle
    z0 = models.encode(bundle, ds.train_inputs()[3])
    dead, decodes, decode_with_grad = n // 2, [], models._decode_with_grad
    steps, calls = _stop_way(monkeypatch, dead, after=7)
    monkeypatch.setattr(models, "_decode_with_grad",
                        lambda *args: decodes.append(1) or decode_with_grad(*args))
    ways = clue._s5_ways(z0, n, 1.5, bundle)
    assert len(decodes) == len(calls) == (clue.S5_STEPS if n > 1 else 8)
    assert calls[0] == (n, bundle.d_in) and calls[-1] == (max(n - 1, 1), bundle.d_in)
    steps.clear()
    paths = [_ref_s5_path(z0, y, 1.5, bundle) for y in range(n)]
    assert [len(path) for path in paths] == [8 if y == dead else clue.S5_STEPS + 1
                                             for y in range(n)]
    fractions = np.append(np.linspace(0.0, 1.0, 4 * clue.S5_STEPS + 1), 1.5)
    for y, (way, path) in enumerate(zip(ways, paths)):
        for f in fractions:
            assert way(f).tobytes() == clue._along(path, f).tobytes(), (y, f)


def _with_dead_class(bundle, dead):
    """The bundle with every member's logit for class ``dead`` pushed to -1e4,
    so the ensemble posterior of that class underflows to exactly 0."""
    weights, biases = list(bundle.ensemble.weights), list(bundle.ensemble.biases)
    weights[-1] = np.zeros_like(weights[-1])
    biases[-1] = np.zeros_like(biases[-1])
    biases[-1][..., dead] = -1e4
    return models.ModelBundle(encoder=bundle.encoder, decoder=bundle.decoder,
                              ensemble=models.MLP(weights=weights, biases=biases))


def test_zero_posterior_entry_raises(tiny_bundle):
    ds, bundle = tiny_bundle
    dead = _with_dead_class(bundle, 1)
    x0 = ds.train_inputs()[0]
    z = models.encode(dead, x0)
    assert models.predict(dead, models.decode(dead, z))[1] == 0.0
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match="entropy term"):
            clue.objective(z, x0, dead, 0.1, 0.0, 0)
        with pytest.raises(FloatingPointError, match="prediction-distance term"):
            clue.objective(z, x0, dead, 0.1, 0.1, 1)


def test_objective_rejects_bad_x0_and_overflowing_total(tiny_bundle):
    """An x0 entry of inf makes d_x non-finite. A weight of 1e308 makes the
    total non-finite where x0, shifted by 1 in each entry, puts d_x near d.
    Each case has finite other terms. A too-wide x0 is refused only at
    lambda_x > 0, the one weight at which x0 is read."""
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[0]
    z = models.encode(bundle, x0)
    inf_x0 = x0.copy()
    inf_x0[0] = np.inf
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match="input-distance term"):
            clue.objective(z, inf_x0, bundle, 0.1, 0.0, 0)
        with pytest.raises(FloatingPointError, match="total loss"):
            clue.objective(z, x0 + 1.0, bundle, 1e308, 0.0, 0)
    wide = np.append(x0, 0.0)
    with pytest.raises(dc.ShapeError, match="x0 shape"):
        clue.objective(z, wide, bundle, 0.1, 0.0, 0)
    value, grad = clue.objective(z, wide, bundle, 0.0, 0.0, 0)
    expected_value, expected_grad = clue.objective(z, x0, bundle, 0.0, 0.0, 0)
    assert value == expected_value
    assert np.array_equal(grad, expected_grad)


# ---------------------------------------------------------------------------
# the diversity kernel


def tape_diversity(spec, bundle, z0, x0, free, const=None):
    """The diversity term and its free-latent gradients on the tape: free
    latents (decoded on the tape in input space) under constant rows."""
    zts = [dc.Tensor(z, requires_grad=True) for z in free]
    rows = [zt if spec.space == "latent" else tape.decode_graph(bundle, zt) for zt in zts]
    rows = [dc.reshape(r, (1, -1)) for r in rows]
    if const is not None:
        rows = [dc.Tensor(const)] + rows
    node = tape.diversity_node(spec, dc.concat(rows, axis=0),
                               x0=z0 if spec.space == "latent" else x0)
    if node._parents:
        node.backward()
    return float(node.data), np.stack([np.zeros_like(zt.data) if zt.grad is None else zt.grad
                                       for zt in zts])


def l2_seed(seed):
    """A test's random seed, under an id that names the metrics' l2 base distance."""
    return pytest.mark.parametrize("seed", [seed], ids=["l2"])


@pytest.mark.parametrize("metric", div.DIFFERENTIABLE_METRICS)
@pytest.mark.parametrize("space", ["latent", "input"])
@l2_seed(31)
def test_diversity_kernel_matches_tape(metric, space, seed, tiny_bundle):
    """Every metric x space, 1-5 free points under 0-5 found rows: one free
    row under found rows takes dpp's one-row update, up to k = 6."""
    ds, bundle = tiny_bundle
    spec = div.DiversitySpec(metric=metric, space=space)
    rng = np.random.default_rng(seed)
    z0s = models.encode(bundle, ds.train_inputs()[:10])
    for n_free in range(1, 6):
        for n_const in range(6):
            for _ in range(3):
                z0 = z0s[int(rng.integers(len(z0s)))]
                x0 = models.decode(bundle, z0)
                free = list(z0 + rng.normal(0.0, 1.0, (n_free, bundle.m_latent)))
                const = None
                if n_const:
                    found = z0 + rng.normal(0.0, 1.0, (n_const, bundle.m_latent))
                    const = found if space == "latent" else models.decode(bundle, found)
                value, grad = divclue._diversity(spec, bundle, z0, x0, free, const)
                ref_value, ref_grad = tape_diversity(spec, bundle, z0, x0, free, const)
                np.testing.assert_allclose(value, ref_value, rtol=RTOL, atol=0.0)
                np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=0.0)


@l2_seed(32)
def test_diversity_kernel_matches_tape_at_coincident_points(seed):
    """Coincident points make the dpp kernel singular: both take the
    gradient through the adjugate, and a zero distance has no direction."""
    rng = np.random.default_rng(seed)
    z0 = np.zeros(3)
    for metric in div.DIFFERENTIABLE_METRICS:
        spec = div.DiversitySpec(metric=metric)
        free = rng.normal(0.0, 1.0, (3, 3))
        free[2] = free[0]
        value, grad = divclue._diversity(spec, None, z0, None, list(free))
        ref_value, ref_grad = tape_diversity(spec, None, z0, None, list(free))
        assert value == ref_value
        np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=0.0)


@l2_seed(34)
def test_dpp_one_row_update_leaves_what_it_cannot_take_to_the_full_kernel(seed):
    """A free row on a found row, two coincident found rows, a non-finite
    found row, found rows whose distance overflows and a non-finite free row
    leave dpp's one-row update: ``_diversity`` then gives bitwise what
    ``value_and_grad`` gives on the stacked rows, or raises its error."""
    rng = np.random.default_rng(seed)
    spec = div.DiversitySpec(metric="dpp")
    found, row = rng.normal(0.0, 1.0, (3, 3)), rng.normal(0.0, 1.0, 3)
    coincident, non_finite, far = found.copy(), found.copy(), found.copy()
    coincident[2] = coincident[0]
    non_finite[1, 0] = np.nan
    # 2e154 apart, a squared distance past the float range; the free row is not
    far[0], far[1] = (1e154, 0.0, 0.0), (-1e154, 0.0, 0.0)
    singular = [(found, found[1].copy()), (coincident, row)]
    failing = [(non_finite, row), (far, row), (found, np.full(3, np.inf))]
    with np.errstate(invalid="ignore", over="ignore"):
        for const, free in singular + failing:
            assert div._dpp_add_row(const, div._dpp_factor(const), free) is None
        for const, free in singular:
            want = div.value_and_grad(spec, np.concatenate((const, free[None])), 1)
            value, grad = divclue._diversity(spec, None, np.zeros(3), None, [free], const)
            assert value == want[0] == 0.0 and np.array_equal(grad, want[1])
        for const, free in failing:
            with pytest.raises(FloatingPointError) as want:
                div.value_and_grad(spec, np.concatenate((const, free[None])), 1)
            with pytest.raises(FloatingPointError, match=re.escape(str(want.value))):
                divclue._diversity(spec, None, np.zeros(3), None, [free], const)


def test_diversity_kernel_errors(tiny_bundle):
    _, bundle = tiny_bundle
    z0 = np.zeros(bundle.m_latent)
    free = [z0 + 0.1, z0 - 0.2]
    for spec in (div.DiversitySpec(metric="distinct_labels"),
                 div.DiversitySpec(metric="dpp", space="prediction")):
        with pytest.raises(ValueError, match="latent or input space"):
            divclue._diversity(spec, bundle, z0, None, free)
    with pytest.raises(ValueError, match="not differentiable"):
        div.value_and_grad(div.DiversitySpec(metric="label_entropy"), np.zeros((2, 2)), 1)
    bad = [free[0], np.full(bundle.m_latent, np.nan)]
    with np.errstate(invalid="ignore"):
        for metric in div.DIFFERENTIABLE_METRICS:
            spec = div.DiversitySpec(metric=metric)
            with pytest.raises(FloatingPointError, match="non-finite"):
                divclue._diversity(spec, bundle, z0, None, bad)
            with pytest.raises(FloatingPointError, match="non-finite"):
                divclue._diversity(spec, bundle, z0, None, free[:1],
                                   np.full((1, bundle.m_latent), np.inf))


@l2_seed(33)
def test_metric_values_equal_the_tape(seed):
    """The metric report's dpp, apd and coverage equal the tape's values
    exactly, for k = 1..6 over random, coincident and simplex rows."""
    rng = np.random.default_rng(seed)
    for k in range(1, 7):
        for rows in ("random", "coincident", "simplex"):
            for _ in range(20):
                dim = int(rng.integers(2, 6))
                pts = rng.normal(0.0, 1.0, (k, dim))
                if rows == "coincident" and k > 1:
                    i, j = rng.choice(k, 2, replace=False)
                    pts[j] = pts[i]
                elif rows == "simplex":
                    pts = rng.dirichlet(np.ones(dim), k)
                x0 = rng.normal(0.0, 1.0, dim)
                for metric, value in (("dpp", div.dpp(pts)), ("apd", div.apd(pts)),
                                      ("coverage", div.coverage(pts, x0))):
                    spec = div.DiversitySpec(metric=metric)
                    ref = float(tape.diversity_node(spec, dc.Tensor(pts), x0=x0).data)
                    assert value == (min(1.0, max(0.0, ref)) if metric == "dpp" else ref)


# ---------------------------------------------------------------------------
# the mapper fit's step


def tape_recon(bundle, z_u, x_c, theta):
    """The mapper fit's reconstruction term and its theta gradient on the
    tape, each row's nearest certain point held fixed."""
    tt = dc.Tensor(np.asarray(theta), requires_grad=True)
    dec = tape.decode_graph(bundle, dc.add(dc.Tensor(z_u), tt))
    idx = np.argmin(((dec.data[:, None, :] - x_c[None]) ** 2).sum(axis=2), axis=1)
    node = dc.mul(dc.sq_norm(dc.sub(dec, dc.Tensor(x_c[idx]))), 1.0 / len(z_u))
    node.backward()
    return float(node.data), tt.grad


@pytest.mark.parametrize("which", ["tiny", "digits64"])
def test_mapper_step_matches_tape(which, tiny_bundle, request):
    ds, bundle = tiny_bundle if which == "tiny" else request.getfixturevalue("digits64_bundle")
    rng = np.random.default_rng(34)
    z0s = models.encode(bundle, ds.train_inputs()[:20])
    for n_rows in range(1, 6):
        for n_certain in (1, 4, 9):
            theta = rng.normal(0.0, 0.5, bundle.m_latent)
            z_u = z0s[rng.choice(len(z0s), n_rows, replace=False)]
            x_c = rng.uniform(0.0, 1.0, (n_certain, bundle.d_in))
            value, grad = glam._recon_and_grad(bundle, z_u, x_c, theta)
            ref_value, ref_grad = tape_recon(bundle, z_u, x_c, theta)
            np.testing.assert_allclose(value, ref_value, rtol=RTOL, atol=0.0)
            np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=0.0)
