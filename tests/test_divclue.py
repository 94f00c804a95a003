"""Diversity-regularized variants: collapse identities, repulsion behavior,
pre-search, and the uncertainty cost of diversity."""

import numpy as np
import pytest

from cluekit import clue, divclue, diversity as div, models


def _config(**kw):
    base = dict(delta=1.2, k=3, r=1.2, scheme="s1", lambda_x=0.05,
                lr=0.3, iters=15, seed=4)
    base.update(kw)
    return clue.ExperimentConfig(**base)


SPEC = div.DiversitySpec(metric="dpp", space="latent")


def _candidate(z, x0, z0, bundle, config, i, x0_label):
    """The reference loops' candidate: the end point ``z`` decoded alone and scored."""
    return clue._score(z, models.decode(bundle, z), x0, z0, bundle, config.lambda_x,
                       config.lambda_y, x0_label, config.h_threshold, i)


def _report(record):
    """The metric report of a run's set: {(metric, space): value}."""
    return {(m, s): v for m, s, _k, v in div.metric_report_rows(record.ceset)}


def _assert_cesets_bitwise_equal(a, b):
    assert len(a.candidates) == len(b.candidates)
    for ca, cb in zip(a.candidates, b.candidates):
        assert np.array_equal(ca.z, cb.z)
        assert np.array_equal(ca.x, cb.x)
        assert ca.cost == cb.cost
        assert ca.entropy == cb.entropy


def test_simultaneous_lambda0_is_bitwise_delta_clue(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[0]
    config = _config(lambda_d=0.0)
    record = divclue.nabla_clue_simultaneous(x0, bundle, config, SPEC)
    plain = clue.delta_clue(x0, bundle, config)
    _assert_cesets_bitwise_equal(record.ceset, plain)


def test_sequential_lambda0_is_bitwise_delta_clue(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[1]
    config = _config(lambda_d=0.0)
    record = divclue.nabla_clue_sequential(x0, bundle, config, SPEC)
    plain = clue.delta_clue(x0, bundle, config)
    _assert_cesets_bitwise_equal(record.ceset, plain)


def test_penalty_lambda0_is_bitwise_delta_clue(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[2]
    config = _config(lambda_d=0.0)
    record = divclue.nabla_clue_penalty(x0, bundle, config)
    plain = clue.delta_clue(x0, bundle, config)
    _assert_cesets_bitwise_equal(record.ceset, plain)


def test_constraints_hold_for_all_variants(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[3]
    config = _config(lambda_d=0.5)
    for run in (
        divclue.nabla_clue_simultaneous(x0, bundle, config, SPEC, trace=True),
        divclue.nabla_clue_sequential(x0, bundle, config, SPEC),
        divclue.nabla_clue_penalty(x0, bundle, config),
    ):
        for c in run.ceset.candidates:
            assert c.rho <= config.delta + 1e-6
            for point in [] if c.trajectory is None else c.trajectory:
                assert np.linalg.norm(point - run.ceset.z0) <= config.delta + 1e-6


def test_joint_loss_length_and_metrics_table(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[4]
    config = _config(lambda_d=0.3)
    record = divclue.nabla_clue_simultaneous(x0, bundle, config, SPEC)
    assert len(record.joint_loss) == config.iters
    metrics = set(_report(record))
    for m in div.ALL_METRICS:
        assert any(key[0] == m for key in metrics)


@pytest.mark.parametrize("n_i", [0, 3])
def test_no_search_computes_the_metric_report(tiny_bundle, monkeypatch, n_i):
    """The report scores a finished set for whoever reads it: no variant,
    with or without pre-search, calls it."""
    def report(ceset):
        raise AssertionError("a search computed the metric report")

    monkeypatch.setattr(div, "metric_report_rows", report)
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[7]
    config = _config(lambda_d=0.5, n_i=n_i)
    for record in (divclue.nabla_clue_simultaneous(x0, bundle, config, SPEC),
                   divclue.nabla_clue_sequential(x0, bundle, config, SPEC),
                   divclue.nabla_clue_penalty(x0, bundle, config)):
        assert len(record.ceset.candidates) == config.k
        assert len(record.joint_loss) == config.iters


def test_diversity_weight_increases_spread(blobs, blobs_bundle):
    x0 = blobs.test_inputs()[2]
    config0 = _config(delta=2.0, r=2.0, k=4, lambda_d=0.0, iters=50, seed=5)
    config2 = _config(delta=2.0, r=2.0, k=4, lambda_d=2.0, iters=50, seed=5)
    r0 = divclue.nabla_clue_simultaneous(x0, blobs_bundle, config0, SPEC)
    r2 = divclue.nabla_clue_simultaneous(x0, blobs_bundle, config2, SPEC)
    dpp0 = _report(r0)[("dpp", "latent")]
    dpp2 = _report(r2)[("dpp", "latent")]
    assert dpp2 > dpp0


def test_diversity_costs_some_certainty(blobs, blobs_bundle):
    """Mean terminal entropy at lambda_d=2 exceeds the lambda_d=0 value."""
    x0 = blobs.test_inputs()[2]
    means = []
    for lam in (0.0, 2.0):
        config = _config(delta=2.0, r=2.0, k=4, lambda_d=lam, iters=50, seed=5)
        record = divclue.nabla_clue_simultaneous(x0, blobs_bundle, config, SPEC)
        means.append(np.mean([c.entropy for c in record.ceset.candidates]))
    assert means[1] > means[0]


def test_coincident_starts_are_rejected_unless_repelled(tiny_bundle):
    """At r = 0 all k >= 2 starts sit at z0: every search raises rather than
    give k copies of one candidate, except a sequential one at lambda_d > 0."""
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[0]
    config, repelled = _config(k=4, r=0.0, iters=3), _config(k=4, r=0.0, iters=3, lambda_d=0.5)
    for search in (lambda: clue.delta_clue(x0, bundle, config),
                   lambda: divclue.nabla_clue_simultaneous(x0, bundle, repelled, SPEC),
                   lambda: divclue.nabla_clue_sequential(x0, bundle, config, SPEC),
                   lambda: divclue.nabla_clue_penalty(x0, bundle, config)):
        with pytest.raises(ValueError, match="need r > 0"):
            search()
    for record in (divclue.nabla_clue_sequential(x0, bundle, repelled, SPEC),
                   divclue.nabla_clue_penalty(x0, bundle, repelled)):
        assert len({c.z.tobytes() for c in record.ceset.candidates}) == 4


def test_penalty_clamp_value():
    z = np.zeros(3)
    found = [np.zeros(3)]
    val, grad = divclue._penalty(z, found, lambda_d=2.0)
    assert val == 2.0 / divclue.PENALTY_EPS
    assert np.isfinite(val)
    assert np.array_equal(grad, np.zeros(3))


def test_penalty_diversity_saturates_in_lambda(tiny_bundle):
    """The inverse-distance repulsion stops buying diversity almost
    immediately: raising the weight 4x past a small value adds nearly
    nothing, unlike optimizing a diversity metric directly."""
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[5]
    values = {}
    for lam in (0.0, 0.5, 2.0):
        config = _config(delta=1.5, r=1.5, k=4, lambda_d=lam, iters=30, seed=3)
        record = divclue.nabla_clue_penalty(x0, bundle, config)
        values[lam] = _report(record)[("dpp", "latent")]
    first_gain = values[0.5] - values[0.0]
    later_gain = values[2.0] - values[0.5]
    assert later_gain < 0.05
    assert later_gain < first_gain


def test_presearch_identity_at_zero_steps(tiny_bundle):
    _, bundle = tiny_bundle
    rng = np.random.default_rng(0)
    z0 = np.zeros(bundle.m_latent)
    starts = [z0 + 0.3 * rng.standard_normal(bundle.m_latent) for _ in range(3)]
    out = divclue.diversity_presearch(starts, SPEC, 0, 1.0, z0, bundle=bundle)
    for a, b in zip(starts, out):
        assert np.array_equal(a, b)


def test_presearch_increases_diversity(tiny_bundle):
    _, bundle = tiny_bundle
    rng = np.random.default_rng(1)
    z0 = np.zeros(bundle.m_latent)
    starts = [z0 + 0.1 * rng.standard_normal(bundle.m_latent) for _ in range(3)]
    before = div.dpp(np.stack(starts))
    for n_i in (1, 5, 10):
        out = divclue.diversity_presearch(starts, SPEC, n_i, 1.0, z0, bundle=bundle)
        after = div.dpp(np.stack(out))
        assert after >= before - 1e-12
        for z in out:
            assert np.linalg.norm(z - z0) <= 1.0 + 1e-9


def test_presearch_pushes_two_points_apart(tiny_bundle):
    """k=2 with many ascent steps approaches antipodal positions on the sphere."""
    _, bundle = tiny_bundle
    z0 = np.zeros(bundle.m_latent)
    rng = np.random.default_rng(2)
    starts = [z0 + 0.05 * rng.standard_normal(bundle.m_latent) for _ in range(2)]
    dists = []
    for n_i in (0, 2, 5, 10, 30, 60):
        out = divclue.diversity_presearch(starts, SPEC, n_i, 1.0, z0, bundle=bundle)
        dists.append(np.linalg.norm(out[0] - out[1]))
    assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))
    assert dists[-1] > 1.9  # close to the antipodal distance 2r


def test_presearch_rejects_label_metrics(tiny_bundle):
    _, bundle = tiny_bundle
    spec = div.DiversitySpec(metric="distinct_labels")
    with pytest.raises(ValueError, match="differentiable"):
        divclue.diversity_presearch([np.zeros(3)], spec, 5, 1.0, np.zeros(3),
                                    bundle=bundle)


def test_diversity_gradient_in_input_space_matches_fd(tiny_bundle):
    """divclue._diversity decodes the free latents, stacks them under found
    rows that are already in input space, and differentiates the metric;
    its gradient w.r.t. the free latents matches central differences."""
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[0]
    rng = np.random.default_rng(23)
    h = 1e-5
    for t in range(15):
        spec = div.DiversitySpec(metric=div.DIFFERENTIABLE_METRICS[t % 3], space="input")
        free = rng.normal(0.0, 1.0, (int(rng.integers(1, 3)), bundle.m_latent))
        found = rng.uniform(0.0, 1.0, (int(rng.integers(1, 3)), bundle.d_in))

        def value(zs):
            return divclue._diversity(spec, bundle, None, x0, list(zs), found)[0]

        _, grads = divclue._diversity(spec, bundle, None, x0, list(free), found)
        fd = np.zeros_like(free)
        for idx in np.ndindex(free.shape):
            bump = np.zeros_like(free)
            bump[idx] = h
            fd[idx] = (value(free + bump) - value(free - bump)) / (2.0 * h)
        assert np.all(np.abs(np.stack(grads) - fd) <= 1e-4 * np.abs(fd) + 1e-7)


def test_sequential_spreads_candidates(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[6]
    apds = []
    for lam in (0.0, 2.0):
        config = _config(delta=1.5, r=1.5, k=4, lambda_d=lam, iters=30, seed=2)
        record = divclue.nabla_clue_sequential(x0, bundle, config, SPEC)
        apds.append(_report(record)[("apd", "latent")])
    assert apds[1] > apds[0]



# ---------------------------------------------------------------------------
# reference loops: the sequential and penalty descents written out in full,
# each with its own copy of the projected-gradient loop; the variants built
# on clue._descend must reproduce them bit for bit at lambda_d > 0. Their
# diversity term is divclue._diversity, so they pin the loops; the kernel
# itself is pinned to the tape in tests/test_kernel.py


def _ref_sequential_diversity_grad(found, z, spec, bundle, z0, x0):
    """D(found + {z}) and its z-gradient; found points are mapped into the
    spec's space here, at every step."""
    if spec.space == "latent":
        const = np.stack(found)
    else:
        const = np.stack([models.decode(bundle, f) for f in found])
    d_val, d_grads = divclue._diversity(spec, bundle, z0, x0, [z], const)
    return d_val, d_grads[0]


def _ref_sequential(x0, bundle, config, spec=None):
    """Greedy descents; repels by -lambda_d*D(found + {z}), or by the
    clamped inverse-distance sum when ``spec`` is None."""
    x0 = np.asarray(x0, dtype=np.float64)
    z0 = models.encode(bundle, x0)
    x0_label = models.argmax_label(models.predict(bundle, x0))
    found, trajs, curves = [], [], []
    for z in clue.make_starts(z0, config, bundle, sequential=True):
        traj = [z.copy()]
        curve = []
        for _ in range(config.iters):
            v, g = clue.objective(z, x0, bundle, config.lambda_x, config.lambda_y, x0_label)
            if config.lambda_d > 0.0 and found and spec is not None:
                d_val, d_grad = _ref_sequential_diversity_grad(found, z, spec, bundle, z0, x0)
                g = g - config.lambda_d * d_grad
                curve.append(v - config.lambda_d * d_val)
            elif config.lambda_d > 0.0 and found:
                pen = 0.0
                pen_g = np.zeros_like(z)
                for zf in found:
                    diff = z - zf
                    d = float(np.linalg.norm(diff))
                    if d > divclue.PENALTY_EPS:
                        pen += config.lambda_d / d
                        pen_g += -config.lambda_d / (d * d) * (diff / d)
                    else:
                        pen += config.lambda_d / divclue.PENALTY_EPS
                g = g + pen_g
                curve.append(v + pen)
            else:
                curve.append(v)
            z = clue.project_to_ball(z - config.lr * g, z0, config.delta)
            traj.append(z.copy())
        found.append(z)
        trajs.append(np.stack(traj))
        curves.append(curve)
    joint = [float(np.mean([c[i] for c in curves])) for i in range(config.iters)]
    return found, trajs, joint, z0, x0_label


@pytest.mark.parametrize("variant,space", [("sequential", "latent"),
                                           ("sequential", "input"),
                                           ("penalty", None)])
def test_sequential_variants_match_reference_loops(tiny_bundle, variant, space):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[8]
    config = _config(k=4, lambda_d=0.5)
    if variant == "sequential":
        spec = div.DiversitySpec(metric="dpp", space=space)
        record = divclue.nabla_clue_sequential(x0, bundle, config, spec, trace=True)
    else:
        spec = None
        record = divclue.nabla_clue_penalty(x0, bundle, config, trace=True)
    found, trajs, joint, z0, x0_label = _ref_sequential(x0, bundle, config, spec)
    assert record.joint_loss == joint
    assert len([c for c in record.ceset.candidates if c.trajectory is not None]) == config.k
    for i, (cand, z, traj) in enumerate(zip(record.ceset.candidates, found, trajs)):
        want = _candidate(z, x0, z0, bundle, config, i, x0_label)
        assert np.array_equal(cand.z, z)
        assert np.array_equal(cand.x, want.x)
        assert cand.cost == want.cost
        assert np.array_equal(cand.trajectory, traj)


@pytest.mark.parametrize("space", ["latent", "input"])
def test_sequential_dpp_factors_each_found_set_once(tiny_bundle, monkeypatch, space):
    """k = 4 descents factor the 3 found sets, one per descent, and every
    step adds its row to that factor: the full kernel is never called."""
    ds, bundle = tiny_bundle
    calls = {"_dpp_factor": 0, "value_and_grad": 0}
    for name in calls:
        def counted(*args, _fn=getattr(div, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(div, name, counted)
    spec = div.DiversitySpec(metric="dpp", space=space)
    divclue.nabla_clue_sequential(ds.train_inputs()[8], bundle, _config(k=4, lambda_d=0.5), spec)
    assert calls == {"_dpp_factor": 3, "value_and_grad": 0}


def _ref_simultaneous(x0, bundle, config, spec):
    """Lockstep descent of all k latents with the joint diversity reward,
    pre-search first when n_i > 0."""
    x0 = np.asarray(x0, dtype=np.float64)
    z0 = models.encode(bundle, x0)
    x0_label = models.argmax_label(models.predict(bundle, x0))
    zs = clue.make_starts(z0, config, bundle)
    if config.n_i > 0:
        zs = divclue.diversity_presearch(zs, spec, config.n_i, config.r, z0,
                                         bundle=bundle, x0=x0)
        zs = [clue.project_to_ball(z, z0, config.delta) for z in zs]
    trajs = [[z.copy()] for z in zs]
    loss_curve = []
    for _ in range(config.iters):
        vals, grads = [], []
        for z in zs:
            v, g = clue.objective(z, x0, bundle, config.lambda_x, config.lambda_y, x0_label)
            vals.append(v)
            grads.append(g)
        if config.lambda_d > 0.0 and config.k > 1:
            d_val, d_grads = divclue._diversity(spec, bundle, z0, x0, zs)
            scale = config.lambda_d * config.k
            grads = [g - scale * dg for g, dg in zip(grads, d_grads)]
            loss_curve.append(-config.lambda_d * d_val + float(np.mean(vals)))
        else:
            loss_curve.append(float(np.mean(vals)))
        zs = [clue.project_to_ball(z - config.lr * g, z0, config.delta)
              for z, g in zip(zs, grads)]
        for t, z in zip(trajs, zs):
            t.append(z.copy())
    return zs, [np.stack(t) for t in trajs], loss_curve, z0, x0_label


def _ref_s5_start(bundle, z0, i, config):
    """Start i of an s5 search as its own loop: normalized ascent steps on
    p(class y | decode(z)) out to the ball's radius, read at arc-length
    fraction j/npaths of the path and projected into the ball."""
    c, n_steps, delta = bundle.c_classes, 40, config.delta
    y, j, npaths = i % c, i // c + 1, max(config.k // c, 1)
    path, z = [z0], z0
    for _ in range(n_steps):
        x, decoder_grad = models._decode_with_grad(bundle, z)
        _, posterior_grad = models._posterior_with_grad(bundle, x)
        g = decoder_grad(posterior_grad(np.eye(c)[y]))
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        z = z + delta / n_steps * (g / gn)
        if np.linalg.norm(z - z0) > delta:
            path.append(clue.project_to_ball(z, z0, delta))
            break
        path.append(z)
    idx = min(j / npaths, 1.0) * (len(path) - 1)
    lo = int(idx)
    t, hi = idx - lo, min(lo + 1, len(path) - 1)
    return clue.project_to_ball((1.0 - t) * path[lo] + t * path[hi], z0, delta)


def test_s5_walks_each_class_path_once(blobs, blobs_bundle, monkeypatch):
    """k=8 on 4 classes: two starts share each class's ascent path, which is
    walked once, so the starts take at most S5_STEPS * min(k, c') decoder
    steps; each start equals the reference walk's bit for bit."""
    z0 = models.encode(blobs_bundle, blobs.train_inputs()[0])
    config = _config(k=8, scheme="s5")
    calls, decode_with_grad = [], models._decode_with_grad

    def counted(*args):
        calls.append(1)
        return decode_with_grad(*args)

    monkeypatch.setattr(models, "_decode_with_grad", counted)
    starts = clue.make_starts(z0, config, blobs_bundle)
    assert blobs_bundle.c_classes == 4
    assert len(calls) <= clue.S5_STEPS * min(config.k, blobs_bundle.c_classes)
    monkeypatch.setattr(models, "_decode_with_grad", decode_with_grad)
    for i, z in enumerate(starts):
        assert np.array_equal(z, _ref_s5_start(blobs_bundle, z0, i, config)), i


@pytest.mark.parametrize("k", [1, 4, 7])
def test_each_search_decodes_its_end_points_in_one_call(tiny_bundle, k):
    """Every search decodes its k end points in one ``models.decode`` call, and
    a sequential dpp search in input space its found points once per descent
    that has some: k decodes in all. The s5 walk and the steps count none."""
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[8]
    config = _config(k=k, lambda_d=0.5, scheme="s5")
    spec = div.DiversitySpec(metric="dpp", space="input")
    for search, decodes in ((lambda: clue.delta_clue(x0, bundle, config), 1),
                            (lambda: divclue.nabla_clue_simultaneous(x0, bundle, config, spec), 1),
                            (lambda: divclue.nabla_clue_penalty(x0, bundle, config), 1),
                            (lambda: divclue.nabla_clue_sequential(x0, bundle, config, spec), k)):
        models.reset_eval_counts()
        search()
        assert models.EVAL_COUNTS == {"encode": 1, "decode": decodes, "predict": 1 + k}


@pytest.mark.parametrize("k", [1, 4, 8, 9])
def test_sequential_joint_loss_is_the_per_step_mean(tiny_bundle, monkeypatch, k):
    """The joint curve, averaged in one call, is each step's mean over the k
    descents' curves as a 1-D mean gives it, bit for bit."""
    ds, bundle = tiny_bundle
    descend, curves = divclue._descend, []

    def recording_descend(*args):
        zs, trajs, curve = descend(*args)
        curves.append(curve)
        return zs, trajs, curve

    monkeypatch.setattr(divclue, "_descend", recording_descend)
    config = _config(k=k, lambda_d=0.5)
    record = divclue.nabla_clue_penalty(ds.train_inputs()[8], bundle, config)
    assert len(curves) == k
    assert record.joint_loss == [float(np.mean([c[i] for c in curves]))
                                 for i in range(config.iters)]


@pytest.mark.parametrize("search", ["delta_clue", "nabla_clue_simultaneous"])
def test_s5_runs_from_the_bundle_alone(tiny_bundle, search):
    """With r > 0 and no InitContext, s5 walks from the bundle the search
    takes; the starts equal the reference walk's bit for bit."""
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[9]
    config = _config(k=4, lambda_d=0.5, scheme="s5")
    if search == "delta_clue":
        ceset = clue.delta_clue(x0, bundle, config, trace=True)
    else:
        spec = div.DiversitySpec(metric="dpp", space="input")
        ceset = divclue.nabla_clue_simultaneous(x0, bundle, config, spec, trace=True).ceset
        zs, _, _, _, _ = _ref_simultaneous(x0, bundle, config, spec)
        assert all(np.array_equal(c.z, z) for c, z in zip(ceset.candidates, zs))
    for i, cand in enumerate(ceset.candidates):
        assert np.array_equal(cand.trajectory[0], _ref_s5_start(bundle, ceset.z0, i, config))


@pytest.mark.parametrize("space", ["latent", "input"])
@pytest.mark.parametrize("n_i", [0, 3])
def test_simultaneous_matches_reference_loop(tiny_bundle, space, n_i):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[9]
    config = _config(k=4, lambda_d=0.5, n_i=n_i)
    spec = div.DiversitySpec(metric="dpp", space=space)
    record = divclue.nabla_clue_simultaneous(x0, bundle, config, spec, trace=True)
    zs, trajs, joint, z0, x0_label = _ref_simultaneous(x0, bundle, config, spec)
    assert record.joint_loss == joint
    want = [_candidate(z, x0, z0, bundle, config, i, x0_label) for i, z in enumerate(zs)]
    for cand, w, traj in zip(record.ceset.candidates, want, trajs):
        assert np.array_equal(cand.z, w.z)
        assert np.array_equal(cand.x, w.x)
        assert cand.cost == w.cost
        assert np.array_equal(cand.trajectory, traj)
    ref = clue.CESet(candidates=want, config=config, x0=x0, z0=z0)
    assert div.metric_report_rows(record.ceset) == div.metric_report_rows(ref)
