"""Constrained counterfactual search: projection, initialization schemes,
objective gradients, acceptance, and the class weighting rule."""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cluekit import clue, models


def test_project_to_ball_basics():
    z0 = np.zeros(3)
    far = np.array([3.0, 0.0, 0.0])
    proj = clue.project_to_ball(far, z0, 1.0)
    assert np.allclose(proj, [1.0, 0.0, 0.0])
    inside = np.array([0.2, 0.1, 0.0])
    assert np.array_equal(clue.project_to_ball(inside, z0, 1.0), inside)
    assert np.array_equal(clue.project_to_ball(far, z0, np.inf), far)


def test_project_to_ball_idempotent_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z0 = rng.standard_normal(5)
        z = z0 + rng.standard_normal(5) * 3.0
        delta = rng.uniform(0.1, 2.0)
        once = clue.project_to_ball(z, z0, delta)
        twice = clue.project_to_ball(once, z0, delta)
        assert np.array_equal(once, twice)


def test_project_to_ball_rescales_like_numpy_norm():
    """The clipped point is z0 + delta * (diff / np.linalg.norm(diff)) bit for bit."""
    rng = np.random.default_rng(4)
    clipped = 0
    for _ in range(200):
        m = int(rng.integers(1, 12))
        z0 = rng.standard_normal(m)
        z = z0 + rng.standard_normal(m) * rng.uniform(0.1, 5.0)
        delta = rng.uniform(0.05, 3.0)
        diff = z - z0
        norm = np.linalg.norm(diff)
        proj = clue.project_to_ball(z, z0, delta)
        if norm <= delta * (1.0 + 1e-12):
            assert proj is z
        else:
            clipped += 1
            assert np.array_equal(proj, z0 + delta * (diff / norm))
    assert clipped > 50


NORM_VECTORS = {  # case -> a 1-D difference d
    "random8": np.random.default_rng(6).standard_normal(8),
    "random64": np.random.default_rng(7).standard_normal(64),
    "subnormal": np.array([5e-324, -3e-310, 2.5e-320]),  # the squares underflow to 0
    "subnormal_and_one": np.array([1e-300, 5e-324, 1.0]),
    "overflow": np.array([1e200, -1e200, 3.0]),  # the squares overflow to inf
    "inf": np.array([1.0, -np.inf, 2.0]),
    "nan": np.array([np.nan, 1.0, 2.0]),
}


@pytest.mark.parametrize("case", list(NORM_VECTORS))
def test_vector_norm_is_numpy_norm_bit_for_bit(tiny_bundle, case):
    """math.sqrt(d.dot(d)), the norm of _score's rho, project_to_ball and
    _s5_ways, is np.linalg.norm(d) byte for byte; _score refuses a
    non-finite rho."""
    d = NORM_VECTORS[case]
    with np.errstate(over="ignore", invalid="ignore"):
        assert (np.float64(math.sqrt(d.dot(d))).tobytes()
                == np.float64(np.linalg.norm(d)).tobytes())
        ds, bundle = tiny_bundle
        x0, z0, _ = clue._setup(ds.train_inputs()[0], bundle)
        x, rho = models.decode(bundle, z0), np.linalg.norm(d)  # rho reads z alone
        if not math.isfinite(rho):
            with pytest.raises(FloatingPointError, match=f"latent distance to z0 is {rho}"):
                clue._score(d, x, x0, np.zeros_like(d), bundle, 0.0)
            return
    c = clue._score(d, x, x0, np.zeros_like(d), bundle, 0.0)
    assert type(c.rho) is float and np.float64(c.rho).tobytes() == rho.tobytes()


def test_softmax_leaves_its_input_unchanged():
    v = np.random.default_rng(5).standard_normal((3, 2, 4))
    before = v.copy()
    s = models._softmax(v)
    assert np.array_equal(v, before)
    assert np.allclose(s.sum(axis=-1), 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        clue.ExperimentConfig(delta=-1.0)
    with pytest.raises(ValueError):
        clue.ExperimentConfig(k=0)
    with pytest.raises(ValueError):
        clue.ExperimentConfig(iters=0)
    with pytest.raises(ValueError):
        clue.ExperimentConfig(lambda_x=-0.5)


@pytest.mark.parametrize("field", ["lambda_x", "lambda_y", "lambda_d", "lr", "r"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        clue.ExperimentConfig(**{field: value})


@pytest.mark.parametrize("lr", [0.0, -1.0])
def test_config_rejects_non_positive_lr(lr):
    with pytest.raises(ValueError, match="lr must be > 0"):
        clue.ExperimentConfig(lr=lr)


def test_config_rejects_nan_threshold():
    with pytest.raises(ValueError, match="h_threshold"):
        clue.ExperimentConfig(h_threshold=float("nan"))
    clue.ExperimentConfig(h_threshold=float("inf"))  # accept everything


@pytest.mark.parametrize("field,bound", [("k", 1_000), ("iters", 100_000), ("n_i", 100_000)])
def test_config_bounds_the_counts_above(field, bound):
    clue.ExperimentConfig(**{field: bound})
    with pytest.raises(ValueError, match=f"{field} must be <= {bound}, got {10 ** 12}"):
        clue.ExperimentConfig(**{field: 10 ** 12})


@pytest.mark.parametrize("field,value", [("k", 2.5), ("iters", 2.5), ("n_i", 1.5),
                                         ("seed", 1.5), ("k", True), ("seed", "3")])
def test_config_rejects_non_int_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        clue.ExperimentConfig(**{field: value})


@pytest.mark.parametrize("field", ["delta", "r", "lambda_x", "lambda_y", "lambda_d", "lr",
                                   "h_threshold"])
@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
def test_config_rejects_non_real_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        clue.ExperimentConfig(**{field: value})


def test_config_accepts_int_and_numpy_reals():
    config = clue.ExperimentConfig(delta=2, r=1, lambda_x=np.float64(0.5), lr=1,
                                   h_threshold=np.float32(0.25))
    assert config.delta == 2 and config.lambda_x == 0.5


@pytest.mark.parametrize("scheme", ["s9", "s0", "S1", ""])
def test_config_rejects_unknown_scheme(scheme):
    # make_starts has no unknown-scheme branch, so the config must catch it
    with pytest.raises(ValueError, match="unknown scheme"):
        clue.ExperimentConfig(scheme=scheme, r=0.0)


def test_objective_matches_finite_differences(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[0]
    z0 = models.encode(bundle, x0)
    label = models.argmax_label(models.predict(bundle, x0))
    step = 1e-5
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = z0 + 0.5 * rng.standard_normal(len(z0))
        _, grad = clue.objective(z, x0, bundle, 0.1, 0.1, label)
        numeric = np.zeros_like(z)
        for i in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[i] += step
            zm[i] -= step
            vp, _ = clue.objective(zp, x0, bundle, 0.1, 0.1, label)
            vm, _ = clue.objective(zm, x0, bundle, 0.1, 0.1, label)
            numeric[i] = (vp - vm) / (2 * step)
        denom = np.maximum(np.abs(numeric), 1e-3)
        assert np.max(np.abs(grad - numeric) / denom) < 1e-4


def test_s1_mean_radius_near_half_r():
    z0 = np.zeros(6)
    r = 2.0
    radii = [np.linalg.norm(clue._random_start("s1", z0, r, clue.candidate_rng(0, i)) - z0)
             for i in range(4000)]
    assert np.all(np.array(radii) <= r + 1e-12)
    assert abs(np.mean(radii) - r / 2) < 0.05


def test_s3_s4_stay_inside_radius():
    z0 = np.zeros(4)
    for scheme in ("s3", "s4"):
        for i in range(500):
            z = clue._random_start(scheme, z0, 1.5, clue.candidate_rng(1, i))
            assert np.linalg.norm(z - z0) <= 1.5 + 1e-12


TWO_CLASSES = SimpleNamespace(c_classes=2)  # all that s2 reads of a bundle


def _s2_config(k, delta=1.0, r=1.0):
    return clue.ExperimentConfig(scheme="s2", k=k, r=r, delta=delta)


def test_zero_radius_returns_center():
    z0 = np.array([1.0, -2.0, 0.5])
    for scheme in ("s1", "s2", "s3", "s4", "s5"):
        # at r=0 no start data is read: s2 needs no context here
        (z,) = clue.make_starts(z0, clue.ExperimentConfig(scheme=scheme, r=0.0), TWO_CLASSES)
        assert np.array_equal(z, z0)


def test_s2_errors_on_missing_class():
    ctx = clue.InitContext(certain_latents=np.zeros((3, 2)), certain_labels=np.array([0, 0, 0]))
    with pytest.raises(ValueError, match="class 1"):
        clue.make_starts(np.zeros(2), _s2_config(k=2), TWO_CLASSES, ctx)


def test_s2_walks_toward_nearest_certain_latent():
    ctx = clue.InitContext(certain_latents=np.array([[2.0, 0.0], [0.0, 5.0]]),
                           certain_labels=np.array([0, 1]))
    z0 = np.zeros(2)
    # i=0 -> class 0, j=1, npaths=1: full delta along the unit direction
    z = clue.make_starts(z0, _s2_config(k=2), TWO_CLASSES, ctx)[0]
    assert np.allclose(z, [1.0, 0.0])


@pytest.mark.parametrize("delta", [np.inf, 0.8])
def test_s2_at_k_past_the_class_count_gives_the_closed_form_points(delta):
    """k=7 on 3 classes: start i lies at fraction j / npaths = (i // 3 + 1) / 2
    of the way to class i mod 3's nearest certain latent, 3 / 2 for i = 6. At
    delta=inf the way's length is r, and nothing projects a point back."""
    latents = np.array([[2.0, 0.0], [5.0, 1.0], [0.0, -3.0], [-1.0, 4.0], [0.5, 0.5]])
    ctx = clue.InitContext(certain_latents=latents, certain_labels=np.array([0, 0, 1, 2, 2]))
    z0, r = np.array([0.2, -0.1]), 1.0
    reach = delta if np.isfinite(delta) else r
    starts = clue.make_starts(z0, _s2_config(k=7, delta=delta, r=r),
                              SimpleNamespace(c_classes=3), ctx)
    nearest = [latents[0], latents[2], latents[4]]
    for i, z in enumerate(starts):
        zy, j = nearest[i % 3], i // 3 + 1
        want = z0 + reach * (j / 2) * (zy - z0) / float(np.linalg.norm(zy - z0))
        assert np.array_equal(z, clue.project_to_ball(want, z0, delta)), i
    if delta == np.inf:
        assert np.isclose(np.linalg.norm(starts[6] - z0), 1.5 * r)


def test_s2_and_s5_name_the_start_data_they_lack(tiny_bundle):
    # s5 reads only the bundle, which make_starts always takes
    _, bundle = tiny_bundle
    with pytest.raises(ValueError, match="scheme s2 needs an InitContext"):
        clue.make_starts(np.zeros(bundle.m_latent), _s2_config(k=2), bundle)


def test_s5_points_respect_delta(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[0]
    z0 = models.encode(bundle, x0)
    # k=6 on 3 classes reads each way at fractions 1/2 and 1, before projection
    for way in clue._s5_ways(z0, 3, 1.0, bundle):
        for f in (0.5, 1.0):
            assert np.linalg.norm(way(f) - z0) <= 1.0 + 1e-9


def test_candidate_rng_is_order_independent():
    a = clue.candidate_rng(7, 3).standard_normal(4)
    clue.candidate_rng(7, 0).standard_normal(100)  # unrelated draws in between
    b = clue.candidate_rng(7, 3).standard_normal(4)
    assert np.array_equal(a, b)


def test_constraints_hold_along_trajectories(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[2]
    config = clue.ExperimentConfig(delta=0.8, k=4, r=0.8, scheme="s1",
                                   lambda_x=0.05, lr=0.5, iters=20, seed=2)
    ceset = clue.delta_clue(x0, bundle, config, trace=True)
    for c in ceset.candidates:
        assert c.rho <= config.delta + 1e-6
        for point in c.trajectory:
            assert np.linalg.norm(point - ceset.z0) <= config.delta + 1e-6


def test_unconstrained_collapse_single_start(tiny_bundle):
    """delta=inf, r=0, k=1 starts exactly at z0 and never projects."""
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[3]
    config = clue.ExperimentConfig(delta=np.inf, k=1, r=0.0, scheme="s1",
                                   lr=0.3, iters=15, seed=0)
    ceset = clue.delta_clue(x0, bundle, config, trace=True)
    assert len(ceset.candidates) == 1
    assert np.array_equal(ceset.candidates[0].trajectory[0], ceset.z0)


def test_candidate_fields_consistent(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[4]
    config = clue.ExperimentConfig(delta=1.0, k=3, r=1.0, scheme="s1",
                                   lambda_x=0.2, lambda_y=0.1, lr=0.3,
                                   iters=10, seed=1)
    ceset = clue.delta_clue(x0, bundle, config)
    for c in ceset.candidates:
        assert np.array_equal(c.x, models.decode(bundle, c.z))
        recomputed = c.entropy + 0.2 * c.d_x + 0.1 * c.d_y
        assert abs(recomputed - c.cost) < 1e-12
        assert c.label == models.argmax_label(c.posterior)


def test_acceptance_threshold(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[5]
    config = clue.ExperimentConfig(delta=1.0, k=3, r=1.0, scheme="s1",
                                   lr=0.3, iters=5, seed=1, h_threshold=-1.0)
    ceset = clue.delta_clue(x0, bundle, config)
    assert ceset.accepted() == []
    config = clue.ExperimentConfig(delta=1.0, k=3, r=1.0, scheme="s1",
                                   lr=0.3, iters=5, seed=1, h_threshold=np.inf)
    ceset = clue.delta_clue(x0, bundle, config)
    assert len(ceset.accepted()) == 3


def _reference_delta_clue(x0, bundle, config):
    """delta_clue as k independent loops of objective, projection and
    candidate scoring, one point after the other, each end point decoded alone."""
    z0 = models.encode(bundle, x0)
    label = models.argmax_label(models.predict(bundle, x0))
    candidates = []
    for i, z in enumerate(clue.make_starts(z0, config, bundle)):
        trajectory = [z]
        for _ in range(config.iters):
            _, grad = clue.objective(z, x0, bundle, config.lambda_x, config.lambda_y, label)
            z = clue.project_to_ball(z - config.lr * grad, z0, config.delta)
            trajectory.append(z)
        candidates.append(clue._score(z, models.decode(bundle, z), x0, z0, bundle,
                                      config.lambda_x, config.lambda_y, label,
                                      config.h_threshold, i, np.stack(trajectory)))
    return candidates


@pytest.mark.parametrize("scheme", ["s1", "s5"])
@pytest.mark.parametrize("delta", [0.7, np.inf])
@pytest.mark.parametrize("lambda_x, lambda_y", [(0.05, 0.0), (0.0, 0.2), (0.05, 0.2)])
def test_delta_clue_matches_reference_loop(tiny_bundle, scheme, delta, lambda_x, lambda_y):
    ds, bundle = tiny_bundle
    x0 = ds.test_inputs()[1]
    config = clue.ExperimentConfig(delta=delta, k=3, r=0.7, scheme=scheme, lambda_x=lambda_x,
                                   lambda_y=lambda_y, lr=0.4, iters=12, seed=3)
    ceset = clue.delta_clue(x0, bundle, config, trace=True)  # s5 needs only the bundle
    reference = _reference_delta_clue(x0, bundle, config)
    assert len(ceset.candidates) == len(reference) == config.k
    for ours, ref in zip(ceset.candidates, reference):
        for field in ("z", "x", "trajectory"):
            assert np.array_equal(getattr(ours, field), getattr(ref, field)), field
        assert ours.cost == ref.cost


def test_label_distribution_inverse_square_rule(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[0]
    config = clue.ExperimentConfig(delta=1.0, k=2, r=1.0, seed=0)
    fake = clue.CESet(candidates=[], config=config, x0=x0,
                      z0=models.encode(bundle, x0))

    def cand(cost, label):
        return clue.CandidateCE(z=np.zeros(3), x=x0, posterior=np.ones(3) / 3,
                                entropy=0.0, d_x=0.0, d_y=0.0, rho=0.0,
                                cost=cost, label=label, accepted=True,
                                start_index=0)

    fake.candidates = [cand(1.0, 0), cand(2.0, 1)]
    fake.config = clue.ExperimentConfig(delta=1.0, k=2, r=1.0, seed=0)
    weights = clue.label_distribution(fake)
    assert np.allclose(weights[:2], [0.8, 0.2])
    fake.candidates = [cand(0.0, 1), cand(2.0, 0)]
    weights = clue.label_distribution(fake)
    assert np.allclose(weights[:2], [0.0, 1.0])
    # a cost whose square underflows to 0 takes all the mass, as a cost of 0 does
    fake.candidates = [cand(1e-170, 2), cand(0.5, 0)]
    assert clue.label_distribution(fake).tolist() == [0.0, 0.0, 1.0]
    fake.candidates = []
    with pytest.raises(ValueError):
        clue.label_distribution(fake)


def test_label_distribution_matches_recomputation(tiny_bundle):
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[6]
    config = clue.ExperimentConfig(delta=1.2, k=5, r=1.2, scheme="s1",
                                   lambda_x=0.05, lr=0.3, iters=15, seed=4)
    ceset = clue.delta_clue(x0, bundle, config)
    weights = clue.label_distribution(ceset)
    best = {}
    for c in ceset.accepted():
        best[c.label] = min(best.get(c.label, np.inf), c.cost)
    raw = np.zeros(bundle.c_classes)
    for lab, cost in best.items():
        raw[lab] = 1.0 / cost**2 if cost > 0 else np.inf
    if np.any(np.isinf(raw)):
        expected = np.where(np.isinf(raw), 1.0, 0.0)
        expected /= expected.sum()
    else:
        expected = raw / raw.sum()
    assert np.allclose(weights, expected)


def test_diverged_search_raises(tiny_bundle):
    """A candidate at a non-finite latent distance from z0 raises, once per
    candidate, instead of being scored."""
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[0]
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="diverged"):
        clue.delta_clue(x0, bundle, clue.ExperimentConfig(lr=1e300))
    x0, z0, label = clue._setup(x0, bundle)
    with pytest.raises(FloatingPointError, match="candidate 2 diverged"):
        clue._ceset([z0, z0, np.full_like(z0, np.nan)], [None] * 3, x0, z0, bundle,
                    clue.ExperimentConfig(), label)


def test_ceset_json_roundtrip(tiny_bundle, tmp_path):
    """Every field comes back, arrays bit for bit, except the trajectory,
    which the file does not hold."""
    ds, bundle = tiny_bundle
    x0 = ds.train_inputs()[7]
    config = clue.ExperimentConfig(delta=1.0, k=2, r=1.0, scheme="s1",
                                   lr=0.3, iters=5, seed=6)
    ceset = clue.delta_clue(x0, bundle, config, trace=True)
    path = tmp_path / "ceset.json"
    clue.dump_ceset(ceset, str(path))
    loaded = clue.load_ceset(str(path))
    assert loaded.config == config
    for a, b in [(ceset.x0, loaded.x0), (ceset.z0, loaded.z0)]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert len(loaded.candidates) == len(ceset.candidates)
    for a, b in zip(ceset.candidates, loaded.candidates):
        assert a.trajectory is not None and b.trajectory is None
        for name in (f.name for f in dataclasses.fields(a) if f.name != "trajectory"):
            va, vb = getattr(a, name), getattr(b, name)
            if isinstance(va, np.ndarray):
                assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes(), name
            else:
                assert type(va) is type(vb) and va == vb, name


def test_ceset_writes_infinite_settings_as_strings(tiny_bundle, tmp_path):
    """A ceset file is strict JSON: inf and -inf settings are the strings
    "inf" and "-inf", and read back as floats, as a bare Infinity of older
    files still does."""
    ds, bundle = tiny_bundle
    config = clue.ExperimentConfig(h_threshold=-math.inf, iters=2)
    path = tmp_path / "ceset.json"
    clue.dump_ceset(clue.delta_clue(ds.train_inputs()[0], bundle, config), str(path))

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    payload = json.loads(path.read_text(), parse_constant=refuse)
    assert (payload["config"]["delta"], payload["config"]["h_threshold"]) == ("inf", "-inf")
    assert clue.load_ceset(str(path)).config == config
    payload["config"].update(delta=math.inf, h_threshold=-math.inf)
    path.write_text(json.dumps(payload))
    assert "Infinity" in path.read_text()
    assert clue.load_ceset(str(path)).config == config
    payload["config"]["r"] = "inf"  # a finite setting takes no string
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="r must be a number, got 'inf'"):
        clue.load_ceset(str(path))


def test_a_candidate_of_non_finite_cost_raises(tiny_bundle):
    ds, bundle = tiny_bundle
    x0, z0, label = clue._setup(ds.train_inputs()[0], bundle)
    with pytest.raises(FloatingPointError, match="candidate 1's cost is inf"):
        clue._score(z0, models.decode(bundle, z0), x0 + 5.0, z0, bundle, 1e308, 0.0, label,
                    start_index=1)


ENTRY_VALUES = {"label_string": ("label", "x"), "cost_string": ("cost", "high"),
                "accepted_number": ("accepted", 1),  # edit -> (field, value)
                # arrays: x0 and z0 are the ceset's, the others its candidate's
                "x0_strings": ("x0", ["a"] * 4), "z0_infinite": ("z0", [math.inf, 0.0, 0.0]),
                "z_strings": ("z", ["a"] * 3), "x_booleans": ("x", [True] * 4),
                "x_nested": ("x", [[0.5] * 4]), "posterior_nan": ("posterior", [math.nan, 1.0]),
                "z_huge_int": ("z", [10 ** 400, 0, 0])}


@pytest.mark.parametrize("edit", ["missing_z", "missing_rho", "unknown_key", "trajectory"]
                         + list(ENTRY_VALUES))
def test_ceset_entry_with_a_missing_or_unknown_field_is_malformed(tmp_path, edit):
    entry = {"z": [0.0] * 3, "x": [0.5] * 4, "posterior": [1.0, 0.0], "entropy": 0.0,
             "d_x": 0.0, "d_y": 0.0, "rho": 0.0, "cost": 0.0, "label": 0,
             "accepted": True, "start_index": 0}
    payload = {"config": {}, "x0": [0.5] * 4, "z0": [0.0] * 3, "candidates": [entry]}
    if edit.startswith("missing_"):
        del entry[edit[len("missing_"):]]
    elif edit in ENTRY_VALUES:
        field, value = ENTRY_VALUES[edit]
        (payload if field in payload else entry)[field] = value
    else:
        entry[edit] = [[0.0] * 3]
    path = tmp_path / "ceset.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="malformed") as info:
        clue.load_ceset(str(path))
    assert str(path) in str(info.value)


