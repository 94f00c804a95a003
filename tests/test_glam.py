"""Amortized translation mappers: planted-translation recovery, the
regularization limit, baselines, and the comparison harness."""

import dataclasses
import json

import numpy as np
import pytest

from cluekit import clue, data, glam, models


@pytest.fixture(scope="module")
def planted(blobs, blobs_bundle):
    x_u = blobs.train_inputs()[:40]
    z_u = np.stack([models.encode(blobs_bundle, x) for x in x_u])
    t = np.random.default_rng(42).normal(0.0, 0.5, size=blobs_bundle.m_latent)
    x_c = np.stack([models.decode(blobs_bundle, z + t) for z in z_u])
    return x_u, x_c, t


def test_planted_translation_recovery(planted, blobs_bundle):
    x_u, x_c, t = planted
    mapper = glam.train_mapper(x_u, x_c, blobs_bundle, lambda_theta=0.0,
                               hyperparams=glam.MapperHyperparams(lr=0.1, steps=400))
    assert np.linalg.norm(mapper.theta - t) < 1e-2


def test_huge_regularization_drives_theta_to_zero(planted, blobs_bundle):
    x_u, x_c, _ = planted
    mapper = glam.train_mapper(x_u, x_c, blobs_bundle, lambda_theta=1e6)
    assert np.abs(mapper.theta).sum() < 1e-3


def test_initialization_equals_latent_mean_difference(planted, blobs_bundle):
    x_u, x_c, _ = planted
    expected = glam.mean_translation(x_u, x_c, blobs_bundle)
    z_u, z_c = models.encode(blobs_bundle, x_u), models.encode(blobs_bundle, x_c)
    assert np.array_equal(expected, z_c.mean(axis=0) - z_u.mean(axis=0))
    start = glam.train_mapper(x_u, x_c, blobs_bundle,
                              hyperparams=glam.MapperHyperparams(steps=0))
    assert np.array_equal(start.theta, expected) and start.loss_curve == []


def test_a_mapper_fit_encodes_each_side_once(planted, blobs_bundle):
    x_u, x_c, _ = planted
    models.reset_eval_counts()
    glam.train_mapper(x_u, x_c, blobs_bundle, hyperparams=glam.MapperHyperparams(steps=2))
    assert models.EVAL_COUNTS["encode"] == 2
    models.reset_eval_counts()


def test_training_loss_is_monotone_decreasing(planted, blobs_bundle):
    x_u, x_c, _ = planted
    mapper = glam.train_mapper(x_u, x_c, blobs_bundle, lambda_theta=0.1)
    curve = mapper.loss_curve
    assert len(curve) == glam.MapperHyperparams().steps
    assert all(b <= a + 1e-10 for a, b in zip(curve, curve[1:]))


def test_empty_groups_error_by_name(blobs_bundle):
    x = np.zeros((0, 16))
    y = np.zeros((2, 16))
    with pytest.raises(ValueError, match="uncertain"):
        glam.train_mapper(x, y, blobs_bundle)
    with pytest.raises(ValueError, match="certain"):
        glam.train_mapper(y, x, blobs_bundle)
    with pytest.raises(ValueError, match="uncertain"):
        glam.dbm_baseline("input", x, y, blobs_bundle)
    with pytest.raises(ValueError, match="certain"):
        glam.nn_baseline("input", y[0], x, blobs_bundle)


def test_apply_mapper_is_single_shot(planted, blobs_bundle):
    x_u, x_c, t = planted
    mapper = glam.MapperParams(source_group=0, target_group=0, theta=t,
                               lambda_theta=0.0)
    models.reset_eval_counts()
    ce = glam.apply_mapper(mapper, x_u[0], blobs_bundle)
    assert models.EVAL_COUNTS == {"encode": 1, "decode": 1, "predict": 1}
    z = models.encode(blobs_bundle, x_u[0])
    assert np.array_equal(ce.z, z + t)
    assert np.array_equal(ce.x, models.decode(blobs_bundle, z + t))
    assert_glam_record(glam.apply_mapper(mapper, x_u[0], blobs_bundle, 0.05), x_u[0],
                       blobs_bundle, 0.05)
    models.reset_eval_counts()


def assert_glam_record(ce, x, bundle, lambda_x):
    """Every glam scheme's candidate: rho is the latent distance to x's
    encode, no prediction distance, accepted, start 0, and the cost
    H + lambda_x d_x bitwise."""
    assert ce.rho == float(np.linalg.norm(ce.z - models.encode(bundle, x)))
    assert ce.d_y == 0.0 and ce.accepted is True and ce.start_index == 0
    assert ce.d_x == float(np.abs(ce.x - x).sum()) > 0.0
    assert ce.cost == ce.entropy + lambda_x * ce.d_x


def test_pick_best_mapper_encodes_its_input_once(planted, blobs_bundle):
    """glam2 applies G mappers to one encode: G decodes and G predicts, and
    the candidate is bitwise the lowest-cost one of G single applies."""
    x_u, _, t = planted
    mappers = [glam.MapperParams(source_group=0, target_group=g, theta=s * t, lambda_theta=0.0)
               for g, s in enumerate((1.0, -1.0, 0.5))]
    models.reset_eval_counts()
    best = glam.pick_best_mapper(mappers, x_u[0], blobs_bundle, 0.05)
    assert models.EVAL_COUNTS == {"encode": 1, "decode": 3, "predict": 3}
    each = [glam.apply_mapper(m, x_u[0], blobs_bundle, 0.05) for m in mappers]
    assert len({c.cost for c in each}) == 3
    want = min(each, key=lambda c: c.cost)
    for f in dataclasses.fields(want):
        got, expected = getattr(best, f.name), getattr(want, f.name)
        if isinstance(expected, np.ndarray):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), f.name
        else:
            assert type(got) is type(expected) and got == expected, f.name
    models.reset_eval_counts()


def test_nn_baseline_matches_linear_scan(blobs, blobs_bundle):
    x = blobs.test_inputs()[0]
    certain = blobs.train_inputs()[:25]
    ce = glam.nn_baseline("input", x, certain, blobs_bundle)
    idx = np.argmin([np.linalg.norm(c - x) for c in certain])
    assert np.array_equal(ce.x, certain[idx])
    for space in ("input", "latent"):
        assert_glam_record(glam.nn_baseline(space, x, certain, blobs_bundle, 0.05), x,
                           blobs_bundle, 0.05)


def test_nn_baseline_identity_and_singleton(blobs, blobs_bundle):
    x = blobs.train_inputs()[3]
    # x itself in the certain set: the counterfactual is x at distance 0
    ce = glam.nn_baseline("input", x, np.vstack([blobs.train_inputs()[:5], x]),
                          blobs_bundle)
    assert ce.d_x == 0.0
    only = blobs.train_inputs()[7:8]
    ce = glam.nn_baseline("input", x, only, blobs_bundle)
    assert np.array_equal(ce.x, only[0])


def test_dbm_baseline_translations(blobs, blobs_bundle):
    x_u = blobs.train_inputs()[:10]
    x_c = blobs.train_inputs()[10:30]
    b = glam.dbm_baseline("input", x_u, x_c, blobs_bundle)
    assert np.allclose(b.translation, x_c.mean(axis=0) - x_u.mean(axis=0))
    assert_glam_record(b.apply(x_u[0], blobs_bundle, 0.05), x_u[0], blobs_bundle, 0.05)
    b = glam.dbm_baseline("latent", x_u, x_c, blobs_bundle)
    assert np.allclose(b.translation,
                       glam.mean_translation(x_u, x_c, blobs_bundle))
    assert_glam_record(b.apply(x_u[0], blobs_bundle, 0.05), x_u[0], blobs_bundle, 0.05)
    with pytest.raises(ValueError):
        glam.dbm_baseline("spectral", x_u, x_c, blobs_bundle)
    with pytest.raises(ValueError, match="unknown space 'spectral'"):
        glam.nn_baseline("spectral", x_u[0], x_c, blobs_bundle)


def test_mappers_from_cesets_grouping(blobs, blobs_bundle):
    config = clue.ExperimentConfig(delta=1.5, k=4, r=1.5, scheme="s1",
                                   lambda_x=0.03, lr=0.3, iters=30, seed=5)
    cesets, labels = [], []
    for x in blobs.test_inputs()[:8]:
        cesets.append(clue.delta_clue(x, blobs_bundle, config))
        labels.append(models.argmax_label(models.predict(blobs_bundle, x)))
    mappers = glam.mappers_from_cesets(cesets, labels, blobs_bundle, min_pairs=2)
    assert mappers, "expected at least one (class, label) group"
    for m in mappers:
        assert m.theta.shape == (blobs_bundle.m_latent,)
        assert 0 <= m.source_group < blobs_bundle.c_classes
        assert 0 <= m.target_group < blobs_bundle.c_classes


def test_mapper_serialization_roundtrip(planted, blobs_bundle, tmp_path):
    x_u, x_c, _ = planted
    mapper = glam.train_mapper(x_u[:10], x_c[:10], blobs_bundle,
                               lambda_theta=0.05, source_group=1, target_group=2,
                               hyperparams=glam.MapperHyperparams(steps=20))
    path = tmp_path / "mapper.json"
    glam.save_mapper(mapper, str(path))
    loaded = glam.load_mapper(str(path))
    assert loaded.theta.dtype == np.float64 and loaded.theta.tobytes() == mapper.theta.tobytes()
    assert (loaded.source_group, loaded.target_group) == (1, 2)
    assert loaded.lambda_theta == 0.05
    assert loaded.loss_curve == mapper.loss_curve and len(mapper.loss_curve) == 20


@pytest.mark.parametrize("edit", ["source_group", "target_group", "theta", "lambda_theta",
                                  "unknown_key"])
def test_mapper_file_without_a_field_or_with_an_unknown_one_is_malformed(tmp_path, edit):
    mapper = glam.MapperParams(source_group=0, target_group=1, theta=np.zeros(3),
                               lambda_theta=0.1, loss_curve=[1.0])
    path = tmp_path / "mapper.json"
    glam.save_mapper(mapper, str(path))
    payload = json.loads(path.read_text())
    if edit in payload:
        del payload[edit]
    else:
        payload[edit] = 0
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="malformed") as info:
        glam.load_mapper(str(path))
    assert str(path) in str(info.value)


def test_lambda_theta_tradeoff_direction(blobs, blobs_bundle):
    """More regularization: shorter translations, nearer outputs, more
    residual uncertainty."""
    lo, hi = data.default_taus(blobs_bundle)
    part = data.partition_by_certainty(blobs, blobs_bundle, lo, hi)
    xt = blobs.train_inputs()
    c = next(c for c in range(4) if len(part.uncertain_of_class(c)) >= 5
             and len(part.certain_of_class(c)) >= 5)
    xu = xt[part.uncertain_of_class(c)]
    xc = xt[part.certain_of_class(c)]
    norms = []
    for lam in (0.0, 0.5, 5.0):
        mapper = glam.train_mapper(xu, xc, blobs_bundle, lambda_theta=lam)
        norms.append(np.abs(mapper.theta).sum())
    assert norms[0] >= norms[1] >= norms[2]
