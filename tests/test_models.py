"""Model bundle behavior: forward shapes, entropy contract, training,
serialization round-trips."""

import dataclasses
import json
import multiprocessing
import multiprocessing.reduction
import os
import threading
import time
import warnings

import numpy as np
import pytest

import cluekit.diffcore as dc
from cluekit import clue, data, models
import tape_oracle as tape


def test_forward_shapes(tiny_bundle):
    ds, bundle = tiny_bundle
    x = ds.train_inputs()[0]
    z = models.encode(bundle, x)
    assert z.shape == (bundle.m_latent,)
    xr = models.decode(bundle, z)
    assert xr.shape == (bundle.d_in,)
    p = models.predict(bundle, x)
    assert p.shape == (bundle.c_classes,)
    assert abs(p.sum() - 1.0) < 1e-9
    xs = ds.train_inputs()[:5]
    ps = models.predict(bundle, xs)
    assert ps.shape == (5, bundle.c_classes)
    np.testing.assert_allclose(ps.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
    assert models.predict(bundle, xs[:0]).shape == (0, bundle.c_classes)


def test_shape_errors(tiny_bundle):
    _, bundle = tiny_bundle
    with pytest.raises(dc.ShapeError):
        models.encode(bundle, np.zeros(bundle.d_in + 1))
    with pytest.raises(dc.ShapeError):
        models.decode(bundle, np.zeros(bundle.m_latent + 2))
    with pytest.raises(dc.ShapeError):
        models.predict(bundle, np.zeros(3))


def test_entropy_range_and_simplex_check(tiny_bundle):
    ds, bundle = tiny_bundle
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0, 1, size=bundle.d_in)
        h = models.entropy(models.predict(bundle, x))
        assert 0.0 <= h <= np.log(bundle.c_classes) + 1e-12
    assert models.entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    uniform = np.full(4, 0.25)
    assert abs(models.entropy(uniform) - np.log(4)) < 1e-12
    with pytest.raises(ValueError):
        models.entropy(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        models.entropy(np.array([-0.1, 1.1]))


def test_predict_entropy_batch_matches_rows(tiny_bundle):
    """One batched call gives each row's entropy of the single-row call, at
    rounding level (a batch matmul may differ from a row's in the last bit)."""
    ds, bundle = tiny_bundle
    xs = ds.train_inputs()[:20]
    models.reset_eval_counts()
    hs = models.predict_entropy(bundle, xs)
    assert models.EVAL_COUNTS["predict"] == 1
    assert hs.shape == (20,)
    rows = [models.predict_entropy(bundle, x) for x in xs]
    assert all(isinstance(h, float) for h in rows)
    np.testing.assert_allclose(hs, rows, rtol=1e-12, atol=0.0)
    assert rows[3] == models.entropy(models.predict(bundle, xs[3]))
    assert models.predict_entropy(bundle, xs[:0]).shape == (0,)


# 0, the tiny and the overflowing arguments, and the range where the sigmoid
# is neither 0 nor 1 in float64
SIGMOID_GRID = np.concatenate([[0.0, 1e-300, -1e-300, 709.8, -709.8, 800.0, -800.0],
                               np.linspace(-60.0, 60.0, 2401)])


def test_sigmoid_and_xlogx_match_scipy():
    """The numpy sigmoid and x log x agree with scipy's expit and xlogy to rtol
    1e-15, x log x is 0 at 0, and neither warns. Below the smallest normal
    float the comparison is absolute: at -709.8 expit's exp(709.8) overflows
    to give 0, where the sigmoid is exp(-709.8), a subnormal."""
    from scipy.special import expit, xlogy

    p = np.concatenate([[0.0, 5e-324, 1e-300, 1.0], np.linspace(0.0, 1.0, 1001),
                        SIGMOID_GRID[SIGMOID_GRID > 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = models._sigmoid(SIGMOID_GRID.copy())
        xlx = models._xlogx(p)
    np.testing.assert_allclose(s, expit(SIGMOID_GRID), rtol=1e-15,
                               atol=np.finfo(np.float64).smallest_normal)
    assert s[SIGMOID_GRID == -709.8] == np.exp(-709.8)
    np.testing.assert_allclose(xlx, xlogy(p, p), rtol=1e-15, atol=0.0)
    assert xlx[0] == 0.0
    assert np.isnan(models._sigmoid(np.array([np.nan]))[0])


def test_shared_exp_softplus_matches_logaddexp():
    """The tape's softplus and the VAE step's loss term, max(v, 0) +
    log1p(exp(-|v|)), agree with np.logaddexp(0, v) to rtol 1e-15 on the
    sigmoid grid and +-40 (the tape's also at +-inf, where the step's x * v
    term is nan for a target of 0), without warning; the step's logit adjoint
    is the tape's sigmoid bit for bit; nan stays nan."""
    v = np.concatenate([SIGMOID_GRID, [40.0, -40.0]])
    v_inf = np.concatenate([v, [np.inf, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tape_sp = dc.softplus(v_inf).data
        step = [models._bernoulli_xent(np.array([[a]]), np.zeros((1, 1)), 1.0) for a in v]
    np.testing.assert_allclose(tape_sp, np.logaddexp(0.0, v_inf), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose([loss for loss, _ in step], np.logaddexp(0.0, v),
                               rtol=1e-15, atol=0.0)
    assert np.array_equal(np.concatenate([grad[0] for _, grad in step]), dc._stable_sigmoid(v))
    assert np.isnan(dc.softplus(np.array([np.nan])).data[0])
    loss, grad = models._bernoulli_xent(np.array([[np.nan]]), np.zeros((1, 1)), 1.0)
    assert np.isnan(loss) and np.isnan(grad[0, 0])


def test_argmax_label_tie_goes_to_lowest_index():
    assert models.argmax_label(np.array([0.4, 0.4, 0.2])) == 0
    assert models.argmax_label(np.array([0.1, 0.45, 0.45])) == 1


def test_forward_purity(tiny_bundle):
    ds, bundle = tiny_bundle
    x = ds.train_inputs()[1]
    assert np.array_equal(models.encode(bundle, x), models.encode(bundle, x))
    z = models.encode(bundle, x)
    assert np.array_equal(models.decode(bundle, z), models.decode(bundle, z))
    p1, p2 = models.predict(bundle, x), models.predict(bundle, x)
    assert np.array_equal(p1, p2)


def test_eval_count_instrumentation(tiny_bundle):
    ds, bundle = tiny_bundle
    models.reset_eval_counts()
    x = ds.train_inputs()[0]
    models.decode(bundle, models.encode(bundle, x))
    models.predict(bundle, x)
    assert models.EVAL_COUNTS == {"encode": 1, "decode": 1, "predict": 1}
    models.reset_eval_counts()
    assert models.EVAL_COUNTS == {"encode": 0, "decode": 0, "predict": 0}


def test_training_is_seed_deterministic():
    ds = data.gen_blobs(c=3, d=8, n=120, spread=0.2, seed=3)
    hp = models.VaeHyperparams(hidden=8, latent=3, epochs=5)
    enc1, dec1, _ = models.train_vae(ds.train_inputs(), hp, seed=4)
    enc2, dec2, _ = models.train_vae(ds.train_inputs(), hp, seed=4)
    for a, b in zip(enc1.weights + dec1.weights, enc2.weights + dec2.weights):
        assert np.array_equal(a, b)


def test_vae_divergence_raises():
    ds = data.gen_blobs(c=3, d=8, n=120, spread=0.2, seed=3)
    hp = models.VaeHyperparams(hidden=8, latent=3, epochs=5, lr=1e6)
    with pytest.raises(models.TrainingDivergence):
        with np.errstate(all="ignore"):
            models.train_vae(ds.train_inputs(), hp, seed=4)


def test_ensemble_divergence_raises_naming_member_and_epoch():
    ds = data.gen_blobs(c=3, d=8, n=120, spread=0.2, seed=3)
    hp = models.EnsembleHyperparams(hidden=8, epochs=5, lr=1e6)
    with pytest.raises(models.TrainingDivergence,
                       match="ensemble member 0 diverged at epoch 1"):
        with np.errstate(all="ignore"):
            models.train_ensemble(ds.train_inputs(), ds.train_labels(), 3, hp, seed=4)


def _per_member_reference(inputs, labels, n_members, hp, seed):
    """The ensemble trained one member at a time, each on its own tape, as
    the loop before stacked training did; returns (members, loss curve)."""
    x_all = np.asarray(inputs, dtype=np.float64)
    y_all = np.asarray(labels, dtype=np.int64)
    c = int(y_all.max()) + 1
    perm = np.random.default_rng([seed, 999]).permutation(len(x_all))
    train = perm[max(1, int(len(x_all) * models.HELDOUT_FRAC)):]
    xt, yt = x_all[train], y_all[train]
    members = []
    batch_loss_sums = np.zeros((n_members, hp.epochs))
    for e in range(n_members):
        rng = np.random.default_rng([seed, 1 + e])
        mlp = models._init_mlp(rng, [x_all.shape[1], hp.hidden, hp.hidden, c])
        ts = tape._mlp_tensors(mlp)
        onehot = np.eye(c)[yt]
        for epoch in range(hp.epochs):
            order = rng.permutation(len(xt))
            for lo in range(0, len(xt), hp.batch):
                idx = order[lo:lo + hp.batch]
                logits = tape._mlp_graph(ts, dc.Tensor(xt[idx]), dc.relu)
                p = dc.softmax(logits, axis=-1)
                loss = dc.mul(dc.tsum(dc.mul(dc.Tensor(onehot[idx]), dc.log(p))),
                              -1.0 / len(idx))
                loss.backward()
                tape._sgd_step(ts, hp.lr)
                batch_loss_sums[e, epoch] += float(loss.data)
        tape._write_back(mlp, ts)
        members.append(mlp)
    n_batches = -(-len(xt) // hp.batch)
    return members, (batch_loss_sums / n_batches).mean(axis=0).tolist()


@pytest.mark.parametrize("n_members", [1, 3])
def test_stacked_training_equals_per_member_loop(n_members):
    """Several batches per epoch, a short last batch: every weight, bias and
    loss-curve entry equals the one-member-at-a-time loop bit for bit."""
    ds = data.gen_blobs(c=3, d=8, n=400, spread=0.2, seed=3)
    hp = models.EnsembleHyperparams(hidden=8, epochs=6, batch=64)
    ensemble, report = models.train_ensemble(ds.train_inputs(), ds.train_labels(),
                                             n_members, hp, seed=9)
    members, curve = _per_member_reference(ds.train_inputs(), ds.train_labels(),
                                           n_members, hp, seed=9)
    assert report.loss_curve == curve
    for e, member in enumerate(members):
        for i, (w, b) in enumerate(zip(member.weights, member.biases)):
            assert np.array_equal(ensemble.weights[i][e], w), (e, i)
            assert np.array_equal(ensemble.biases[i][e, 0], b), (e, i)


def _arrays(*mlps):
    return [a for mlp in mlps for a in mlp.weights + mlp.biases]


@pytest.mark.parametrize("n_members", [1, 3])
def test_training_equals_the_tape(n_members):
    """The numpy training loops give the tape loops' weights, biases, loss
    curves and report statistics bit for bit, with a one-row last batch."""
    ds = data.gen_blobs(c=3, d=8, n=120, spread=0.2, seed=3)
    x, y = ds.train_inputs(), ds.train_labels()
    vae_hp = models.VaeHyperparams(hidden=12, latent=3, epochs=4, batch=32)
    ens_hp = models.EnsembleHyperparams(hidden=8, epochs=4, batch=11)
    n_fit = len(x) - max(1, int(len(x) * models.HELDOUT_FRAC))
    assert len(x) % vae_hp.batch == 1 and n_fit % ens_hp.batch == 1
    enc, dec, vae_report = models.train_vae(x, vae_hp, seed=4)
    ref_enc, ref_dec, ref_vae_report = tape.train_vae(x, vae_hp, seed=4)
    ensemble, ens_report = models.train_ensemble(x, y, n_members, ens_hp, seed=9)
    ref_ensemble, ref_ens_report = tape.train_ensemble(x, y, n_members, ens_hp, seed=9)
    got, ref = _arrays(enc, dec, ensemble), _arrays(ref_enc, ref_dec, ref_ensemble)
    assert len(got) == len(ref) == 18
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    assert vae_report.loss_curve == ref_vae_report.loss_curve
    assert vae_report.mean_recon_l1 == ref_vae_report.mean_recon_l1
    assert ens_report.loss_curve == ref_ens_report.loss_curve
    assert ens_report.heldout_accuracy == ref_ens_report.heldout_accuracy


@pytest.mark.parametrize("n,batch", [(50, 128), (300, 128), (2003, 128), (256, 64)])
def test_vae_report_scored_per_batch_equals_the_full_batch_formula(n, batch):
    """``mean_recon_l1``, scored a batch of rows at a time, is the full
    set's one-pass statistic bit for bit, for n < batch and n % batch != 0."""
    x = data.gen_minidigits(n, seed=n).inputs
    hp = models.VaeHyperparams(hidden=16, latent=4, epochs=2, batch=batch)
    enc, dec, report = models.train_vae(x, hp, seed=1)
    full = models._sigmoid(models._forward(dec, models._forward(enc, x, np.tanh)[:, :4], np.tanh))
    assert report.mean_recon_l1 == float(np.mean(np.sum(np.abs(full - x), axis=1)))


def test_vae_report_holds_one_batch_of_rows(traced_peak):
    """Training the VAE on 2,000 minidigits peaks under 1.5x its inputs'
    bytes, as tracemalloc counts it: the report's forward passes hold one
    batch of rows, where the whole set's took 2.65x."""
    x = data.gen_minidigits(2000, seed=0).inputs
    hp = models.VaeHyperparams(epochs=1)
    models.train_vae(x[:300], hp, seed=0)
    _, peak = traced_peak(lambda: models.train_vae(x, hp, seed=0))
    assert peak < 1.5 * x.nbytes, peak / x.nbytes


def test_input_adjoint_alone_equals_the_training_backward(tiny_bundle):
    """``_backprop`` without the input skips the weight adjoints; its input
    adjoint is the training path's bit for bit, on all three networks."""
    ds, bundle = tiny_bundle
    rng = np.random.default_rng(8)
    xs = ds.train_inputs()[:5]
    zs = models.encode(bundle, xs)
    for mlp, x, act, act_grad in ((bundle.encoder, xs, np.tanh, models._tanh_grad),
                                  (bundle.decoder, zs, np.tanh, models._tanh_grad),
                                  (bundle.ensemble, xs, models._relu, models._relu_grad)):
        acts = []
        out = models._forward(mlp, x, act, acts)
        g = rng.standard_normal(out.shape)
        alone = models._backprop(mlp, acts, g, act_grad)
        _, _, _, (grads,) = models._flat(mlp)
        assert np.array_equal(alone, models._backprop(mlp, acts, g, act_grad, x, out=grads))


def test_training_and_the_s5_walk_build_no_tensor(monkeypatch):
    made = []
    init = dc.Tensor.__init__

    def counted_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(dc.Tensor, "__init__", counted_init)
    # in process, so that the ensemble's constructions are counted here too
    monkeypatch.setattr(models, "_FORK_WORKER", False)
    ds = data.gen_blobs(c=3, d=8, n=120, spread=0.2, seed=3)
    bundle = models.train_bundle(ds, models.VaeHyperparams(hidden=12, latent=3, epochs=2),
                                 models.EnsembleHyperparams(hidden=8, epochs=2),
                                 n_members=2, seed=3)
    assert not made
    z0 = models.encode(bundle, ds.train_inputs()[0])
    clue.make_starts(z0, clue.ExperimentConfig(scheme="s5", k=3, r=1.0, delta=1.0), bundle)
    assert not made


TRAINING_CASES = {  # which -> (dataset, VAE and ensemble hyperparameters, E, seed)
    "tiny": (lambda: data.gen_blobs(c=3, d=8, n=120, spread=0.2, seed=3),
             models.VaeHyperparams(hidden=12, latent=3, epochs=10),
             models.EnsembleHyperparams(hidden=8, epochs=10), 3, 3),
    "digits64": (lambda: data.gen_minidigits(n=200, seed=5),
                 models.VaeHyperparams(hidden=16, latent=8, epochs=3),
                 models.EnsembleHyperparams(hidden=16, epochs=3), 5, 5),
}


@pytest.mark.parametrize("which", list(TRAINING_CASES))
def test_worker_and_in_process_training_write_the_same_bundle(which, tmp_path, monkeypatch):
    """The ensemble trained in the forked worker, while the VAE trains in the
    caller, saves to the same bytes as both trained in turn in the caller."""
    make, vae_hp, ens_hp, n_members, seed = TRAINING_CASES[which]
    ds, train_vae, workers = make(), models.train_vae, []

    def counting_train_vae(*args):
        workers.append(len(multiprocessing.active_children()))
        return train_vae(*args)

    monkeypatch.setattr(models, "train_vae", counting_train_vae)
    saved = {}
    for fork in (True, False):
        monkeypatch.setattr(models, "_FORK_WORKER", fork)
        bundle = models.train_bundle(ds, vae_hp, ens_hp, n_members=n_members, seed=seed)
        assert not multiprocessing.active_children()
        models.save_bundle(bundle, tmp_path / str(fork))
        saved[fork] = {p.name: p.read_bytes() for p in sorted((tmp_path / str(fork)).iterdir())}
    assert workers == [1, 0]  # the worker ran while the VAE trained
    assert saved[True] == saved[False]


def test_ensemble_divergence_in_the_worker_raises_in_the_caller():
    make, vae_hp, _, n_members, seed = TRAINING_CASES["tiny"]
    with pytest.raises(models.TrainingDivergence, match="ensemble member 0 diverged"):
        with np.errstate(all="ignore"):
            models.train_bundle(make(), vae_hp, models.EnsembleHyperparams(hidden=8, lr=1e300),
                                n_members=n_members, seed=seed)
    assert not multiprocessing.active_children()


def test_ensemble_value_error_in_the_worker_raises_in_the_caller():
    make, vae_hp, ens_hp, n_members, seed = TRAINING_CASES["tiny"]
    ds = make()
    negative = dataclasses.replace(ds, labels=ds.labels - 1)
    with pytest.raises(ValueError, match="labels must be non-negative"):
        models.train_bundle(negative, vae_hp, ens_hp, n_members=n_members, seed=seed)
    assert not multiprocessing.active_children()


def test_one_training_row_leaves_none_to_train_on():
    """At least one row is held out for the accuracy report, so one row is a
    ValueError naming the counts, not an empty percentile; two rows train."""
    x, y = np.array([[0.2, 0.8], [0.9, 0.1]]), np.array([0, 1])
    hp = models.EnsembleHyperparams(hidden=4, epochs=2, batch=2)
    with pytest.raises(ValueError, match="holding out 1 of 1 rows leaves none to train on"):
        models.train_ensemble(x[:1], y[:1], 2, hp, 0)
    _, report = models.train_ensemble(x, y, 2, hp, 0)
    assert len(report.loss_curve) == 2 and set(report.entropy_percentiles) == {"20", "50", "80"}


# module-level, so that a worker that pickles its job by name could run them too
def _sleep_30s(*args):
    time.sleep(30)


def _exit_7(*args):
    os._exit(7)


def test_a_vae_failure_stops_the_worker(monkeypatch):
    """A diverging VAE raises at once: the worker still training the
    ensemble is stopped, not waited for."""
    make, vae_hp, ens_hp, n_members, seed = TRAINING_CASES["tiny"]

    def diverging_vae(*args):
        raise models.TrainingDivergence("VAE loss diverged at epoch 0")

    monkeypatch.setattr(models, "train_ensemble", _sleep_30s)
    monkeypatch.setattr(models, "train_vae", diverging_vae)
    t0 = time.monotonic()
    with pytest.raises(models.TrainingDivergence, match="VAE loss diverged"):
        models.train_bundle(make(), vae_hp, ens_hp, n_members=n_members, seed=seed)
    assert time.monotonic() - t0 < 5.0
    assert not multiprocessing.active_children()


def test_a_worker_that_sends_nothing_raises_naming_its_exit_code(monkeypatch):
    make, vae_hp, ens_hp, n_members, seed = TRAINING_CASES["tiny"]
    monkeypatch.setattr(models, "train_ensemble", _exit_7)
    with pytest.raises(models.TrainingWorkerLost, match="exited with code 7 and sent no result"):
        models.train_bundle(make(), vae_hp, ens_hp, n_members=n_members, seed=seed)
    assert not multiprocessing.active_children()


def test_training_in_the_caller_starts_no_thread_and_pickles_no_input(monkeypatch):
    """The worker inherits its inputs at the fork: the caller pickles none
    of them and starts no thread to send them."""
    make, vae_hp, ens_hp, n_members, seed = TRAINING_CASES["tiny"]
    ds, train_vae, threads, pickled = make(), models.train_vae, [], []
    dumps = multiprocessing.reduction.ForkingPickler.dumps

    def recording_dumps(cls, obj, protocol=None):
        buf = dumps(obj, protocol)
        pickled.append(len(buf))
        return buf

    def counting_train_vae(*args):
        threads.append(threading.active_count())
        return train_vae(*args)

    monkeypatch.setattr(multiprocessing.reduction.ForkingPickler, "dumps",
                        classmethod(recording_dumps))
    monkeypatch.setattr(models, "train_vae", counting_train_vae)
    before = threading.active_count()
    models.train_bundle(ds, vae_hp, ens_hp, n_members=n_members, seed=seed)
    assert threads == [before]
    assert all(n < ds.train_inputs().nbytes for n in pickled)


def test_training_in_the_caller_holds_no_copy_of_the_rows(traced_peak):
    """On the fork path the caller's VAE gathers each batch through the
    training rows' index and the worker gathers the ensemble's rows itself:
    training 2,000 minidigits holds under 1.3x the inputs' bytes in the
    caller, where a copy of the training rows took 1.97x."""
    ds = data.gen_minidigits(2000, seed=0)
    vae_hp, ens_hp = models.VaeHyperparams(epochs=1), models.EnsembleHyperparams(epochs=1)
    models.train_bundle(ds, vae_hp, ens_hp, seed=0)
    assert models._FORK_WORKER, "the fork path runs on Linux only"
    _, peak = traced_peak(lambda: models.train_bundle(ds, vae_hp, ens_hp, seed=0))
    assert peak < 1.3 * ds.inputs.nbytes, peak / ds.inputs.nbytes


def test_gathered_rows_train_the_weights_of_a_copy_of_them():
    """``train_vae`` on the inputs and an index gives the weights and report of
    training on the indexed rows copied out, and checks the indexed rows only."""
    ds = data.gen_blobs(c=3, d=8, n=300, spread=0.2, seed=3)
    hp = models.VaeHyperparams(hidden=12, latent=3, epochs=3, batch=64)
    rows = np.flatnonzero(ds.split == "train")
    enc, dec, report = models.train_vae(ds.inputs, hp, 4, rows)
    ref_enc, ref_dec, ref_report = models.train_vae(ds.train_inputs(), hp, 4)
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(enc, dec), _arrays(ref_enc, ref_dec)))
    assert report == ref_report
    bad = ds.inputs.copy()
    bad[np.flatnonzero(ds.split == "test")[0]] = 2.0  # outside [0, 1], on a row not trained on
    models.train_vae(bad, dataclasses.replace(hp, epochs=1), 4, rows)
    with pytest.raises(ValueError, match="inputs must lie in"):
        models.train_vae(bad, hp, 4)
    with pytest.raises(ValueError, match="empty dataset"):
        models.train_vae(ds.inputs, hp, 4, rows[:0])


def _write_blas_threads(path):
    """The BLAS thread counts this process reads, appended to ``path``."""
    with open(path, "a") as f:
        f.write(json.dumps([get() for _, get, _ in models._blas_libraries()]) + "\n")


@pytest.mark.parametrize("ending", ["trained", "vae_diverged", "worker_lost"])
def test_training_runs_one_blas_thread_per_process(ending, tmp_path, monkeypatch):
    """The VAE in the caller and the ensemble in the worker each read one BLAS
    thread, and the caller's count is back after the call, whether it trained,
    its VAE diverged or its worker was lost."""
    blas = models._blas_libraries()
    if not blas:
        pytest.skip("no loaded OpenBLAS library exports a known thread-count setter")
    make, vae_hp, ens_hp, n_members, seed = TRAINING_CASES["tiny"]
    train_vae, train_ensemble = models.train_vae, models.train_ensemble
    vae_log, worker_log = tmp_path / "vae", tmp_path / "worker"

    def vae(*args):
        _write_blas_threads(vae_log)
        if ending == "vae_diverged":
            raise models.TrainingDivergence("VAE loss diverged at epoch 0")
        return train_vae(*args)

    def ensemble(*args):
        _write_blas_threads(worker_log)
        if ending == "worker_lost":
            os._exit(7)
        return train_ensemble(*args)

    monkeypatch.setattr(models, "train_vae", vae)
    monkeypatch.setattr(models, "train_ensemble", ensemble)
    caller = [get() for _, get, _ in blas]
    for _, _, set_ in blas:
        set_(3)  # a count that neither the default nor the pin gives on a small host
    record = {}
    try:
        if ending == "trained":
            models.train_bundle(make(), vae_hp, ens_hp, n_members, seed, record=record)
        else:
            with pytest.raises((models.TrainingDivergence, models.TrainingWorkerLost)):
                models.train_bundle(make(), vae_hp, ens_hp, n_members, seed)
        after = [get() for _, get, _ in blas]
    finally:
        for (_, _, set_), count in zip(blas, caller):
            set_(count)
    assert after == [3] * len(blas)
    assert json.loads(vae_log.read_text()) == [1] * len(blas)
    if ending != "vae_diverged":  # a diverged VAE may stop the worker before it starts
        assert json.loads(worker_log.read_text()) == [1] * len(blas)
    if ending == "trained":
        assert record["blas_threads"] == {name: 1 for name, _, _ in blas}
        assert record["vae_s"] > 0.0 and record["ensemble_s"] > 0.0


def test_single_member_ensemble(tiny_bundle):
    ds, _ = tiny_bundle
    hp = models.EnsembleHyperparams(hidden=8, epochs=10)
    ensemble, report = models.train_ensemble(ds.train_inputs(), ds.train_labels(),
                                             1, hp, seed=9)
    assert all(w.shape[0] == 1 for w in ensemble.weights)
    assert 0.0 <= report.heldout_accuracy <= 1.0


def test_ensemble_loss_curve_has_one_finite_entry_per_epoch(tiny_bundle):
    ds, _ = tiny_bundle
    hp = models.EnsembleHyperparams(hidden=8, epochs=7)
    _, report = models.train_ensemble(ds.train_inputs(), ds.train_labels(), 2, hp, seed=9)
    assert len(report.loss_curve) == hp.epochs
    assert all(isinstance(v, float) and np.isfinite(v) for v in report.loss_curve)


def test_noise_inputs_are_more_uncertain_than_median(blobs, blobs_bundle):
    median_h = blobs_bundle.ensemble_report.entropy_percentiles["50"]
    rng = np.random.default_rng(2)
    noise_h = np.mean([models.entropy(models.predict(blobs_bundle, x))
                       for x in rng.uniform(0, 1, size=(30, blobs_bundle.d_in))])
    assert noise_h > median_h


def test_serialization_roundtrip_bitwise(tiny_bundle, tmp_path):
    ds, bundle = tiny_bundle
    where = tmp_path / "bundle"
    models.save_bundle(bundle, str(where))
    loaded = models.load_bundle(str(where))
    x = ds.train_inputs()[0]
    assert np.array_equal(models.encode(bundle, x), models.encode(loaded, x))
    z = models.encode(bundle, x)
    assert np.array_equal(models.decode(bundle, z), models.decode(loaded, z))
    assert np.array_equal(models.predict(bundle, x),
                          models.predict(loaded, x))
    for net in ("encoder", "decoder", "ensemble"):
        for kind in ("weights", "biases"):
            ours, theirs = getattr(getattr(bundle, net), kind), getattr(getattr(loaded, net), kind)
            assert len(ours) == len(theirs)
            for a, b in zip(ours, theirs):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert loaded.seed == bundle.seed
    assert loaded.vae_report == bundle.vae_report
    # the ensemble's loss curve goes to training_report.json, not to the bundle
    assert loaded.ensemble_report == dataclasses.replace(bundle.ensemble_report, loss_curve=[])


def test_load_accepts_manifest_with_entropy_histogram(tiny_bundle, tmp_path):
    """Bundles saved before the histogram was dropped still load."""
    _, bundle = tiny_bundle
    models.save_bundle(bundle, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "entropy_histogram" not in manifest["ensemble_report"]
    manifest["ensemble_report"]["entropy_histogram"] = [0.1, 0.2]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    loaded = models.load_bundle(tmp_path)
    assert loaded.ensemble_report.entropy_percentiles == bundle.ensemble_report.entropy_percentiles
    assert all(np.array_equal(a, b) for a, b in zip(loaded.ensemble.weights,
                                                     bundle.ensemble.weights))


@pytest.mark.parametrize("net,layer,rows,cols,bias_cols", [
    ("encoder", -1, 0, 2, 2),  # encoder output not 2 x the decoder input
    ("decoder", -1, 0, 1, 1),  # decoder output not the encoder input
    ("ensemble", 0, 1, 0, 0),  # ensemble input not the encoder input
    ("decoder", 1, 1, 0, 0),  # a layer's input not the previous layer's output
    ("decoder", 0, 0, 0, 1),  # a bias longer than its layer's output
])
def test_load_rejects_tensors_that_do_not_form_the_networks(tiny_bundle, tmp_path, net,
                                                            layer, rows, cols, bias_cols):
    _, bundle = tiny_bundle
    nets = {name: models.MLP(list(getattr(bundle, name).weights),
                             list(getattr(bundle, name).biases))
            for name in ("encoder", "decoder", "ensemble")}
    w, b = nets[net].weights[layer], nets[net].biases[layer]
    nets[net].weights[layer] = np.pad(w, [(0, 0)] * (w.ndim - 2) + [(0, rows), (0, cols)])
    nets[net].biases[layer] = np.pad(b, [(0, 0)] * (b.ndim - 1) + [(0, bias_cols)])
    models.save_bundle(models.ModelBundle(**nets), tmp_path)
    with pytest.raises(ValueError, match="do not form the bundle's networks"):
        models.load_bundle(tmp_path)


def test_failed_save_leaves_the_old_weights_whole(tiny_bundle, tmp_path):
    _, bundle = tiny_bundle
    models.save_bundle(bundle, tmp_path)
    before = (tmp_path / "weights.bin").read_bytes()
    decoder = models.MLP(list(bundle.decoder.weights), list(bundle.decoder.biases))
    decoder.weights[-1] = np.full(decoder.weights[-1].shape, "not a number", dtype=object)
    with pytest.raises(ValueError):  # after the encoder's tensors are written
        models.save_bundle(models.ModelBundle(bundle.encoder, decoder, bundle.ensemble),
                           tmp_path)
    assert (tmp_path / "weights.bin").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "weights.bin"]


def test_serialization_is_hash_stable(tiny_bundle, tmp_path):
    import hashlib

    _, bundle = tiny_bundle
    digests = []
    for name in ("a", "b"):
        where = tmp_path / name
        models.save_bundle(bundle, str(where))
        h = hashlib.sha256()
        for f in sorted(where.iterdir()):
            h.update(f.read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]


def test_heldout_accuracy_reasonable(blobs_bundle):
    assert blobs_bundle.ensemble_report.heldout_accuracy > 0.9
