"""Desk-scale differentiable probabilistic models.

A ``ModelBundle`` holds a VAE (MLP encoder returning a latent mean and
log-variance, MLP decoder with a sigmoid output head) and an ensemble of
independent MLP classifiers. Predictive uncertainty is the entropy of the
ensemble-averaged class posterior.

The ensemble is one stacked ``MLP`` whose layer i holds all E members'
weights as an E x in x out array, so each layer of all members is one
matmul. The dimensions d', m', c' and E are read from the weight shapes;
a saved bundle (a ``store``) records shapes only in its manifest's ``tensors`` list.

One numpy forward (``_forward``) and its hand-derived backward (``_backprop``)
serve every use of the networks. A vector through 2-D weights (one input or
latent through the VAE, and its adjoint) takes ``ndarray.dot`` at each layer:
the same gemv as ``@`` and the same bits, at about half its dispatch. The rest
keep ``@``: stacks of rows, which keep each row's one-row bits; training
batches, whose bits match the tape's; and the E x in x out ensemble, on which
``dot`` is another contraction (slower, and not bitwise). Inference (``encode``,
``decode``, ``predict``) runs the forward alone through one counted call
(``_infer``). It reads rows: each row of an array runs alone on a row axis of
its own, so a row gives the same bits in every call; only training and its
report run batches. ``predict`` returns the ensemble-mean posterior
(``_mean_posterior``, which the training report shares); ``entropy``,
``predict_entropy`` and the report take one row entropy (``_row_entropy``).
The search step (``clue.objective``), the s5 start walk, the diversity
gradients and the mapper fit take adjoints back to the latent through
``_decode_with_grad`` and ``_posterior_with_grad``, which read rows too.
Training takes them on to the weights: given the input and a gradient MLP,
the same backward loop writes each layer's weight and bias adjoints into it.
Each trainer holds all its weights and biases as views of one flat vector
(``_flat``) and the adjoints as views of a second, so one
``params -= lr * grads`` is its SGD step. The VAE's Bernoulli loss and its logit
adjoint share one exp(-|logits|) (``_bernoulli_xent``). The tests build the same
networks on the autodiff tape as the oracle, and training repeats the tape's
arithmetic term by term, so it gives the tape's weights bit for bit, also where
``train_bundle`` trains the ensemble, while the VAE trains, in a process forked
for the call that inherits the inputs and answers on a pipe (on Linux). The data
is held once: the VAE gathers each batch through the training rows' index, and
only the worker gathers the ensemble's rows. Each process runs numpy's OpenBLAS
at one thread for the call, where the library exports a known setter
(``_blas_libraries``), and the caller's count is restored after it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from . import store

# crude instrumentation for the amortization claims: the public forward calls
# by kind, one count per call however many rows (or stacked rows) it runs
EVAL_COUNTS = {"encode": 0, "decode": 0, "predict": 0}


def reset_eval_counts():
    for k in EVAL_COUNTS:
        EVAL_COUNTS[k] = 0


class TrainingDivergence(RuntimeError):
    """Raised when a training loss becomes non-finite."""


class TrainingWorkerLost(RuntimeError):
    """Raised when the ensemble's training worker ends without a result."""


@dataclass
class MLP:
    """Weight matrices and biases for a plain feed-forward net."""

    weights: list  # list of np.ndarray, alternating W (in x out) per layer
    biases: list


@dataclass
class TrainingReport:
    loss_curve: list = field(default_factory=list)
    final_loss: float = 0.0
    mean_recon_l1: float = 0.0
    heldout_accuracy: float = 0.0
    entropy_percentiles: dict = field(default_factory=dict)


@dataclass
class ModelBundle:
    encoder: MLP  # d' -> ... -> 2 m' (mean, logvar)
    decoder: MLP  # m' -> ... -> d' logits (sigmoid applied on output)
    # the E members as one MLP: layer i holds their weights as an
    # E x in x out array and their biases as E x 1 x out; d' -> ... -> c'
    ensemble: MLP
    seed: int = 0
    vae_report: TrainingReport = field(default_factory=TrainingReport)
    ensemble_report: TrainingReport = field(default_factory=TrainingReport)

    d_in = property(lambda self: self.encoder.weights[0].shape[0])
    m_latent = property(lambda self: self.decoder.weights[0].shape[0])
    c_classes = property(lambda self: self.ensemble.weights[-1].shape[-1])
    n_members = property(lambda self: self.ensemble.weights[0].shape[0])


def _stack(members):
    """The member MLPs as one stacked ensemble MLP."""
    return MLP(weights=[np.stack(ws) for ws in zip(*(m.weights for m in members))],
               biases=[np.stack(bs)[:, None, :] for bs in zip(*(m.biases for m in members))])


def _member(bundle, e):
    """Member ``e`` of the stacked ensemble as a plain MLP (views of slab e)."""
    ens = bundle.ensemble
    return MLP(weights=[w[e] for w in ens.weights], biases=[b[e, 0] for b in ens.biases])


# ---------------------------------------------------------------------------
# numpy forward and the hand-derived search kernel


def _relu(v, out):
    return np.maximum(v, 0.0, out=out)


def _sigmoid(v):
    """The logistic sigmoid of ``v``, computed in ``v``'s array. exp(v) / (1 +
    exp(v)) never warns: above 40 the sigmoid rounds to 1, so ``v`` is clipped
    there and exp cannot overflow, and far below 0 exp(v) underflows to 0."""
    np.minimum(v, 40.0, out=v)
    np.exp(v, out=v)
    v /= v + 1.0
    return v


def _xlogx(p):
    """p log p elementwise, with 0 log 0 := 0: log's argument is at least the
    smallest subnormal, whose log is finite, so p = 0 gives 0 * -744.4."""
    return p * np.log(np.maximum(p, 5e-324))


def _forward(mlp, x, hidden_act, acts=None):
    """Output logits of ``mlp`` at ``x``, without the tape.

    On ``bundle.ensemble`` an n x d' input gives E x n x c' logits, one
    slab per member. ``acts``, if given, collects the hidden activations
    that ``_backprop`` needs. A vector (only the VAE takes one) takes ``dot``.
    """
    ws, bs = mlp.weights, mlp.biases
    for i in range(len(ws) - 1):
        x = x.dot(ws[i]) if x.ndim == 1 else x @ ws[i]
        x += bs[i]
        hidden_act(x, out=x)
        if acts is not None:
            acts.append(x)
    x = x.dot(ws[-1]) if x.ndim == 1 else x @ ws[-1]
    x += bs[-1]
    return x


def _backprop(mlp, acts, g, act_grad, x=None, input_grad=True, out=None):
    """Adjoint of ``_forward``'s input from the adjoint ``g`` of its logits.

    Given ``out``, an MLP of ``mlp``'s shapes, and the input ``x``, the same
    loop also writes each layer's weight and bias adjoints into out's arrays.
    The input adjoint is None unless ``input_grad``. A vector adjoint takes ``dot``.
    """
    ws = mlp.weights
    for i in range(len(ws) - 1, -1, -1):
        if out is not None:
            np.matmul((acts[i - 1] if i else x).swapaxes(-1, -2), g, out=out.weights[i])
            np.add.reduce(g, axis=-2, out=out.biases[i].reshape(g.shape[:-2] + g.shape[-1:]))
        if i:
            g = g.dot(ws[i].T) if g.ndim == 1 else g @ ws[i].swapaxes(-1, -2)
            g *= act_grad(acts[i - 1])
    if input_grad:  # else None
        return g.dot(ws[0].T) if g.ndim == 1 else g @ ws[0].swapaxes(-1, -2)


def _tanh_grad(a):
    return 1.0 - a * a


def _relu_grad(a):
    return a > 0.0


def _decode_with_grad(bundle, z):
    """decode(z) at one latent or at each row of an array (as that latent alone, bit for
    bit, as ``_infer`` runs it), not counted in EVAL_COUNTS, and the adjoint back to z."""
    acts = []
    x = _sigmoid(_forward(bundle.decoder, z if z.ndim == 1 else z[..., None, :], np.tanh, acts))

    def grad(g):  # reshapes add and strip each row's axis
        g = g.reshape(x.shape) * x * (1.0 - x)
        return _backprop(bundle.decoder, acts, g, _tanh_grad).reshape(z.shape)

    return x.reshape(z.shape[:-1] + x.shape[-1:]), grad


def _softmax(v):
    e = v - np.maximum.reduce(v, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _posterior_with_grad(bundle, x):
    """The ensemble-mean posterior at each row on ``x``'s leading axes (bit for bit as
    that row alone), not counted in EVAL_COUNTS, and the adjoint back to ``x``."""
    acts = []
    s = _softmax(_forward(bundle.ensemble, x[..., None, None, :], _relu, acts))  # E x 1 x c'
    scale = 1.0 / s.shape[-3]

    def grad(gp):
        gp = gp[..., None, None, :] * scale  # d/dp of the mean, to each member
        gl = s * (gp - np.add.reduce(s * gp, axis=-1, keepdims=True))  # softmax
        return np.add.reduce(_backprop(bundle.ensemble, acts, gl, _relu_grad), axis=(-3, -2))

    return np.add.reduce(s, axis=(-3, -2)) * scale, grad  # over the members and the 1-row axis


def _infer(kind, mlp, x, hidden_act):
    """``mlp``'s logits at ``x``, counted in EVAL_COUNTS: the one forward of encode, decode
    and predict. A vector keeps its vector matmul; each row of an array runs alone on a row
    axis of its own, so it gives that row's bits (the ensemble's logits are E x 1 x c' per
    row). The first matmul checks x's width, at no cost when it fits."""
    x = np.asarray(x, dtype=np.float64)
    rows = x if x.ndim == 1 else x[..., None, :]
    try:
        logits = _forward(mlp, rows[..., None, :] if kind == "predict" else rows, hidden_act)
    except ValueError:
        what, width = ("latent", "m'") if kind == "decode" else ("input", "d'")
        raise dc.ShapeError(f"{kind}: {what} length {x.shape[-1]} "
                            f"!= {width}={mlp.weights[0].shape[-2]}") from None
    EVAL_COUNTS[kind] += 1
    return logits if x.ndim == 1 or kind == "predict" else logits[..., 0, :]


def _mean_posterior(logits):
    """The ensemble-mean posterior from the member logits on axis -3 (E x n x c')."""
    member = _softmax(logits)
    return member.sum(axis=-3) / member.shape[-3]


def _row_entropy(p):
    """-sum p log p over the last axis, in nats, with 0 log 0 := 0."""
    return -_xlogx(p).sum(axis=-1)


def encode(bundle, x):
    """Deterministic latent embedding: the encoder mean (no sampling)."""
    h = _infer("encode", bundle.encoder, x, np.tanh)
    return h[..., :h.shape[-1] // 2]


def decode(bundle, z):
    return _sigmoid(_infer("decode", bundle.decoder, z, np.tanh))


def predict(bundle, x):
    """The ensemble-mean posterior: length c' at one input, n x c' at n x d'."""
    return _mean_posterior(_infer("predict", bundle.ensemble, x, _relu))[..., 0, :]


def entropy(p):
    """H = -sum p log p in nats, with 0 log 0 := 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"entropy: input is not a probability simplex (sum={p.sum():.6g})")
    return float(_row_entropy(p))


def predict_entropy(bundle, x):
    """H of ``predict`` at one input (a float) or at each row of a batch, in one call."""
    h = _row_entropy(predict(bundle, x))
    return float(h) if h.ndim == 0 else h


def argmax_label(probs):
    """Deterministic hard label: lowest class index wins ties."""
    return int(np.asarray(probs).argmax())


def _init_mlp(rng, sizes):
    ws, bs = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        ws.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        bs.append(np.zeros(fan_out))
    return MLP(weights=ws, biases=bs)


def _flat(*mlps):
    """The arrays of ``mlps`` copied into one flat float64 vector, weights then
    biases of each MLP in turn, and a gradient vector of the same layout.

    Returns (params, grads, the MLPs as views of params, the MLPs as views of
    grads), so that ``_backprop`` writes every adjoint into ``grads`` and one
    ``params -= lr * grads`` is an SGD step of every array.
    """
    arrays = [a for mlp in mlps for a in mlp.weights + mlp.biases]
    params = np.concatenate([a.ravel() for a in arrays])
    grads = np.empty_like(params)

    def views(flat):
        parts = iter(np.split(flat, np.cumsum([a.size for a in arrays[:-1]])))
        return [MLP(weights=[next(parts).reshape(w.shape) for w in mlp.weights],
                    biases=[next(parts).reshape(b.shape) for b in mlp.biases])
                for mlp in mlps]

    return params, grads, views(params), views(grads)


def _bernoulli_xent(logits, x, g):
    """The Bernoulli cross-entropy of targets ``x`` (soft targets too) under
    ``logits``, summed, and ``g`` times its adjoint in the logits: returns
    (sum(softplus(a) - x a), g sigmoid(a) - g x). softplus(a) = max(a, 0) +
    log1p(e) and the sigmoid share one e = exp(-|a|); both repeat diffcore's
    ``softplus`` and ``_stable_sigmoid`` term by term."""
    e = np.abs(logits)
    np.exp(np.negative(e, out=e), out=e)
    xa = x * logits
    sp = np.maximum(logits, 0.0)
    sp += np.log1p(e)
    sp -= xa
    e1 = e + 1.0
    s = np.maximum(e, logits >= 0.0, out=e)  # e where a < 0, else 1 (e <= 1)
    s /= e1
    s *= g
    s -= np.multiply(x, g, out=xa)
    return np.add.reduce(sp, axis=None), s


@dataclass
class VaeHyperparams:
    hidden: int = 64
    latent: int = 8
    lr: float = 0.05
    epochs: int = 60
    batch: int = 128
    kl_weight: float = 0.1  # < 1 avoids posterior collapse at desk scale


def train_vae(dataset_inputs, hyperparams, seed, rows=None):
    """Standard ELBO training with Gaussian reparameterization, on the rows
    ``rows`` of ``dataset_inputs`` (default: all of them) in that order.

    Each batch is gathered from the inputs through ``rows``, so the rows
    trained on are never copied as a whole. Returns (encoder, decoder,
    report). The encoder's output layer stacks mean and log-variance.
    Divergence (non-finite loss) aborts.
    """
    x_all = np.asarray(dataset_inputs, dtype=np.float64)
    rows = np.arange(len(x_all)) if rows is None else np.asarray(rows)
    if rows.size == 0 or x_all.shape[1] == 0:
        raise ValueError("train_vae: empty dataset")
    # per-row extremes: the range check reads the rows without gathering them
    if x_all.min(axis=1)[rows].min() < 0.0 or x_all.max(axis=1)[rows].max() > 1.0:
        raise ValueError("train_vae: inputs must lie in [0,1]")
    hp = hyperparams
    d = x_all.shape[1]
    m = hp.latent
    rng = np.random.default_rng([seed, 0])
    params, grads, (enc, dec), (enc_g, dec_g) = _flat(
        _init_mlp(rng, [d, hp.hidden, hp.hidden, 2 * m]),
        _init_mlp(rng, [m, hp.hidden, hp.hidden, d]))

    n = len(rows)
    curve = []
    for epoch in range(hp.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, hp.batch):
            idx = perm[lo:lo + hp.batch]
            xb = x_all[rows[idx]]
            enc_acts, dec_acts = [], []
            h = _forward(enc, xb, np.tanh, enc_acts)
            # contiguous copies: the ops below run several times faster on them
            mu, logvar = h[:, :m].copy(), h[:, m:].copy()
            eps = rng.standard_normal((len(idx), m))
            sd = np.exp(logvar * 0.5)
            z = mu + sd * eps
            logits = _forward(dec, z, np.tanh, dec_acts)
            g = 1.0 / len(idx)
            recon, g_logits = _bernoulli_xent(logits, xb, g)
            var = np.exp(logvar)
            kl = np.sum((mu * mu + var) - (logvar + 1.0)) * (0.5 * hp.kl_weight)
            loss = (recon + kl) * g
            if not np.isfinite(loss):
                raise TrainingDivergence(f"VAE loss diverged at epoch {epoch}")
            # the backward repeats the autodiff tape's arithmetic term by term,
            # so that training gives the tape's weights bit for bit
            g_kl = g * (0.5 * hp.kl_weight)
            g_z = _backprop(dec, dec_acts, g_logits, _tanh_grad, z, out=dec_g)
            g_mu = (g_z + g_kl * mu) + g_kl * mu
            g_logvar = ((g_z * eps) * sd) * 0.5 + g_kl * var - g_kl
            _backprop(enc, enc_acts, np.concatenate([g_mu, g_logvar], axis=1), _tanh_grad, xb,
                      input_grad=False, out=enc_g)
            params -= hp.lr * grads
            epoch_loss += float(loss) * len(idx)
        curve.append(epoch_loss / n)

    # reconstruction statistic on the training set, a batch of rows at a time
    # in the decoder's output array; each row's l1 is that of the whole set's pass
    l1 = np.empty(n)
    for lo in range(0, n, hp.batch):
        xb = x_all[rows[lo:lo + hp.batch]]
        err = _sigmoid(_forward(dec, _forward(enc, xb, np.tanh)[:, :m], np.tanh))
        err -= xb
        np.sum(np.abs(err, out=err), axis=1, out=l1[lo:lo + hp.batch])
    mean_l1 = float(np.mean(l1))

    report = TrainingReport(loss_curve=curve, final_loss=curve[-1], mean_recon_l1=mean_l1)
    return enc, dec, report


@dataclass
class EnsembleHyperparams:
    hidden: int = 32
    lr: float = 0.1
    epochs: int = 80
    batch: int = 128


HELDOUT_FRAC = 0.2  # share of the training inputs held out for the accuracy report


def train_ensemble(inputs, labels, n_members, hyperparams, seed):
    """Train E independent classifiers on cross-entropy from distinct inits.

    The members train together as the stacked MLP of ``ModelBundle.ensemble``,
    one forward and backward per batch; member e draws its init and epoch
    orders from its own rng and sees row e of each E x B x d' batch, gathered
    through the fit rows' index. Returns (ensemble, report). The report's loss
    curve holds, per epoch, the members' mean batch loss averaged over them.
    """
    x_all = np.asarray(inputs, dtype=np.float64)
    y_all = np.asarray(labels, dtype=np.int64)
    c = int(y_all.max()) + 1
    if y_all.min() < 0:
        raise ValueError("train_ensemble: labels must be non-negative")
    hp = hyperparams
    d = x_all.shape[1]
    split_rng = np.random.default_rng([seed, 999])
    perm = split_rng.permutation(len(x_all))
    n_held = max(1, int(len(x_all) * HELDOUT_FRAC))
    if n_held >= len(x_all):
        raise ValueError(f"train_ensemble: holding out {n_held} of {len(x_all)} rows "
                         f"leaves none to train on")
    held, train = perm[:n_held], perm[n_held:]

    rngs = [np.random.default_rng([seed, 1 + e]) for e in range(n_members)]
    params, grads, (ensemble,), (ensemble_g,) = _flat(
        _stack([_init_mlp(rng, [d, hp.hidden, hp.hidden, c]) for rng in rngs]))
    onehot = np.eye(c)
    batch_loss_sums = np.zeros((n_members, hp.epochs))
    for epoch in range(hp.epochs):
        orders = np.stack([rng.permutation(len(train)) for rng in rngs])
        for lo in range(0, len(train), hp.batch):
            idx = train[orders[:, lo:lo + hp.batch]]  # row e: member e's batch
            xb, yb, acts = x_all[idx], onehot[y_all[idx]], []
            p = _softmax(_forward(ensemble, xb, _relu, acts))
            losses = np.sum(yb * np.log(p), axis=(1, 2)) * (-1.0 / idx.shape[1])
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                raise TrainingDivergence(f"ensemble member {bad[0]} diverged at epoch {epoch}")
            g = (yb * (-1.0 / idx.shape[1])) / p  # in the tape's order, as in train_vae
            g = p * (g - (g * p).sum(axis=-1, keepdims=True))
            _backprop(ensemble, acts, g, _relu_grad, xb, input_grad=False, out=ensemble_g)
            params -= hp.lr * grads
            batch_loss_sums[:, epoch] += losses
    # held-out accuracy + training entropy percentiles, a batch of rows at a time as in train_vae
    p_held, p_train = ([_mean_posterior(_forward(ensemble, x_all[rows[lo:lo + hp.batch]], _relu))
                        for lo in range(0, len(rows), hp.batch)] for rows in (held, train))
    acc = float(np.mean(np.argmax(np.concatenate(p_held), axis=1) == y_all[held]))
    ents = _row_entropy(np.concatenate(p_train))
    n_batches = -(-len(train) // hp.batch)
    report = TrainingReport(
        loss_curve=(batch_loss_sums / n_batches).mean(axis=0).tolist(), heldout_accuracy=acc,
        entropy_percentiles={str(q): float(np.percentile(ents, q)) for q in (20, 50, 80)},
    )
    return ensemble, report


# fork, named: spawn and forkserver re-import numpy and re-run a script's module
# code; Windows has no fork and macOS's Accelerate breaks under it, so run in turn
_FORK_WORKER = sys.platform.startswith("linux")
# OpenBLAS's thread-count getter and setter, by the names numpy's and scipy's
# builds and a plain build export; an environment variable cannot set the count,
# since OpenBLAS reads it only when it loads
_BLAS_THREAD_CALLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                      for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


@functools.cache
def _blas_libraries():
    """(file name, getter, setter) of each loaded OpenBLAS library that
    exports a known pair, found once, at the first call: the process's memory
    map names the libraries. Empty where there is no map (off Linux) or no
    such library; training then runs at the libraries' own thread counts."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # unmapped or replaced since the map was read
            continue
        for get_name, set_name in _BLAS_THREAD_CALLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                found.append((os.path.basename(path), get, set_))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Each library of ``_blas_libraries`` at one thread inside the block, and
    at its former count after it, also when the block raises. Yields the
    counts the block runs at by file name."""
    blas = _blas_libraries()
    counts = [get() for _, get, _ in blas]
    try:
        for _, _, set_ in blas:
            set_(1)
        yield {name: get() for name, get, _ in blas}
    finally:
        for (_, _, set_), count in zip(blas, counts):
            set_(count)


def _timed(fn, *args):
    """``fn(*args)`` and its wall time in seconds."""
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


def _ensemble_worker(send, dataset, *args):
    """The forked worker's body: ``train_ensemble`` on the training rows it
    gathers from the dataset the fork copied, so only this process holds them;
    answered on ``send`` as (True, result, seconds) or (False, exception, None)."""
    try:
        reply = True, *_timed(train_ensemble, dataset.train_inputs(), dataset.train_labels(),
                              *args)
    except Exception as e:  # any failure is the caller's to raise
        reply = False, e, None
    send.send(reply)


def train_bundle(dataset, vae_hp=None, ens_hp=None, n_members=5, seed=0, record=None):
    """Train VAE + ensemble on a Dataset and assemble a ModelBundle.

    The VAE gathers its batches from the dataset's inputs through the
    training rows' index. With ``_FORK_WORKER`` the ensemble trains in a
    process forked for the call, on the training rows it gathers from the
    inputs it inherits, while the VAE trains here; it answers on a pipe and is
    stopped when the call ends, so a VAE failure raises at once. Both
    processes run at one BLAS thread (``_one_blas_thread``). The bytes, and
    the error raised (the VAE's first), are those of training in turn; a
    worker that ends without answering raises ``TrainingWorkerLost``.

    ``record``, a dict if given, receives ``vae_s`` and ``ensemble_s``, each
    job's own wall time, and ``blas_threads``, the thread count each BLAS
    library trained at by its file name.
    """
    vae_hp = vae_hp or VaeHyperparams()
    ens_hp = ens_hp or EnsembleHyperparams()
    rows = np.flatnonzero(dataset.split == "train")
    with _one_blas_thread() as threads:
        if _FORK_WORKER:
            ctx = multiprocessing.get_context("fork")
            answer, send = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_ensemble_worker,
                                 args=(send, dataset, n_members, ens_hp, seed))
            with answer:
                with send:  # the worker holds the only send end: its exit ends the pipe
                    worker.start()
                try:
                    (enc, dec, vrep), vae_s = _timed(train_vae, dataset.inputs, vae_hp, seed, rows)
                    try:
                        ok, result, ensemble_s = answer.recv()
                    except EOFError:
                        worker.join()
                        code = worker.exitcode
                        how = (f"exited with code {code}" if code >= 0
                               else f"was killed by signal {-code}")
                        raise TrainingWorkerLost(f"the ensemble's training worker {how} "
                                                 f"and sent no result") from None
                    if not ok:
                        raise result
                finally:
                    worker.terminate()
                    worker.join()
        else:
            (enc, dec, vrep), vae_s = _timed(train_vae, dataset.inputs, vae_hp, seed, rows)
            result, ensemble_s = _timed(train_ensemble, dataset.train_inputs(),
                                        dataset.train_labels(), n_members, ens_hp, seed)
    if record is not None:
        record.update(vae_s=vae_s, ensemble_s=ensemble_s, blas_threads=threads)
    ensemble, erep = result
    return ModelBundle(encoder=enc, decoder=dec, ensemble=ensemble, seed=seed,
                       vae_report=vrep, ensemble_report=erep)


# ---------------------------------------------------------------------------
# persistence: a bundle's store blob holds every parameter tensor in manifest order


def _bundle_tensors(bundle):
    named = [("encoder", bundle.encoder), ("decoder", bundle.decoder)]
    named += [(f"ensemble{e}", _member(bundle, e)) for e in range(bundle.n_members)]
    return [(f"{name}.{kind}{i}", arrays[i])
            for name, mlp in named for i in range(len(mlp.weights))
            for kind, arrays in (("w", mlp.weights), ("b", mlp.biases))]


_FINITE = store.Rule(float)
# a bundle manifest's fields; its tensor names must name the three networks' layers
BUNDLE_FIELDS = {"seed": store.Rule(int, ge=0),
                 "vae_report": {"loss_curve": [_FINITE], "final_loss": _FINITE,
                                "mean_recon_l1": _FINITE},
                 "ensemble_report": {"heldout_accuracy": _FINITE, "entropy_percentiles":
                                     {"20": _FINITE, "50": _FINITE, "80": _FINITE}},
                 "tensors": [{"name": store.Rule(str), "shape": [store.Rule(int, ge=0)]}]}


def save_bundle(bundle, directory):
    tensors = _bundle_tensors(bundle)
    manifest = {"seed": bundle.seed,
                "tensors": [{"name": n, "shape": list(t.shape)} for n, t in tensors]}
    for report, table in BUNDLE_FIELDS.items():
        if isinstance(table, dict):
            manifest[report] = {k: getattr(getattr(bundle, report), k) for k in table}
    store.save_store(directory, manifest, "weights.bin", [t for _, t in tensors])


def _shape_error(encoder, decoder, members):
    """Why the three networks' weights do not fit together, or None."""
    nets = [("encoder", encoder), ("decoder", decoder)]
    nets += [(f"ensemble{e}", m) for e, m in enumerate(members)]
    for name, mlp in nets:
        if not mlp.weights:
            return f"{name} has no layers"
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            if w.ndim != 2 or b.shape != w.shape[1:]:
                return f"{name} layer {i} has weights {w.shape} and biases {b.shape}"
            if i and w.shape[0] != mlp.weights[i - 1].shape[1]:
                return (f"{name}.w{i} takes {w.shape[0]} inputs, layer {i - 1} "
                        f"gives {mlp.weights[i - 1].shape[1]}")
    if not members:
        return "the ensemble has no members"
    d_in, m_latent = encoder.weights[0].shape[0], decoder.weights[0].shape[0]
    if encoder.weights[-1].shape[1] != 2 * m_latent:
        return (f"the encoder gives {encoder.weights[-1].shape[1]} outputs, "
                f"not 2 x the decoder's {m_latent} inputs")
    if decoder.weights[-1].shape[1] != d_in or members[0].weights[0].shape[0] != d_in:
        return (f"encoder input {d_in}, decoder output {decoder.weights[-1].shape[1]} "
                f"and ensemble input {members[0].weights[0].shape[0]} differ")
    shapes = [[w.shape for w in m.weights] for m in members]
    if any(s != shapes[0] for s in shapes):
        return f"the ensemble members have different shapes {shapes}"
    return None


def load_bundle(directory):
    """Read a bundle written by ``save_bundle``; a manifest that
    ``BUNDLE_FIELDS`` refuses, a weights blob whose length does not match it,
    or tensors that do not form the three networks raise ``ValueError``, as
    do a repeated tensor name and a tensor that no network reads. Layer and
    member counts come from the tensor names."""
    def build(manifest, tensors):
        names = [entry["name"] for entry in manifest["tensors"]]
        arrays = dict(zip(names, tensors))
        if len(arrays) < len(names):
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"tensor {twice!r} is named twice")

        def _count(name):  # how many i give a tensor ``name.format(i)``
            return next(i for i in itertools.count() if name.format(i) not in arrays)

        def _mlp(prefix):
            n = _count(prefix + ".w{}")
            return MLP(weights=[arrays[f"{prefix}.w{i}"] for i in range(n)],
                       biases=[arrays[f"{prefix}.b{i}"] for i in range(n)])

        encoder, decoder = _mlp("encoder"), _mlp("decoder")
        members = [_mlp(f"ensemble{e}") for e in range(_count("ensemble{}.w0"))]
        problem = _shape_error(encoder, decoder, members)
        if problem:
            raise ValueError(f"its tensors do not form the bundle's networks: {problem}")
        store.check_fields(BUNDLE_FIELDS, manifest)
        reports = {report: TrainingReport(**{k: manifest[report][k] for k in table})
                   for report, table in BUNDLE_FIELDS.items() if isinstance(table, dict)}
        bundle = ModelBundle(encoder=encoder, decoder=decoder, ensemble=_stack(members),
                             seed=manifest["seed"], **reports)
        read = {name for name, _ in _bundle_tensors(bundle)}
        unread = [name for name in names if name not in read]
        if unread:
            raise ValueError(f"no network reads tensor {unread[0]!r}")
        return bundle

    def shapes(manifest):  # the names and shapes are checked before the shapes size the blob
        store.check_fields({"tensors": BUNDLE_FIELDS["tensors"]}, manifest)
        return [tuple(e["shape"]) for e in manifest["tensors"]]

    return store.load_store(directory, "weights.bin", shapes, build)
