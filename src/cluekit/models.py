"""Desk-scale differentiable probabilistic models.

A ``ModelBundle`` holds a VAE (MLP encoder returning a latent mean and
log-variance, MLP decoder with a sigmoid output head) and an ensemble of
independent MLP classifiers. Predictive uncertainty is the entropy of the
ensemble-averaged class posterior.

The ensemble is one stacked ``MLP`` whose layer i holds all E members'
weights as an E x in x out array, so each layer of all members is one
matmul. The dimensions d', m', c' and E are read from the weight shapes;
a saved bundle records shapes only in its manifest's ``tensors`` list.

One numpy forward (``_forward``) and its hand-derived backward
(``_backprop``) serve every use of the networks. Inference (``encode``,
``decode``, ``predict``) runs the forward alone, on one row or on a batch
of rows in one call; ``predict`` returns the ensemble-mean posterior. The
search objective (``search_objective``), the s5 start walk, the diversity
gradients and the mapper fit take adjoints back to the latent through
``_decode_with_grad`` and ``_posterior_with_grad``; ``search_objective``
returns its loss's z-gradient as an array. Training takes them on
to the weights: given the input as well, ``_backprop`` returns each layer's
weight and bias adjoints. The tests build the same networks on the autodiff
tape as the oracle, and training repeats the tape's arithmetic term by
term, so it gives the tape's weights bit for bit, also where ``train_bundle``
trains the ensemble, while the VAE trains, in a process forked for the call
that inherits the inputs and answers on a pipe (on Linux).
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc

# crude instrumentation for the amortization claims: number of model
# forward passes by kind, incremented on every public forward call
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
    that ``_backprop`` needs.
    """
    ws, bs = mlp.weights, mlp.biases
    for i in range(len(ws) - 1):
        x = x @ ws[i]
        x += bs[i]
        hidden_act(x, out=x)
        if acts is not None:
            acts.append(x)
    x = x @ ws[-1]
    x += bs[-1]
    return x


def _backprop(mlp, acts, g, act_grad, x=None, input_grad=True):
    """Adjoint of ``_forward``'s input from the adjoint ``g`` of its logits.

    Given the input ``x`` as well, returns (input adjoint, weight adjoints,
    bias adjoints), the last two in layer order; the input adjoint is None
    unless ``input_grad``.
    """
    ws = mlp.weights
    if x is None:
        for i in range(len(ws) - 1, 0, -1):
            g = g @ ws[i].swapaxes(-1, -2)
            g *= act_grad(acts[i - 1])
        return g @ ws[0].swapaxes(-1, -2)
    ins, gw, gb = [x, *acts], [], []  # ins[i]: the input of layer i
    for i in range(len(ws) - 1, -1, -1):
        gw.insert(0, ins[i].swapaxes(-1, -2) @ g)
        gb.insert(0, g.sum(axis=-2).reshape(mlp.biases[i].shape))
        if i:
            g = g @ ws[i].swapaxes(-1, -2)
            g *= act_grad(ins[i])
    return (g @ ws[0].swapaxes(-1, -2) if input_grad else None), gw, gb


def _tanh_grad(a):
    return 1.0 - a * a


def _relu_grad(a):
    return a > 0.0


def _decode_with_grad(bundle, z):
    """decode(z) for one latent or a batch, not counted in EVAL_COUNTS, and
    the function that takes an adjoint of the output back to one of ``z``."""
    acts = []
    x = _sigmoid(_forward(bundle.decoder, z, np.tanh, acts))

    def grad(g):
        return _backprop(bundle.decoder, acts, g * x * (1.0 - x), _tanh_grad)

    return x, grad


def _softmax(v):
    e = v - np.maximum.reduce(v, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _posterior_with_grad(bundle, x):
    """The ensemble-mean posterior at one input, not counted in EVAL_COUNTS,
    and the function that takes an adjoint of it back to one of ``x``."""
    acts = []
    s = _softmax(_forward(bundle.ensemble, x[None], _relu, acts))  # E x 1 x c'
    scale = 1.0 / len(s)

    def grad(gp):
        gp = gp * scale  # d/dp of the mean, to each member
        gl = s * (gp - np.add.reduce(s * gp, axis=-1, keepdims=True))  # softmax
        return np.add.reduce(_backprop(bundle.ensemble, acts, gl, _relu_grad))[0]

    return np.add.reduce(s)[0] * scale, grad


def search_objective(bundle, z, x0, lambda_x, lambda_y, label):
    """The search loss at one latent ``z``, split into its terms.

    With x = decode(z) and p the ensemble-mean posterior at x, the loss is
    h + lambda_x * d_x + lambda_y * d_y for h = H(p) = -sum p log p,
    d_x = sum |x - x0| and d_y = -log p[label]; a term whose weight is 0 is
    not computed and reported as 0. Returns (h, d_x, d_y, grad), where grad
    is the loss's gradient in z, an array. Non-finite terms are returned as
    they are, for the caller to reject.
    """
    x, decoder_grad = _decode_with_grad(bundle, z)
    p, posterior_grad = _posterior_with_grad(bundle, x)
    logp = np.log(p)
    h = -np.add.reduce(p * logp)
    gp = -(logp + 1.0)  # dH/dp
    d_x = d_y = 0.0
    if lambda_y > 0.0:
        d_y = -logp[label]
        gp[label] -= lambda_y / p[label]
    gx = posterior_grad(gp)
    if lambda_x > 0.0:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != x.shape:
            raise dc.ShapeError(f"search_objective: x0 shape {x0.shape} != {x.shape}")
        diff = x - x0
        d_x = np.add.reduce(np.abs(diff))
        gx += lambda_x * np.sign(diff)
    return h, d_x, d_y, decoder_grad(gx)


# encode, decode and predict let the first matmul check the input width,
# which costs nothing when it fits: the timed paths call them row by row


def encode(bundle, x):
    """Deterministic latent embedding: the encoder mean (no sampling)."""
    x = np.asarray(x, dtype=np.float64)
    try:
        h = _forward(bundle.encoder, x, np.tanh)
    except ValueError:
        raise dc.ShapeError(f"encode: input length {x.shape[-1]} != d'={bundle.d_in}") from None
    EVAL_COUNTS["encode"] += 1
    return h[..., :h.shape[-1] // 2]


def decode(bundle, z):
    z = np.asarray(z, dtype=np.float64)
    try:
        logits = _forward(bundle.decoder, z, np.tanh)
    except ValueError:
        raise dc.ShapeError(f"decode: latent length {z.shape[-1]} "
                            f"!= m'={bundle.m_latent}") from None
    EVAL_COUNTS["decode"] += 1
    return _sigmoid(logits)


def predict(bundle, x):
    """The ensemble-mean posterior: length c' at one input, n x c' at n x d'."""
    x = np.asarray(x, dtype=np.float64)
    try:
        member = _softmax(_forward(bundle.ensemble, x.reshape(-1, x.shape[-1]), _relu))
    except ValueError:
        raise dc.ShapeError(f"predict: input length {x.shape[-1]} != d'={bundle.d_in}") from None
    EVAL_COUNTS["predict"] += 1
    p = member.sum(axis=0) / len(member)
    return p[0] if x.ndim == 1 else p


def entropy(p):
    """H = -sum p log p in nats, with 0 log 0 := 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"entropy: input is not a probability simplex (sum={p.sum():.6g})")
    return float(-_xlogx(p).sum())


def predict_entropy(bundle, x):
    """H of ``predict`` at one input (a float) or at each row of a batch, in one call."""
    p = predict(bundle, x)
    h = -_xlogx(p).sum(axis=-1)
    return float(h) if p.ndim == 1 else h


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


def _sgd_step(arrays, grads, lr):
    for a, g in zip(arrays, grads):
        a -= lr * g


@dataclass
class VaeHyperparams:
    hidden: int = 64
    latent: int = 8
    lr: float = 0.05
    epochs: int = 60
    batch: int = 128
    kl_weight: float = 0.1  # < 1 avoids posterior collapse at desk scale


def train_vae(dataset_inputs, hyperparams, seed):
    """Standard ELBO training with Gaussian reparameterization.

    Returns (encoder, decoder, report). The encoder's output layer stacks
    mean and log-variance. Divergence (non-finite loss) aborts.
    """
    x_all = np.asarray(dataset_inputs, dtype=np.float64)
    if x_all.size == 0:
        raise ValueError("train_vae: empty dataset")
    if x_all.min() < 0.0 or x_all.max() > 1.0:
        raise ValueError("train_vae: inputs must lie in [0,1]")
    hp = hyperparams
    d = x_all.shape[1]
    m = hp.latent
    rng = np.random.default_rng([seed, 0])
    enc = _init_mlp(rng, [d, hp.hidden, hp.hidden, 2 * m])
    dec = _init_mlp(rng, [m, hp.hidden, hp.hidden, d])
    params = enc.weights + enc.biases + dec.weights + dec.biases

    n = x_all.shape[0]
    curve = []
    for epoch in range(hp.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, hp.batch):
            idx = perm[lo:lo + hp.batch]
            xb = x_all[idx]
            enc_acts, dec_acts = [], []
            h = _forward(enc, xb, np.tanh, enc_acts)
            mu, logvar = h[:, :m], h[:, m:]
            eps = rng.standard_normal((len(idx), m))
            sd = np.exp(logvar * 0.5)
            z = mu + sd * eps
            logits = _forward(dec, z, np.tanh, dec_acts)
            # Bernoulli cross-entropy from logits: softplus(a) - x*a (stable;
            # valid for soft targets)
            recon = np.sum(np.logaddexp(0.0, logits) - xb * logits)
            var = np.exp(logvar)
            kl = np.sum((mu * mu + var) - (logvar + 1.0)) * (0.5 * hp.kl_weight)
            loss = (recon + kl) * (1.0 / len(idx))
            if not np.isfinite(loss):
                raise TrainingDivergence(f"VAE loss diverged at epoch {epoch}")
            # the backward repeats the autodiff tape's arithmetic term by term,
            # so that training gives the tape's weights bit for bit
            g = 1.0 / len(idx)
            g_kl = g * (0.5 * hp.kl_weight)
            g_z, dec_w, dec_b = _backprop(dec, dec_acts, g * dc._stable_sigmoid(logits) - g * xb,
                                          _tanh_grad, z)
            g_mu = (g_z + g_kl * mu) + g_kl * mu
            g_logvar = ((g_z * eps) * sd) * 0.5 + g_kl * var - g_kl
            _, enc_w, enc_b = _backprop(enc, enc_acts, np.concatenate([g_mu, g_logvar], axis=1),
                                        _tanh_grad, xb, input_grad=False)
            _sgd_step(params, enc_w + enc_b + dec_w + dec_b, hp.lr)
            epoch_loss += float(loss) * len(idx)
        curve.append(epoch_loss / n)

    # reconstruction statistic on the training set, in the decoder's output array
    err = _forward(dec, _forward(enc, x_all, np.tanh)[:, :m], np.tanh)
    _sigmoid(err)
    err -= x_all
    mean_l1 = float(np.mean(np.sum(np.abs(err, out=err), axis=1)))

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
    orders from its own rng and sees row e of each E x B x d' batch. Returns
    (ensemble, report). The report's loss curve holds, per epoch, the
    members' mean batch loss averaged over the members.
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
    held, train = perm[:n_held], perm[n_held:]
    xt, yt = x_all[train], y_all[train]

    rngs = [np.random.default_rng([seed, 1 + e]) for e in range(n_members)]
    ensemble = _stack([_init_mlp(rng, [d, hp.hidden, hp.hidden, c]) for rng in rngs])
    params = ensemble.weights + ensemble.biases
    onehot = np.eye(c)[yt]
    batch_loss_sums = np.zeros((n_members, hp.epochs))
    for epoch in range(hp.epochs):
        orders = np.stack([rng.permutation(len(xt)) for rng in rngs])
        for lo in range(0, len(xt), hp.batch):
            idx = orders[:, lo:lo + hp.batch]  # row e: member e's batch
            xb, yb, acts = xt[idx], onehot[idx], []
            p = _softmax(_forward(ensemble, xb, _relu, acts))
            losses = np.sum(yb * np.log(p), axis=(1, 2)) * (-1.0 / idx.shape[1])
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                raise TrainingDivergence(f"ensemble member {bad[0]} diverged at epoch {epoch}")
            g = (yb * (-1.0 / idx.shape[1])) / p  # in the tape's order, as in train_vae
            g = p * (g - (g * p).sum(axis=-1, keepdims=True))
            _, gw, gb = _backprop(ensemble, acts, g, _relu_grad, xb, input_grad=False)
            _sgd_step(params, gw + gb, hp.lr)
            batch_loss_sums[:, epoch] += losses
    # held-out accuracy + training entropy percentiles of the full ensemble
    p_held, p_train = (_softmax(_forward(ensemble, xs, _relu)).mean(axis=0)
                       for xs in (x_all[held], xt))
    acc = float(np.mean(np.argmax(p_held, axis=1) == y_all[held]))
    ents = -np.sum(_xlogx(p_train), axis=1)
    n_batches = -(-len(xt) // hp.batch)
    report = TrainingReport(
        loss_curve=(batch_loss_sums / n_batches).mean(axis=0).tolist(), heldout_accuracy=acc,
        entropy_percentiles={str(q): float(np.percentile(ents, q)) for q in (20, 50, 80)},
    )
    return ensemble, report


# fork, named: spawn and forkserver re-import numpy and re-run a script's module
# code; Windows has no fork and macOS's Accelerate breaks under it, so run in turn
_FORK_WORKER = sys.platform.startswith("linux")


def _ensemble_worker(send, *args):
    """The forked worker's body: ``train_ensemble(*args)`` on the arrays the
    fork copied, answered on ``send`` as (True, result) or (False, exception)."""
    try:
        reply = True, train_ensemble(*args)
    except Exception as e:  # any failure is the caller's to raise
        reply = False, e
    send.send(reply)


def train_bundle(dataset, vae_hp=None, ens_hp=None, n_members=5, seed=0):
    """Train VAE + ensemble on a Dataset and assemble a ModelBundle. With
    ``_FORK_WORKER`` the ensemble trains in a process forked for the call, on
    the inputs it inherits, while the VAE trains here; it answers on a pipe and
    is stopped when the call ends, so a VAE failure raises at once. The bytes,
    and the error raised (the VAE's first), are those of training in turn; a
    worker that ends without answering raises ``TrainingWorkerLost``."""
    vae_hp = vae_hp or VaeHyperparams()
    ens_hp = ens_hp or EnsembleHyperparams()
    xt, yt = dataset.train_inputs(), dataset.train_labels()
    if _FORK_WORKER:
        ctx = multiprocessing.get_context("fork")
        answer, send = ctx.Pipe(duplex=False)
        worker = ctx.Process(target=_ensemble_worker,
                             args=(send, xt, yt, n_members, ens_hp, seed))
        with answer:
            with send:  # the worker holds the only send end: its exit ends the pipe
                worker.start()
            try:
                enc, dec, vrep = train_vae(xt, vae_hp, seed)
                try:
                    ok, result = answer.recv()
                except EOFError:
                    worker.join()
                    code = worker.exitcode
                    how = (f"exited with code {code}" if code >= 0
                           else f"was killed by signal {-code}")
                    raise TrainingWorkerLost(f"the ensemble's training worker {how} "
                                             f"and sent no result") from None
                if not ok:
                    raise result
                ensemble, erep = result
            finally:
                worker.terminate()
                worker.join()
    else:
        enc, dec, vrep = train_vae(xt, vae_hp, seed)
        ensemble, erep = train_ensemble(xt, yt, n_members, ens_hp, seed)
    return ModelBundle(encoder=enc, decoder=dec, ensemble=ensemble, seed=seed,
                       vae_report=vrep, ensemble_report=erep)


# ---------------------------------------------------------------------------
# persistence: a store is one JSON manifest + one raw little-endian float64
# blob; a bundle's blob holds every parameter tensor in manifest order


@contextmanager
def _atomic_open(path, mode="w"):
    """``open(path, mode)`` for writing, through a temp file that replaces
    ``path`` once the block has written it whole; on an error the temp file
    is removed and ``path`` keeps its old content. Every file the package
    writes goes through here."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _json_text(payload):
    """``payload`` as the package writes every JSON file: strict JSON, which
    holds no NaN or Infinity (writing either raises ``ValueError``)."""
    return json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)


def _read_json(path, build):
    """``build`` of the JSON document at ``path``; a KeyError, TypeError or
    IndexError from a malformed one is raised as ``ValueError`` naming it."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    try:
        return build(payload)
    except (KeyError, TypeError, IndexError) as e:
        raise ValueError(f"{path} is malformed: {type(e).__name__} {e}") from e


def _save_store(directory, manifest, blob_name, arrays):
    """Write ``manifest`` to ``directory/manifest.json`` and ``arrays``, in
    order, to one little-endian float64 blob ``directory/blob_name``. Both are
    serialized before either file is replaced, so a manifest or an array that
    cannot be written leaves an old store as it was."""
    text = _json_text(manifest)
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    Path(directory).mkdir(parents=True, exist_ok=True)
    with _atomic_open(Path(directory, "manifest.json")) as f:
        f.write(text)
    with _atomic_open(Path(directory, blob_name), "wb") as f:
        f.write(blob)


def _load_store(directory, blob_name, shapes, build):
    """``build(manifest, arrays, manifest_path)`` for a store written by
    ``_save_store``, its arrays shaped as ``shapes(manifest)`` lists; a blob of
    another length, or a malformed manifest, raises ``ValueError``."""
    manifest_path, blob_path = Path(directory, "manifest.json"), Path(directory, blob_name)

    def _build(manifest):
        raw, dims = blob_path.read_bytes(), shapes(manifest)
        ends = np.cumsum([0] + [int(np.prod(shape)) for shape in dims])
        if len(raw) != 8 * ends[-1]:
            raise ValueError(f"{blob_path} holds {len(raw)} bytes, its manifest "
                             f"needs {8 * ends[-1]}")
        blob = np.frombuffer(raw, dtype="<f8")
        return build(manifest, [blob[lo:hi].reshape(shape).astype(np.float64)
                                for shape, lo, hi in zip(dims, ends, ends[1:])], manifest_path)

    return _read_json(manifest_path, _build)


def _bundle_tensors(bundle):
    named = [("encoder", bundle.encoder), ("decoder", bundle.decoder)]
    named += [(f"ensemble{e}", _member(bundle, e)) for e in range(bundle.n_members)]
    return [(f"{name}.{kind}{i}", arrays[i])
            for name, mlp in named for i in range(len(mlp.weights))
            for kind, arrays in (("w", mlp.weights), ("b", mlp.biases))]


# the TrainingReport fields a bundle's manifest keeps, per report
_REPORT_FIELDS = {"vae_report": ("loss_curve", "final_loss", "mean_recon_l1"),
                  "ensemble_report": ("heldout_accuracy", "entropy_percentiles")}


def save_bundle(bundle, directory):
    tensors = _bundle_tensors(bundle)
    manifest = {"seed": bundle.seed,
                "tensors": [{"name": n, "shape": list(t.shape)} for n, t in tensors]}
    for report, keys in _REPORT_FIELDS.items():
        manifest[report] = {k: getattr(getattr(bundle, report), k) for k in keys}
    _save_store(directory, manifest, "weights.bin", [t for _, t in tensors])


def _shape_error(encoder, decoder, members):
    """Why the three networks' weights do not fit together, or None."""
    nets = [("encoder", encoder), ("decoder", decoder)]
    nets += [(f"ensemble{e}", m) for e, m in enumerate(members)]
    for name, mlp in nets:
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
    """Read a bundle written by ``save_bundle``; a malformed manifest, a
    weights blob whose length does not match it, or tensors that do not form
    the three networks raise ``ValueError``. Layer and member counts come
    from the tensor names."""
    def build(manifest, tensors, manifest_path):
        arrays = {entry["name"]: t for entry, t in zip(manifest["tensors"], tensors)}

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
            raise ValueError(f"{manifest_path}: its tensors do not form the bundle's "
                             f"networks: {problem}")
        reports = {report: TrainingReport(**{k: manifest[report][k] for k in keys})
                   for report, keys in _REPORT_FIELDS.items()}
        return ModelBundle(encoder=encoder, decoder=decoder, ensemble=_stack(members),
                           seed=manifest["seed"], **reports)

    return _load_store(directory, "weights.bin",
                       lambda manifest: [tuple(e["shape"]) for e in manifest["tensors"]], build)
