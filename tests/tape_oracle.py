"""The bundle's networks and the diversity metrics on the autodiff tape.

The package runs every forward and backward pass on plain numpy with
hand-derived gradients. The graphs here build the same computations on
``diffcore``'s tape, and the tests compare the numpy kernels against them:
the search objective, the diversity gradients, the mapper fit's step, the
numpy forward, and training. ``train_vae`` and ``train_ensemble`` are the
tape training loops that the numpy loops in ``models`` must reproduce bit
for bit.
"""

from math import comb

import numpy as np
from scipy.special import expit, xlogy

import cluekit.diffcore as dc
from cluekit import diversity as div, models


def _mlp_graph(params, x, hidden_act):
    """MLP forward on the tape, as ``models._forward``: ``params`` alternates
    weight and bias, and a vector input loses its row axis in the output."""
    vec = x.data.ndim == 1
    h = dc.reshape(x, (1, -1)) if vec else x
    n = len(params) // 2
    for i in range(n):
        h = dc.affine(h, params[2 * i], params[2 * i + 1])
        if i < n - 1:
            h = hidden_act(h)
    return dc.reshape(h, h.shape[:-2] + h.shape[-1:]) if vec else h


def _params(mlp):
    return [a for wb in zip(mlp.weights, mlp.biases) for a in wb]


def encode_graph(bundle, x):
    """Encoder mean as a graph node. ``x`` is a Tensor vector or matrix."""
    return dc.cols(_mlp_graph(_params(bundle.encoder), x, dc.tanh), 0, bundle.m_latent)


def decode_logits_graph(bundle, z):
    return _mlp_graph(_params(bundle.decoder), z, dc.tanh)


def decode_graph(bundle, z):
    """Decoder output in [0,1] as a graph node."""
    return dc.sigmoid(decode_logits_graph(bundle, z))


def member_probs_graph(bundle, x):
    """Every member's class posterior as one graph node: E x c' for a vector
    input, E x n x c' for an n x d' matrix."""
    return dc.softmax(_mlp_graph(_params(bundle.ensemble), x, dc.relu), axis=-1)


def posterior_graph(bundle, x):
    """Ensemble-mean class posterior as a graph node (vector input)."""
    return dc.mul(dc.tsum(member_probs_graph(bundle, x), axis=0), 1.0 / bundle.n_members)


def entropy_graph(p):
    """Shannon entropy of a strictly positive simplex node (softmax output)."""
    return dc.mul(dc.tsum(dc.mul(p, dc.log(p))), -1.0)


def diversity_node(spec, points_node, x0=None):
    """Graph node for a differentiable metric over a k x dim Tensor."""
    k = points_node.shape[0]
    if spec.metric == "dpp":
        if k == 1:
            return dc.Tensor(0.0)
        dmat = dc.pairwise_dist(points_node)
        kern = dc.recip(dc.add(dmat, 1.0))
        return dc.det(kern)
    if spec.metric == "apd":
        if k == 1:
            return dc.Tensor(0.0)
        dmat = dc.pairwise_dist(points_node)
        return dc.mul(dc.tsum(dmat), 1.0 / (2.0 * comb(k, 2)))
    if spec.metric == "coverage":
        diff = dc.sub(points_node, dc.Tensor(np.asarray(x0, dtype=np.float64)))
        pos = dc.amax(diff, axis=0)
        neg = dc.amax(dc.mul(diff, -1.0), axis=0)
        return dc.mul(dc.tsum(dc.add(pos, neg)), 1.0 / points_node.shape[1])
    raise div._not_differentiable(spec.metric)


# ---------------------------------------------------------------------------
# training on the tape


def _mlp_tensors(mlp):
    return [dc.Tensor(a, requires_grad=True) for a in _params(mlp)]


def _sgd_step(tensors, lr):
    for t in tensors:
        if t.grad is not None:
            t.data = t.data - lr * t.grad


def _write_back(mlp, tensors):
    for i in range(len(mlp.weights)):
        mlp.weights[i] = tensors[2 * i].data
        mlp.biases[i] = tensors[2 * i + 1].data


def train_vae(dataset_inputs, hyperparams, seed):
    """``models.train_vae`` with one tape graph per batch."""
    x_all = np.asarray(dataset_inputs, dtype=np.float64)
    hp = hyperparams
    d = x_all.shape[1]
    m = hp.latent
    rng = np.random.default_rng([seed, 0])
    enc = models._init_mlp(rng, [d, hp.hidden, hp.hidden, 2 * m])
    dec = models._init_mlp(rng, [m, hp.hidden, hp.hidden, d])
    enc_t = _mlp_tensors(enc)
    dec_t = _mlp_tensors(dec)
    params = enc_t + dec_t

    n = x_all.shape[0]
    curve = []
    for epoch in range(hp.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, hp.batch):
            idx = perm[lo:lo + hp.batch]
            xb = dc.Tensor(x_all[idx])
            h = _mlp_graph(enc_t, xb, dc.tanh)
            mu = dc.cols(h, 0, m)
            logvar = dc.cols(h, m, 2 * m)
            eps = rng.standard_normal((len(idx), m))
            z = dc.add(mu, dc.mul(dc.exp(dc.mul(logvar, 0.5)), dc.Tensor(eps)))
            logits = _mlp_graph(dec_t, z, dc.tanh)
            recon = dc.tsum(dc.sub(dc.softplus(logits), dc.mul(xb, logits)))
            kl = dc.mul(dc.tsum(dc.sub(dc.add(dc.mul(mu, mu), dc.exp(logvar)),
                                       dc.add(logvar, 1.0))), 0.5 * hp.kl_weight)
            loss = dc.mul(dc.add(recon, kl), 1.0 / len(idx))
            loss.backward()
            _sgd_step(params, hp.lr)
            epoch_loss += float(loss.data) * len(idx)
        curve.append(epoch_loss / n)

    _write_back(enc, enc_t)
    _write_back(dec, dec_t)
    mu = models._forward(enc, x_all, np.tanh)[:, :m]
    xhat = expit(models._forward(dec, mu, np.tanh))
    mean_l1 = float(np.mean(np.sum(np.abs(xhat - x_all), axis=1)))
    report = models.TrainingReport(loss_curve=curve, final_loss=curve[-1],
                                   mean_recon_l1=mean_l1)
    return enc, dec, report


def train_ensemble(inputs, labels, n_members, hyperparams, seed):
    """``models.train_ensemble`` with one stacked tape graph per batch."""
    x_all = np.asarray(inputs, dtype=np.float64)
    y_all = np.asarray(labels, dtype=np.int64)
    c = int(y_all.max()) + 1
    hp = hyperparams
    d = x_all.shape[1]
    perm = np.random.default_rng([seed, 999]).permutation(len(x_all))
    n_held = max(1, int(len(x_all) * models.HELDOUT_FRAC))
    held, train = perm[:n_held], perm[n_held:]
    xt, yt = x_all[train], y_all[train]

    rngs = [np.random.default_rng([seed, 1 + e]) for e in range(n_members)]
    ensemble = models._stack([models._init_mlp(rng, [d, hp.hidden, hp.hidden, c])
                              for rng in rngs])
    ts = _mlp_tensors(ensemble)
    onehot = np.eye(c)[yt]
    batch_loss_sums = np.zeros((n_members, hp.epochs))
    for epoch in range(hp.epochs):
        orders = np.stack([rng.permutation(len(xt)) for rng in rngs])
        for lo in range(0, len(xt), hp.batch):
            idx = orders[:, lo:lo + hp.batch]
            p = dc.softmax(_mlp_graph(ts, dc.Tensor(xt[idx]), dc.relu), axis=-1)
            losses = dc.mul(dc.tsum(dc.mul(dc.Tensor(onehot[idx]), dc.log(p)), axis=(1, 2)),
                            -1.0 / idx.shape[1])
            dc.tsum(losses).backward()
            _sgd_step(ts, hp.lr)
            batch_loss_sums[:, epoch] += losses.data
    _write_back(ensemble, ts)

    p_held, p_train = (models._softmax(models._forward(ensemble, xs, models._relu)).mean(axis=0)
                       for xs in (x_all[held], xt))
    acc = float(np.mean(np.argmax(p_held, axis=1) == y_all[held]))
    ents = -np.sum(xlogy(p_train, p_train), axis=1)
    n_batches = -(-len(xt) // hp.batch)
    report = models.TrainingReport(
        loss_curve=(batch_loss_sums / n_batches).mean(axis=0).tolist(), heldout_accuracy=acc,
        entropy_percentiles={str(q): float(np.percentile(ents, q)) for q in (20, 50, 80)},
    )
    return ensemble, report
