"""Constrained counterfactual search in latent space.

Implements the uncertainty + distance objective, the l2 ball projection,
the five initialization schemes, the projected-gradient descent loop
that produces sets of candidate counterfactuals, and the one scorer
(``_score``) that ends every method, GLAM's translations included.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import diffcore as dc
from . import models, store
from .store import EXTENDED


SCHEMES = ("s1", "s2", "s3", "s4", "s5")
S5_STEPS = 40  # the ascent steps of an s5 walk out to the ball's radius


def _setting(default, *rule, **bound):  # a config field, its default and its rule
    return field(default=default, metadata={"rule": store.Rule(*rule, **bound)})


@dataclass
class ExperimentConfig:
    delta: float = _setting(math.inf, EXTENDED, gt=0)  # latent l2 radius (inf = unconstrained)
    # the counts' upper bounds lie far above any desk-scale run
    k: int = _setting(1, int, ge=1, le=1_000)  # number of counterfactuals
    r: float = _setting(0.0, float, ge=0)  # initialization radius
    scheme: str = _setting("s1", SCHEMES)
    lambda_x: float = _setting(0.0, float, ge=0)  # input-distance weight
    lambda_y: float = _setting(0.0, float, ge=0)  # prediction-distance weight
    lambda_d: float = _setting(0.0, float, ge=0)  # diversity weight
    n_i: int = _setting(0, int, ge=0, le=100_000)  # diversity pre-search steps
    lr: float = _setting(0.1, float, gt=0)
    iters: int = _setting(30, int, ge=1, le=100_000)
    h_threshold: float = _setting(math.inf, EXTENDED)  # acceptance entropy (inf accepts all)
    seed: int = _setting(0, int, ge=0)

    def __post_init__(self):
        for f in fields(self):
            f.metadata["rule"].check(f.name, getattr(self, f.name))


@dataclass
class CandidateCE:
    z: np.ndarray
    x: np.ndarray
    posterior: np.ndarray
    entropy: float
    d_x: float  # l1 input distance to x0
    d_y: float  # prediction distance (cross-entropy vs original hard label)
    rho: float  # latent l2 distance to z0
    cost: float  # entropy + lambda_x d_x + lambda_y d_y
    label: int
    accepted: bool
    start_index: int
    trajectory: np.ndarray | None = None  # iters+1 x m' when tracing


@dataclass
class CESet:
    candidates: list
    config: ExperimentConfig
    x0: np.ndarray
    z0: np.ndarray

    def accepted(self):
        return [c for c in self.candidates if c.accepted]


def objective(z, x0, bundle, lambda_x, lambda_y, x0_label):
    """Loss H(y | decode(z)) + lambda_x l1(decode(z), x0) + lambda_y d_y, and its z-gradient.

    With x = decode(z) and p the ensemble-mean posterior at x, the terms
    are h = H(p) = -sum p log p, d_x = sum |x - x0| and d_y = -log
    p[x0_label], the cross-entropy of p against the original input's hard
    label. A term of weight 0 is not computed, and then x0 or x0_label is
    not read. The forward and the hand-derived backward run in numpy; the
    loss is one tape node that carries their z-gradient. A non-finite
    term or total raises FloatingPointError.
    """
    zt = dc.Tensor(z, requires_grad=True)
    x, decoder_grad = models._decode_with_grad(bundle, zt.data)
    p, posterior_grad = models._posterior_with_grad(bundle, x)
    logp = np.log(p)
    h = -np.add.reduce(p * logp)
    gp = -(logp + 1.0)  # dH/dp
    # the weighted terms in the order they are checked and added to h; d_y
    # enters dL/dp before the posterior's backward, d_x enters dL/dx after it
    terms = []
    if lambda_y > 0.0:
        terms.append(("prediction-distance", -logp[x0_label], lambda_y))
        gp[x0_label] -= lambda_y / p[x0_label]
    gx = posterior_grad(gp)
    if lambda_x > 0.0:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != x.shape:
            raise dc.ShapeError(f"objective: x0 shape {x0.shape} != {x.shape}")
        diff = x - x0
        terms.insert(0, ("input-distance", np.add.reduce(np.abs(diff)), lambda_x))
        gx += lambda_x * np.sign(diff)
    value = h
    for name, term, weight in terms:
        if not math.isfinite(term):
            raise FloatingPointError(f"objective: {name} term is non-finite")
        value = value + term * weight
    if not math.isfinite(h):
        raise FloatingPointError("objective: entropy term is non-finite")
    if not math.isfinite(value):
        raise FloatingPointError("objective: total loss is non-finite")
    grad = decoder_grad(gx)
    loss = dc.Tensor(value, _parents=(zt,), op="objective")
    loss._backward = lambda g: zt._accum(g * grad)
    loss.backward()
    return float(loss.data), zt.grad


def project_to_ball(z, z0, delta):
    """Project z onto the l2 ball of radius delta around z0 (idempotent)."""
    z = np.asarray(z, dtype=np.float64)
    if math.isinf(delta):
        return z
    z0 = np.asarray(z0, dtype=np.float64)
    diff = z - z0
    norm = math.sqrt(diff @ diff)  # np.linalg.norm(diff), bit for bit
    # the relative slack absorbs rounding in the rescale, which makes a
    # second projection return its input unchanged (bitwise idempotence)
    if norm <= delta * (1.0 + 1e-12):
        return z
    return z0 + delta * (diff / norm)


@dataclass
class InitContext:
    """The start data of scheme s2: the latents and labels of the certain
    training points."""

    certain_latents: np.ndarray
    certain_labels: np.ndarray


def candidate_rng(seed, i):
    """Counter-split RNG stream for candidate i, independent of run order."""
    return np.random.default_rng([seed, 17, i])


def _uniform_direction(rng, m):
    g = rng.standard_normal(m)
    n = np.linalg.norm(g)
    while n == 0.0:
        g = rng.standard_normal(m)
        n = np.linalg.norm(g)
    return g / n


def _random_start(scheme, z0, r, rng):
    """A start of scheme s1, s3 or s4 within radius r of z0, drawn from
    ``rng``: s1 at a uniform radius, s3 at a half-normal one (scale r/2,
    redrawn past r), s4 uniform in the cube, redrawn outside the ball."""
    m = len(z0)
    if scheme == "s1":
        radius = rng.uniform(0.0, r)
        return z0 + radius * _uniform_direction(rng, m)
    if scheme == "s3":
        radius = abs(rng.normal(0.0, r / 2.0))
        while radius > r:
            radius = abs(rng.normal(0.0, r / 2.0))
        return z0 + radius * _uniform_direction(rng, m)
    z = z0 + rng.uniform(-r, r, size=m)
    while np.linalg.norm(z - z0) > r:
        z = z0 + rng.uniform(-r, r, size=m)
    return z


def _s2_way(z0, y, delta, ctx):
    """The way toward class y's nearest certain latent: the point at fraction
    f lies f * delta along the line to it (f may pass 1)."""
    mask = np.asarray(ctx.certain_labels) == y
    if not np.any(mask):
        raise ValueError(f"scheme s2: no certain training point in class {y}")
    latents = np.asarray(ctx.certain_latents)[mask]
    dists = np.linalg.norm(latents - z0, axis=1)
    zy = latents[int(np.argmin(dists))]
    denom = float(np.linalg.norm(zy - z0))
    if denom == 0.0:
        return lambda f: z0.copy()
    return lambda f: z0 + delta * f * (zy - z0) / denom


def _s5_way(z0, y, delta, bundle):
    """Walk S5_STEPS normalized ascent steps on p(class=y | decode(z)) out to
    radius delta; the point at fraction f lies at arc-length fraction
    min(f, 1) along the path."""
    step = delta / S5_STEPS
    onehot = np.eye(bundle.c_classes)[y]
    path, z = [z0], z0
    for _ in range(S5_STEPS):
        x, decoder_grad = models._decode_with_grad(bundle, z)
        _, posterior_grad = models._posterior_with_grad(bundle, x)
        g = decoder_grad(posterior_grad(onehot))  # the gradient of p_y
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        z = z + step * (g / gn)
        path.append(z)  # t steps of delta / S5_STEPS stay in the delta ball

    def at(f):
        idx = min(f, 1.0) * (len(path) - 1)
        lo = int(idx)
        hi, t = min(lo + 1, len(path) - 1), idx - lo
        return (1.0 - t) * path[lo] + t * path[hi]
    return at


def coincident_starts(config, sequential=False):
    """Whether all k >= 2 start points sit at z0 (r = 0), so that the k
    descents give k copies of one candidate. Sequential searches at
    lambda_d > 0 are exempt: each descent is repelled from the points found
    before it."""
    return config.k >= 2 and config.r == 0.0 and not (sequential and config.lambda_d > 0.0)


def make_starts(z0, config, bundle, context=None, sequential=False):
    """The k start points, each projected into the delta ball; k copies of
    z0 (``coincident_starts``) raise ValueError. s2 and s5 build one way
    toward each of the first min(k, c') classes (s2 on the certain points of
    ``context``); start i is the point at fraction (i // c' + 1) / max(k // c', 1)
    of the way to class i mod c'."""
    if coincident_starts(config, sequential):
        raise ValueError(f"k={config.k} start points need r > 0: at r=0 they all sit at z0, "
                         f"so the search gives {config.k} identical candidates")
    k, r, delta = config.k, config.r, config.delta
    if r == 0.0:
        return [z0.copy() for _ in range(k)]
    if config.scheme in ("s1", "s3", "s4"):
        starts = [_random_start(config.scheme, z0, r, candidate_rng(config.seed, i))
                  for i in range(k)]
    elif config.scheme == "s2" and context is None:
        raise ValueError("scheme s2 needs an InitContext of certain latents and labels")
    else:
        c, reach = bundle.c_classes, delta if math.isfinite(delta) else r
        way, data = (_s2_way, context) if config.scheme == "s2" else (_s5_way, bundle)
        ways = [way(z0, y, reach, data) for y in range(min(k, c))]
        starts = [ways[i % c]((i // c + 1) / max(k // c, 1)) for i in range(k)]
    return [project_to_ball(z, z0, delta) for z in starts]


def _descend(starts, z0, x0, bundle, config, x0_label, trace=False, repel=None):
    """Projected-gradient descent of the start points in lockstep; the
    projection is applied after every step.

    ``repel(zs) -> (value, grads)`` is an optional set-wide term added to
    the objective at every step. Returns the end points, the trajectories
    (None each unless traced) and the loss at each step: the mean objective
    plus the repel value.
    """
    zs = [np.array(z, dtype=np.float64) for z in starts]
    k = len(zs)
    trajs = [[z.copy()] for z in zs] if trace else None
    vals, grads, losses = [0.0] * k, [None] * k, []
    for _ in range(config.iters):
        # updated in place: rebuilding the lists every step is loop overhead
        for i in range(k):
            vals[i], grads[i] = objective(zs[i], x0, bundle, config.lambda_x,
                                          config.lambda_y, x0_label)
        # bitwise np.mean(vals) without its call overhead; the mean of one
        # point's value is that value
        loss = vals[0] if k == 1 else float(np.add.reduce(vals)) / k
        if repel is not None:
            rv, rgs = repel(zs)
            loss += rv
            for i in range(k):
                grads[i] += rgs[i]
        losses.append(loss)
        for i in range(k):
            zs[i] = project_to_ball(zs[i] - config.lr * grads[i], z0, config.delta)
        if trace:
            for t, z in zip(trajs, zs):
                t.append(z.copy())
    trajs = [np.stack(t) for t in trajs] if trace else [None] * k
    return zs, trajs, losses


def _setup(x0, bundle):
    """The input as float64, its latent z0 and its predicted label."""
    x0 = np.asarray(x0, dtype=np.float64)
    return x0, models.encode(bundle, x0), models.argmax_label(models.predict(bundle, x0))


def _score(z, x, x0, z0, bundle, lambda_x, lambda_y=0.0, x0_label=None,
           h_threshold=math.inf, start_index=0, trajectory=None):
    """The counterfactual ``x`` (latent ``z``) of the input ``x0`` (latent
    ``z0``) as a scored candidate, in one predict: every method's last step.

    d_y is 0.0 without ``x0_label``. A non-finite latent distance to z0 (a
    diverged search) or cost raises ``FloatingPointError``.
    """
    rho = float(np.linalg.norm(z - z0))
    if not math.isfinite(rho):
        raise FloatingPointError(f"candidate {start_index} diverged: its latent distance "
                                 f"to z0 is {rho} (lower lr, or bound it with delta)")
    p = models.predict(bundle, x)
    h = models.entropy(p)
    d_x = float(np.abs(x - x0).sum())
    d_y = 0.0 if x0_label is None else float(-np.log(max(p[x0_label], 1e-300)))
    cost = h + lambda_x * d_x + lambda_y * d_y
    if not math.isfinite(cost):
        raise FloatingPointError(f"candidate {start_index}'s cost is {cost}: the score "
                                 f"diverged (lower lambda_x or lambda_y)")
    return CandidateCE(z=z, x=x, posterior=p, entropy=h, d_x=d_x, d_y=d_y,
                       rho=rho, cost=cost, label=models.argmax_label(p),
                       accepted=bool(h < h_threshold), start_index=start_index,
                       trajectory=trajectory)


def make_candidate(z, x0, z0, bundle, config, start_index, x0_label, trajectory=None):
    """The search end point ``z`` decoded and scored by ``_score``."""
    return _score(z, models.decode(bundle, z), x0, z0, bundle, config.lambda_x,
                  config.lambda_y, x0_label, config.h_threshold, start_index, trajectory)


def _ceset(zs, trajs, x0, z0, bundle, config, x0_label):
    """The decoded, scored candidates of a search; ``trajs`` holds None per
    candidate when untraced."""
    candidates = [make_candidate(z, x0, z0, bundle, config, i, x0_label, t)
                  for i, (z, t) in enumerate(zip(zs, trajs))]
    return CESet(candidates=candidates, config=config, x0=x0, z0=z0)


def delta_clue(x0, bundle, config, context=None, trace=False):
    """k independent projected-gradient descents from scheme-chosen starts.

    Every terminal candidate is decoded and flagged accepted iff its
    entropy is below the configured threshold; an empty accepted set is a
    valid outcome.
    """
    x0, z0, x0_label = _setup(x0, bundle)
    zs, trajs, _ = _descend(make_starts(z0, config, bundle, context), z0, x0, bundle, config,
                            x0_label, trace)
    return _ceset(zs, trajs, x0, z0, bundle, config, x0_label)


def label_distribution(ceset):
    """Length-c' simplex from inverse-square minimum cost per class.

    A class whose minimum cost is 0 receives all mass (split equally over
    zero-cost classes if several).
    """
    cands = ceset.accepted()
    if not cands:
        raise ValueError("label_distribution: no accepted candidates")
    c = len(cands[0].posterior)
    min_cost = {}
    for cand in cands:
        cur = min_cost.get(cand.label)
        if cur is None or cand.cost < cur:
            min_cost[cand.label] = cand.cost
    weights = np.zeros(c)
    zero_classes = [j for j, v in min_cost.items() if v == 0.0]
    if zero_classes:
        for j in zero_classes:
            weights[j] = 1.0
    else:
        for j, v in min_cost.items():
            weights[j] = 1.0 / (v * v)
    return weights / weights.sum()


_NUMBER, _NUMBERS, _INDEX = store.Rule(float), [store.Rule(float)], store.Rule(int, ge=0)
# a candidate's entry in a ceset file: each field but the trajectory, arrays as
# lists; ExperimentConfig checks the config's settings
CANDIDATE_FIELDS = {"z": _NUMBERS, "x": _NUMBERS, "posterior": _NUMBERS, "entropy": _NUMBER,
                    "d_x": _NUMBER, "d_y": _NUMBER, "rho": _NUMBER, "cost": _NUMBER,
                    "label": _INDEX, "accepted": store.Rule(bool), "start_index": _INDEX}
CESET_FIELDS = {"config": {}, "x0": _NUMBERS, "z0": _NUMBERS, "candidates": [CANDIDATE_FIELDS]}


def ceset_to_json(ceset):
    """JSON-serializable export with config echo and per-candidate fields."""
    return {"config": {k: store.to_json(v) for k, v in asdict(ceset.config).items()},
            "x0": ceset.x0.tolist(), "z0": ceset.z0.tolist(),
            "candidates": [{k: getattr(c, k).tolist() if isinstance(rule, list) else getattr(c, k)
                            for k, rule in CANDIDATE_FIELDS.items()} for c in ceset.candidates]}


def dump_ceset(ceset, path):
    store.write_file(path, store.json_text(ceset_to_json(ceset)))


def ceset_from_json(payload):
    """The CESet of a ``ceset_to_json`` payload; one that ``CESET_FIELDS``
    refuses, or whose candidates hold another field, raises ``ValueError``.
    A config value of "inf" or "-inf", or a bare ``Infinity`` of older files,
    reads as a float where the setting's rule is ``EXTENDED``."""
    store.check_fields(CESET_FIELDS, payload)
    if unknown := {k for e in payload["candidates"] for k in e} - set(CANDIDATE_FIELDS):
        raise ValueError(f"candidates hold fields {sorted(unknown)} that no ceset file holds")
    rules = {f.name: f.metadata["rule"] for f in fields(ExperimentConfig)}
    config = {k: rules[k].from_json(v) if k in rules else v for k, v in payload["config"].items()}
    candidates = [CandidateCE(**{k: np.array(e[k], dtype=np.float64) if isinstance(rule, list)
                                 else e[k] for k, rule in CANDIDATE_FIELDS.items()})
                  for e in payload["candidates"]]
    return CESet(config=ExperimentConfig(**config), candidates=candidates,
                 x0=np.array(payload["x0"], dtype=np.float64),
                 z0=np.array(payload["z0"], dtype=np.float64))


def load_ceset(path):
    """Read a file written by ``dump_ceset``; a malformed one, or one with no
    candidates, raises ``ValueError``."""
    ceset = store.read_json(path, ceset_from_json)
    if not ceset.candidates:
        raise ValueError(f"{path} holds no candidates")
    return ceset
