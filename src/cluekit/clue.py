"""Constrained counterfactual search in latent space.

Implements the uncertainty + distance objective, the l2 ball projection,
the five initialization schemes, and the projected-gradient descent loop
that produces sets of candidate counterfactuals.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import diffcore as dc
from . import models


SCHEMES = ("s1", "s2", "s3", "s4", "s5")
EXTENDED = "extended"  # the kind of a number that may be inf or -inf, but not nan


class Rule(NamedTuple):
    """A setting's kind, which is int, float (a finite number), ``EXTENDED``
    or a tuple of the values allowed, and its bounds ``>= ge`` or ``> gt``,
    and ``<= le``."""

    kind: object
    ge: float | None = None
    gt: float | None = None
    le: float | None = None

    def check(self, key, value):
        """Raise ``ValueError`` naming ``key`` if the rule refuses ``value``."""
        kind = self.kind
        if isinstance(kind, tuple):
            if value not in kind:
                raise ValueError(f"unknown {key} {value!r}; choose from {kind}")
            return
        number = kind is not int
        if isinstance(value, bool) or not isinstance(value, numbers.Real if number else int):
            raise ValueError(f"{key} must be {'a number' if number else 'an int'}, got {value!r}")
        try:
            finite = not number or math.isfinite(value)
        except OverflowError:  # an int past float range
            finite = False
        if not finite and not (kind is EXTENDED and abs(value) == math.inf):
            raise ValueError(f"{key} must be finite{', inf or -inf' if kind is EXTENDED else ''}, "
                             f"got {value!r}")
        if self.ge is not None and not value >= self.ge:
            raise ValueError(f"{key} must be >= {self.ge}, got {value!r}")
        if self.gt is not None and not value > self.gt:
            raise ValueError(f"{key} must be > {self.gt}, got {value!r}")
        if self.le is not None and not value <= self.le:
            raise ValueError(f"{key} must be <= {self.le}, got {value!r}")

    def from_json(self, value):
        """``value`` as a JSON file holds it: an ``EXTENDED`` setting's "inf"
        or "-inf" (see ``to_json``) reads as a float."""
        return float(value) if self.kind is EXTENDED and value in ("inf", "-inf") else value


def to_json(value):
    """``value`` for a JSON file: an infinite float as the string "inf" or
    "-inf", which strict JSON readers take and bare ``Infinity`` is not."""
    return str(value) if isinstance(value, float) and math.isinf(value) else value


def _setting(default, *rule, **bound):  # a config field, its default and its rule
    return field(default=default, metadata={"rule": Rule(*rule, **bound)})


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

    def points(self, space="latent", accepted_only=True):
        cs = self.accepted() if accepted_only else self.candidates
        if space == "latent":
            return np.stack([c.z for c in cs])
        if space == "input":
            return np.stack([c.x for c in cs])
        if space == "prediction":
            return np.stack([c.posterior for c in cs])
        raise ValueError(f"unknown space {space!r}")

    def labels(self, accepted_only=True):
        cs = self.accepted() if accepted_only else self.candidates
        return [c.label for c in cs]


def objective(z, x0, bundle, lambda_x=0.0, lambda_y=0.0, x0_label=None):
    """Loss H(y | decode(z)) + lambda_x l1(decode(z), x0) + lambda_y d_y, and its z-gradient.

    d_y is the cross-entropy of the candidate posterior against the hard
    label of the original input (computed from the bundle if not supplied);
    it participates only when lambda_y > 0. The loss is one fused tape node
    over ``models.search_objective``, whose backward is derived by hand.
    """
    zt = dc.Tensor(z, requires_grad=True)
    if lambda_y > 0.0 and x0_label is None:
        x0_label = models.argmax_label(models.predict(bundle, x0))
    h_term, dx_term, dy_term, grad = models.search_objective(
        bundle, zt.data, x0, lambda_x, lambda_y, x0_label)
    value = h_term
    if lambda_x > 0.0:
        if not math.isfinite(dx_term):
            raise FloatingPointError("objective: input-distance term is non-finite")
        value = value + dx_term * lambda_x
    if lambda_y > 0.0:
        if not math.isfinite(dy_term):
            raise FloatingPointError("objective: prediction-distance term is non-finite")
        value = value + dy_term * lambda_y
    if not math.isfinite(h_term):
        raise FloatingPointError("objective: entropy term is non-finite")
    if not math.isfinite(value):
        raise FloatingPointError("objective: total loss is non-finite")
    loss = dc.Tensor(value, _parents=(zt,), op="search_objective")
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
    """Extra inputs some schemes need: training latents/labels (s2), bundle (s5)."""

    bundle: object = None
    certain_latents: np.ndarray | None = None
    certain_labels: np.ndarray | None = None
    n_classes: int = 0


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


def init_scheme(scheme, z0, r, i, k, *, rng=None, delta=None, context=None):
    """Start point i of k for the given scheme around z0."""
    z0 = np.asarray(z0, dtype=np.float64)
    m = len(z0)
    if r == 0.0:
        return z0.copy()
    if scheme == "s1":
        radius = rng.uniform(0.0, r)
        return z0 + radius * _uniform_direction(rng, m)
    if scheme == "s3":
        radius = abs(rng.normal(0.0, r / 2.0))
        while radius > r:
            radius = abs(rng.normal(0.0, r / 2.0))
        return z0 + radius * _uniform_direction(rng, m)
    if scheme == "s4":
        z = z0 + rng.uniform(-r, r, size=m)
        while np.linalg.norm(z - z0) > r:
            z = z0 + rng.uniform(-r, r, size=m)
        return z
    if scheme in ("s2", "s5"):
        if context is None or context.n_classes < 1:
            raise ValueError(f"scheme {scheme} needs an InitContext")
        c = context.n_classes
        y = i % c
        j = i // c + 1
        npaths = max(k // c, 1)
        eff_delta = delta if (delta is not None and math.isfinite(delta)) else r
        if scheme == "s2":
            return _s2_point(z0, y, j, npaths, eff_delta, context)
        return _s5_point(z0, y, j, npaths, eff_delta, context)
    raise ValueError(f"unknown initialization scheme {scheme!r}")


def _s2_point(z0, y, j, npaths, delta, ctx):
    mask = np.asarray(ctx.certain_labels) == y
    if not np.any(mask):
        raise ValueError(f"scheme s2: no certain training point in class {y}")
    latents = np.asarray(ctx.certain_latents)[mask]
    dists = np.linalg.norm(latents - z0, axis=1)
    zy = latents[int(np.argmin(dists))]
    denom = float(np.linalg.norm(zy - z0))
    if denom == 0.0:
        return z0.copy()
    return z0 + delta * (j / npaths) * (zy - z0) / denom


def _s5_point(z0, y, j, npaths, delta, ctx, n_steps=40):
    """Walk normalized ascent steps on p(class=y | decode(z)) out to radius delta,
    then return the point at arc-length fraction j/npaths along the path."""
    bundle = ctx.bundle
    step = delta / n_steps
    onehot = np.eye(bundle.c_classes)[y]
    path = [z0.copy()]
    z = z0.copy()
    for _ in range(n_steps):
        x, decoder_grad = models._decode_with_grad(bundle, z)
        _, posterior_grad = models._posterior_with_grad(bundle, x)
        g = decoder_grad(posterior_grad(onehot))  # the gradient of p_y
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        z = z + step * (g / gn)
        if np.linalg.norm(z - z0) > delta:
            z = project_to_ball(z, z0, delta)
            path.append(z.copy())
            break
        path.append(z.copy())
    frac = min(j / npaths, 1.0)
    idx = frac * (len(path) - 1)
    lo = int(math.floor(idx))
    hi = min(lo + 1, len(path) - 1)
    t = idx - lo
    return (1.0 - t) * path[lo] + t * path[hi]


def make_init_context(bundle, partition=None, train_latents=None):
    """The bundle (s5) and, given the certainty partition of the training
    points and their latents, the certain latents and labels (s2)."""
    ctx = InitContext(bundle=bundle, n_classes=bundle.c_classes)
    if partition is not None and train_latents is not None:
        certain = partition.flags == "certain"
        ctx.certain_latents = np.asarray(train_latents)[certain]
        ctx.certain_labels = np.asarray(partition.labels)[certain]
    return ctx


def coincident_starts(config, sequential=False):
    """Whether all k >= 2 start points sit at z0 (r = 0), so that the k
    descents give k copies of one candidate. Sequential searches at
    lambda_d > 0 are exempt: each descent is repelled from the points found
    before it."""
    return config.k >= 2 and config.r == 0.0 and not (sequential and config.lambda_d > 0.0)


def make_starts(z0, config, context=None, sequential=False):
    """The k start points, each projected into the delta ball; k copies of
    z0 (``coincident_starts``) raise ValueError."""
    if coincident_starts(config, sequential):
        raise ValueError(f"k={config.k} start points need r > 0: at r=0 they all sit at z0, "
                         f"so the search gives {config.k} identical candidates")
    starts = []
    for i in range(config.k):
        rng = candidate_rng(config.seed, i)
        z = init_scheme(config.scheme, z0, config.r, i, config.k,
                        rng=rng, delta=config.delta, context=context)
        starts.append(project_to_ball(z, z0, config.delta))
    return starts


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


def make_candidate(z, x0, z0, bundle, config, start_index, x0_label, trajectory=None):
    """The search end point ``z`` decoded and scored; a non-finite latent
    distance to z0 (a diverged search) or cost raises ``FloatingPointError``."""
    rho = float(np.linalg.norm(z - z0))
    if not math.isfinite(rho):
        raise FloatingPointError(f"candidate {start_index} diverged: its latent distance "
                                 f"to z0 is {rho} (lower lr, or bound it with delta)")
    x = models.decode(bundle, z)
    p = models.predict(bundle, x)
    h = models.entropy(p)
    d_x = float(np.sum(np.abs(x - x0)))
    d_y = float(-np.log(max(p[x0_label], 1e-300)))
    cost = h + config.lambda_x * d_x + config.lambda_y * d_y
    if not math.isfinite(cost):
        raise FloatingPointError(f"candidate {start_index}'s cost is {cost}")
    return CandidateCE(z=z, x=x, posterior=p, entropy=h, d_x=d_x, d_y=d_y,
                       rho=rho, cost=cost, label=models.argmax_label(p),
                       accepted=bool(h < config.h_threshold), start_index=start_index,
                       trajectory=trajectory)


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
    zs, trajs, _ = _descend(make_starts(z0, config, context), z0, x0, bundle, config,
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


# a candidate's entry in a ceset file: each field but the trajectory, arrays as
# lists, and each scalar a JSON value of the field's type (a boolean is no number)
_ENTRY_TYPES = {f.name: f.type for f in fields(CandidateCE) if f.name != "trajectory"}
_ENTRY_FIELDS = list(_ENTRY_TYPES)
_ARRAY_FIELDS = ("z", "x", "posterior")
_SCALAR_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}


def ceset_to_json(ceset):
    """JSON-serializable export with config echo and per-candidate fields."""
    return {"config": {k: to_json(v) for k, v in asdict(ceset.config).items()},
            "x0": ceset.x0.tolist(), "z0": ceset.z0.tolist(),
            "candidates": [{k: getattr(c, k).tolist() if k in _ARRAY_FIELDS else getattr(c, k)
                            for k in _ENTRY_FIELDS} for c in ceset.candidates]}


def dump_ceset(ceset, path):
    with models._atomic_open(path) as f:
        f.write(models._json_text(ceset_to_json(ceset)))


def _finite_array(name, value):
    """A JSON list of finite numbers as a float array; any other value, such as
    a string, a boolean, a nested list, NaN or an int past float range, raises
    ``TypeError``."""
    if isinstance(value, list) and all(type(v) in (int, float) for v in value):
        with contextlib.suppress(OverflowError):
            array = np.array(value, dtype=np.float64)
            if np.all(np.isfinite(array)):
                return array
    raise TypeError(f"a ceset's {name} must be a list of finite numbers")


def _candidate(entry):
    if set(entry) - set(_ENTRY_FIELDS):
        raise TypeError(f"a candidate has fields {sorted(entry)}, not {_ENTRY_FIELDS}")
    for k, t in _ENTRY_TYPES.items():
        kind, value = _SCALAR_KINDS.get(t), entry[k]
        if kind and (not isinstance(value, kind) or isinstance(value, bool) != (kind is bool)):
            raise TypeError(f"a candidate's {k} must be of type {t}, got {value!r}")
    return CandidateCE(**{k: _finite_array(k, entry[k]) if k in _ARRAY_FIELDS else entry[k]
                          for k in _ENTRY_FIELDS})


def ceset_from_json(payload):
    """The CESet of a ``ceset_to_json`` payload; a candidate entry with a
    missing field raises ``KeyError``, and one with an unknown field, a scalar
    of another type or an array that is not finite numbers ``TypeError``. A
    config value of "inf" or "-inf", or a bare ``Infinity`` of older files,
    reads as a float where the setting's rule is ``EXTENDED``."""
    rules = {f.name: f.metadata["rule"] for f in fields(ExperimentConfig)}
    config = {k: rules[k].from_json(v) if k in rules else v for k, v in payload["config"].items()}
    return CESet(config=ExperimentConfig(**config),
                 candidates=[_candidate(e) for e in payload["candidates"]],
                 x0=_finite_array("x0", payload["x0"]), z0=_finite_array("z0", payload["z0"]))


def load_ceset(path):
    """Read a file written by ``dump_ceset``; a malformed one, or one with no
    candidates, raises ``ValueError``."""
    ceset = models._read_json(path, ceset_from_json)
    if not ceset.candidates:
        raise ValueError(f"{path} holds no candidates")
    return ceset
