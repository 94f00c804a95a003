"""Amortized latent translation mappers and the DBM/NN baselines.

A mapper is a single translation vector in latent space, trained once per
(source group, target group) pair; applying it to a new uncertain input is
one encode, one vector add, one decode, one predict — no optimization.
The fit differentiates its loss in plain numpy, back through the decoder
with ``models._decode_with_grad``, as the searches do.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import models
from .clue import CandidateCE


@dataclass
class MapperParams:
    source_group: int
    target_group: int
    theta: np.ndarray  # latent translation, length m'
    lambda_theta: float
    loss_curve: list = field(default_factory=list)


@dataclass
class MapperHyperparams:
    lr: float = 0.05
    steps: int = 200


def mean_translation(x_uncertain, x_certain, bundle):
    """Latent difference-between-means: the mapper's initialization."""
    return (models.encode(bundle, x_certain).mean(axis=0)
            - models.encode(bundle, x_uncertain).mean(axis=0))


def train_mapper(x_uncertain, x_certain, bundle, lambda_theta=0.1,
                 hyperparams=None, source_group=-1, target_group=-1):
    """Fit the translation by gradient descent on
    lambda_theta ||theta||_1 + mean_z min_x ||decode(z + theta) - x||_2^2.

    The min over the certain set is an exact linear scan each step; the
    minimizing point is held fixed within the step (subgradient of the min).
    The l1 term is handled by a proximal soft-threshold step, so very large
    lambda_theta drives theta exactly to zero instead of oscillating.
    theta starts at the latent difference between means. A non-finite loss
    raises ``FloatingPointError``.
    """
    if len(x_uncertain) == 0 or len(x_certain) == 0:
        side = "uncertain" if len(x_uncertain) == 0 else "certain"
        raise ValueError(f"train_mapper: empty {side} group")
    hp = hyperparams or MapperHyperparams()
    x_certain = np.asarray(x_certain, dtype=np.float64)
    z_u = models.encode(bundle, x_uncertain)
    theta = mean_translation(x_uncertain, x_certain, bundle)

    curve = []
    for step in range(hp.steps):
        recon, grad = _recon_and_grad(bundle, z_u, x_certain, theta)
        curve.append(float(recon) + lambda_theta * float(np.abs(theta).sum()))
        if not math.isfinite(curve[-1]):
            raise FloatingPointError(f"mapper loss diverged to {curve[-1]} at step {step}")
        stepped = theta - hp.lr * grad
        theta = np.sign(stepped) * np.maximum(np.abs(stepped) - hp.lr * lambda_theta, 0.0)
    return MapperParams(source_group=source_group, target_group=target_group,
                        theta=theta, lambda_theta=lambda_theta, loss_curve=curve)


def _recon_and_grad(bundle, z_u, x_certain, theta):
    """The fit's reconstruction term mean_z min_x ||decode(z + theta) - x||_2^2
    over the rows of ``z_u`` and its gradient in theta, with each row's
    nearest certain point held fixed."""
    dec, decoder_grad = models._decode_with_grad(bundle, z_u + theta)
    d2 = (np.sum(dec ** 2, axis=1)[:, None]
          - 2.0 * dec @ x_certain.T
          + np.sum(x_certain ** 2, axis=1)[None, :])
    diff = dec - x_certain[np.argmin(d2, axis=1)]
    scale = 1.0 / len(z_u)
    return np.sum(diff * diff) * scale, decoder_grad(scale * 2.0 * diff).sum(axis=0)


def _score(z, x_ce, z0, x, bundle, lambda_x):
    """The counterfactual x_ce (latent z) of the input x (latent z0) as a
    scored candidate; the caller supplies both latents, so this is one
    predict. A non-finite cost raises ``FloatingPointError``."""
    p = models.predict(bundle, x_ce)
    h = models.entropy(p)
    d_x = float(np.abs(x_ce - x).sum())
    cost = h + lambda_x * d_x
    if not math.isfinite(cost):
        raise FloatingPointError(f"the counterfactual's cost diverged to {cost} (lower lambda_x)")
    return CandidateCE(z=z, x=x_ce, posterior=p, entropy=h, d_x=d_x,
                       d_y=0.0, rho=float(np.linalg.norm(z - z0)), cost=cost,
                       label=models.argmax_label(p), accepted=True,
                       start_index=0)


def apply_mapper(mapper, x_uncertain, bundle, lambda_x=0.0):
    """One encode, one add, one decode, one predict; no iterative search."""
    x = np.asarray(x_uncertain, dtype=np.float64)
    z0 = models.encode(bundle, x)
    z = z0 + mapper.theta
    return _score(z, models.decode(bundle, z), z0, x, bundle, lambda_x)


@dataclass
class DbmBaseline:
    space: str  # "input" | "latent"
    translation: np.ndarray

    def apply(self, x, bundle, lambda_x=0.0):
        x = np.asarray(x, dtype=np.float64)
        z0 = models.encode(bundle, x)
        if self.space == "input":
            z = models.encode(bundle, np.clip(x + self.translation, 0.0, 1.0))
        else:
            z = z0 + self.translation
        return _score(z, models.decode(bundle, z), z0, x, bundle, lambda_x)


def dbm_baseline(space, x_uncertain, x_certain, bundle):
    """Difference-between-means translation, in input or latent space."""
    if len(x_uncertain) == 0 or len(x_certain) == 0:
        side = "uncertain" if len(x_uncertain) == 0 else "certain"
        raise ValueError(f"dbm_baseline: empty {side} group")
    x_u = np.asarray(x_uncertain, dtype=np.float64)
    x_c = np.asarray(x_certain, dtype=np.float64)
    if space == "input":
        translation = x_c.mean(axis=0) - x_u.mean(axis=0)
    elif space == "latent":
        translation = mean_translation(x_u, x_c, bundle)
    else:
        raise ValueError(f"unknown space {space!r}")
    return DbmBaseline(space=space, translation=translation)


def nn_baseline(space, x_uncertain, x_certain, bundle, lambda_x=0.0,
                z_certain=None):
    """Nearest certain neighbor, in input or latent space.

    ``z_certain`` optionally carries precomputed certain-set latents so a
    timing harness can amortize the encoding across queries.
    """
    if len(x_certain) == 0:
        raise ValueError("nn_baseline: empty certain set")
    x = np.asarray(x_uncertain, dtype=np.float64)
    x_c = np.asarray(x_certain, dtype=np.float64)
    if space not in ("input", "latent"):
        raise ValueError(f"unknown space {space!r}")
    z0 = models.encode(bundle, x)
    if space == "input":
        x_ce = x_c[int(np.argmin(np.linalg.norm(x_c - x, axis=1)))]
        return _score(models.encode(bundle, x_ce), x_ce, z0, x, bundle, lambda_x)
    # row by row: batched, the timed loop outgrows the benchmark's memory bound (ROADMAP 1)
    z_c = (np.asarray(z_certain) if z_certain is not None
           else np.stack([models.encode(bundle, xc) for xc in x_c]))
    z = z_c[int(np.argmin(np.linalg.norm(z_c - z0, axis=1)))]
    return _score(z, models.decode(bundle, z), z0, x, bundle, lambda_x)


def mappers_from_cesets(cesets, source_labels, bundle, lambda_theta=0.0, min_pairs=3):
    """Train one mapper per (source class, explanation label) group.

    Each uncertain input is paired with its best accepted counterfactual;
    pairs whose explanations land on the same class are pooled, and groups
    with fewer than ``min_pairs`` pairs are dropped (too few to average).
    """
    groups = {}
    for cs, src in zip(cesets, source_labels):
        accepted = cs.accepted() or cs.candidates
        best = min(accepted, key=lambda c: c.cost)
        key = (int(src), int(best.label))
        groups.setdefault(key, ([], []))
        groups[key][0].append(cs.x0)
        groups[key][1].append(best.x)
    mappers = []
    for (src, lab), (xs_u, xs_c) in sorted(groups.items()):
        if len(xs_u) < min_pairs:
            continue
        mappers.append(train_mapper(np.stack(xs_u), np.stack(xs_c), bundle,
                                    lambda_theta=lambda_theta,
                                    source_group=src, target_group=lab))
    return mappers


def pick_best_mapper(mappers, x, bundle, lambda_x=0.0):
    """Unknown-class inference: apply every mapper and keep the
    lowest-cost counterfactual."""
    cands = [apply_mapper(m, x, bundle, lambda_x) for m in mappers]
    return min(cands, key=lambda c: c.cost)


def save_mapper(mapper, path):
    with models._atomic_open(path) as f:
        f.write(models._json_text(dict(asdict(mapper), theta=mapper.theta.tolist())))


def load_mapper(path):
    """Read a file written by ``save_mapper``; one lacking a field without a
    default, or holding an unknown one, raises ``ValueError``."""
    return models._read_json(path, lambda p: MapperParams(
        **dict(p, theta=np.array(p["theta"], dtype=np.float64))))
