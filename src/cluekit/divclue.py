"""Diversity-regularized counterfactual generation.

Three variants: simultaneous joint optimization of k latents with an
explicit diversity reward, a greedy sequential scheme that repels each new
candidate from the ones already found, and a sequential scheme with a
simple inverse-distance penalty. Also: diversity pre-search, which spreads
the initializations before any descent happens. Every variant runs
``clue._descend`` with its diversity term as the descent's repel term. The
sequential scheme maps the found points into the spec's space, and for dpp
factors their kernel, once per descent; each step adds the one free row to
that factor, and ``_diversity`` falls back to the full kernel where the
update cannot take the rows.

All variants collapse bitwise to the plain constrained descent when the
diversity weight is zero (the diversity branch is skipped entirely, so the
arithmetic sequence is identical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diversity as div
from . import models
# objective is not called here; the benchmark's tracer tests read divclue.objective
from .clue import CESet, _ceset, _descend, _setup, make_starts, objective, project_to_ball

PENALTY_EPS = 1e-6
PRESEARCH_LR = 0.1


@dataclass
class DivRunRecord:
    """A search's set; ``diversity.metric_report_rows(record.ceset)`` scores it."""
    ceset: CESet
    joint_loss: list  # length iters: -lambda_d*D + mean per-candidate loss


def _diversity(spec, bundle, z0, x0, free, const=None, factor=None):
    """Diversity of const + free in the spec's space, and its gradient
    w.r.t. the free latents only, one row per free latent.

    ``const`` holds rows already mapped into the spec's space (found points
    of a sequential search); ``free`` holds latents. In input space the free
    latents are decoded in one batch and the metric's gradient is taken back
    through the decoder, as the search step ``clue.objective`` does. dpp of found
    rows and one free row adds that row to ``factor``, the found rows'
    ``div._dpp_factor`` (computed here when not given); the full kernel
    takes the cases that update refuses.
    """
    if spec.space not in ("latent", "input"):
        raise ValueError("diversity optimization supports latent or input space")
    rows = np.array(free, dtype=np.float64)
    if spec.space == "input":
        rows, decoder_grad = models._decode_with_grad(bundle, rows)
    result = None
    if spec.metric == "dpp" and const is not None and len(rows) == 1:
        result = div._dpp_add_row(const, factor or div._dpp_factor(const), rows[0])
    if result is None:
        pts = rows if const is None else np.concatenate((const, rows))
        result = div.value_and_grad(spec, pts, len(rows), z0 if spec.space == "latent" else x0)
    value, grad = result
    if spec.space == "input":
        grad = decoder_grad(grad)
    return value, grad


def nabla_clue_simultaneous(x0, bundle, config, spec, context=None, trace=False):
    """Joint descent on all k latents with a shared diversity reward.

    Each candidate's step combines its own objective gradient with the
    diversity gradient scaled by k * lambda_d, which descends k times the
    joint loss -lambda_d*D + (1/k) sum L(z_i); at lambda_d=0 the update is
    bit-for-bit the plain per-candidate step.
    """
    x0, z0, x0_label = _setup(x0, bundle)
    zs = make_starts(z0, config, bundle, context)
    if config.n_i > 0:
        zs = diversity_presearch(zs, spec, config.n_i, config.r, z0,
                                 bundle=bundle, x0=x0)
        zs = [project_to_ball(z, z0, config.delta) for z in zs]
    repel = None
    if config.lambda_d > 0.0 and config.k > 1:
        scale = -config.lambda_d * config.k

        def repel(zs):
            d_val, d_grads = _diversity(spec, bundle, z0, x0, zs)
            return -config.lambda_d * d_val, scale * d_grads

    zs, trajs, loss_curve = _descend(zs, z0, x0, bundle, config, x0_label, trace, repel)
    return DivRunRecord(_ceset(zs, trajs, x0, z0, bundle, config, x0_label), loss_curve)


def _sequential(x0, bundle, config, context, trace, repulsion):
    """k greedy descents from ``make_starts``; once lambda_d > 0 and points
    have been found, ``repulsion(found, z0, x0)`` gives the repel(zs) term
    that descent adds to every step. The joint loss averages the k curves."""
    x0, z0, x0_label = _setup(x0, bundle)
    found, trajs, curves = [], [], []
    for z_start in make_starts(z0, config, bundle, context, sequential=True):
        repel = repulsion(found, z0, x0) if config.lambda_d > 0.0 and found else None
        (z,), (traj,), curve = _descend([z_start], z0, x0, bundle, config, x0_label,
                                        trace, repel)
        found.append(z)
        trajs.append(traj)
        curves.append(curve)
    # each step's mean over a contiguous row, so numpy sums it as the 1-D mean does
    joint = np.mean(np.array(curves).T.copy(), axis=1).tolist()
    return DivRunRecord(_ceset(found, trajs, x0, z0, bundle, config, x0_label), joint)


def nabla_clue_sequential(x0, bundle, config, spec, context=None, trace=False):
    """Greedy variant: find candidates one at a time, each descent maximizing
    the diversity of the set found so far plus the new point.

    The diversity term is subtracted (diversity is maximized), matching the
    simultaneous objective. Found points are mapped into the spec's space,
    and for dpp their kernel factored, once per descent; each step then adds
    the one free row to that factor.
    """
    def repulsion(found, z0, x0):
        const = np.stack(found)  # in input space decoded in one call
        const = models.decode(bundle, const) if spec.space == "input" else const
        factor = div._dpp_factor(const) if spec.metric == "dpp" else None

        def repel(zs):
            d_val, d_grads = _diversity(spec, bundle, z0, x0, zs, const, factor)
            return -config.lambda_d * d_val, -config.lambda_d * d_grads
        return repel

    return _sequential(x0, bundle, config, context, trace, repulsion)


def _penalty(z, found, lambda_d):
    """Clamped inverse-distance repulsion sum_f lambda_d / max(||z - z_f||, eps)
    and its gradient, which is flat under the clamp."""
    total = 0.0
    grad = np.zeros_like(z)
    for zf in found:
        diff = z - zf
        d = math.sqrt(diff.dot(diff))
        if d > PENALTY_EPS:
            total += lambda_d / d
            grad += -lambda_d / (d * d) * (diff / d)
        else:
            total += lambda_d / PENALTY_EPS
    return total, grad


def nabla_clue_penalty(x0, bundle, config, context=None, trace=False):
    """Sequential variant with an additive inverse-distance repulsion
    sum_f lambda_d / max(||z - z_f||, eps) instead of a diversity metric."""
    def repulsion(found, _z0, _x0):
        def repel(zs):
            value, grad = _penalty(zs[0], found, config.lambda_d)
            return value, [grad]
        return repel

    return _sequential(x0, bundle, config, context, trace, repulsion)


def diversity_presearch(starts, spec, n_i, r, z0, bundle=None, x0=None):
    """n_i gradient-ascent steps on the diversity of the start points, each
    projected back into the radius-r ball around z0. n_i=0 is the identity."""
    if spec.metric not in div.DIFFERENTIABLE_METRICS:
        raise ValueError(f"pre-search needs a differentiable metric, got {spec.metric!r}")
    zs = [np.array(z, dtype=np.float64) for z in starts]
    if n_i == 0 or len(zs) == 1:
        return zs
    for _ in range(n_i):
        _, grads = _diversity(spec, bundle, z0, x0, zs)
        zs = [project_to_ball(z + PRESEARCH_LR * g, z0, r) for z, g in zip(zs, grads)]
    return zs
