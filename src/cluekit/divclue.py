"""Diversity-regularized counterfactual generation.

Three variants: simultaneous joint optimization of k latents with an
explicit diversity reward, a greedy sequential scheme that repels each new
candidate from the ones already found, and a sequential scheme with a
simple inverse-distance penalty. Also: diversity pre-search, which spreads
the initializations before any descent happens.

All variants collapse bitwise to the plain constrained descent when the
diversity weight is zero (the diversity branch is skipped entirely, so the
arithmetic sequence is identical).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from . import diversity as div
from . import models
from .clue import (CESet, make_candidate, make_starts, candidate_rng,
                   init_scheme, objective, project_to_ball)


@dataclass
class DivRunRecord:
    config: object
    spec: div.DiversitySpec
    joint_loss: list  # length iters: -lambda_d*D + mean per-candidate loss
    trajectories: list  # k arrays of (iters+1) x m', or empty when not traced
    ceset: CESet
    metrics_rows: list = field(default_factory=list)  # all six metrics, all spaces


def _joint_diversity(zs, spec, bundle, z0, x0):
    """Diversity value and gradients w.r.t. each latent, in the spec's space."""
    k = len(zs)
    zts = [dc.Tensor(z, requires_grad=True) for z in zs]
    if spec.space == "latent":
        pts = dc.concat([dc.reshape(zt, (1, -1)) for zt in zts], axis=0)
        origin = z0
    elif spec.space == "input":
        pts = dc.concat([dc.reshape(models.decode_graph(bundle, zt), (1, -1)) for zt in zts],
                        axis=0)
        origin = x0
    else:
        raise ValueError("diversity optimization supports latent or input space")
    node = div.diversity_node(spec, pts, x0=origin)
    if node._parents:
        node.backward()
    grads = [zt.grad if zt.grad is not None else np.zeros_like(zt.data) for zt in zts]
    return float(node.data), grads


def _finalize(zs, trajs, x0, z0, bundle, config, x0_label, loss_curve, spec, trace):
    candidates = [make_candidate(z, x0, z0, bundle, config, i, x0_label,
                                 trajs[i] if trace else None)
                  for i, z in enumerate(zs)]
    ceset = CESet(candidates=candidates, config=config, x0=x0, z0=z0)
    use_accepted = bool(ceset.accepted())
    rows = div.metric_report_rows(
        ceset.points("input", use_accepted), ceset.points("latent", use_accepted),
        ceset.points("prediction", use_accepted), ceset.labels(use_accepted),
        x0, z0, bundle.c_classes,
    )
    return DivRunRecord(config=config, spec=spec, joint_loss=loss_curve,
                        trajectories=[np.stack(t) for t in trajs] if trace else [],
                        ceset=ceset, metrics_rows=rows)


def nabla_clue_simultaneous(x0, bundle, config, spec, context=None, trace=False):
    """Joint descent on all k latents with a shared diversity reward.

    Each candidate's step combines its own objective gradient with the
    diversity gradient scaled by k * lambda_d, which descends k times the
    joint loss -lambda_d*D + (1/k) sum L(z_i); at lambda_d=0 the update is
    bit-for-bit the plain per-candidate step.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    z0 = models.encode(bundle, x0)
    x0_label = models.argmax_label(models.predict(bundle, x0).probs)
    zs = make_starts(z0, config, context)
    if config.n_i > 0:
        zs = diversity_presearch(zs, spec, config.n_i, config.r, z0,
                                 bundle=bundle, x0=x0)
        zs = [project_to_ball(z, z0, config.delta) for z in zs]
    trajs = [[z.copy()] for z in zs] if trace else [[] for _ in zs]
    loss_curve = []
    for _ in range(config.iters):
        vals, grads = [], []
        for z in zs:
            v, g = objective(z, x0, bundle, config.lambda_x, config.lambda_y, x0_label)
            vals.append(v)
            grads.append(g)
        if config.lambda_d > 0.0 and config.k > 1:
            d_val, d_grads = _joint_diversity(zs, spec, bundle, z0, x0)
            scale = config.lambda_d * config.k
            grads = [g - scale * dg for g, dg in zip(grads, d_grads)]
            loss_curve.append(-config.lambda_d * d_val + float(np.mean(vals)))
        else:
            loss_curve.append(float(np.mean(vals)))
        zs = [project_to_ball(z - config.lr * g, z0, config.delta)
              for z, g in zip(zs, grads)]
        if trace:
            for t, z in zip(trajs, zs):
                t.append(z.copy())
    return _finalize(zs, trajs, x0, z0, bundle, config, x0_label, loss_curve, spec, trace)


def _sequential_diversity_grad(found, z, spec, bundle, z0, x0):
    """Diversity of found + {z}, differentiated w.r.t. the new z only."""
    zt = dc.Tensor(z, requires_grad=True)
    if spec.space == "latent":
        rows = [dc.Tensor(np.stack(found))] if found else []
        pts = dc.concat(rows + [dc.reshape(zt, (1, -1))], axis=0)
        origin = z0
    elif spec.space == "input":
        xs_prev = [models.decode(bundle, f) for f in found]
        rows = [dc.Tensor(np.stack(xs_prev))] if xs_prev else []
        pts = dc.concat(rows + [dc.reshape(models.decode_graph(bundle, zt), (1, -1))],
                        axis=0)
        origin = x0
    else:
        raise ValueError("diversity optimization supports latent or input space")
    node = div.diversity_node(spec, pts, x0=origin)
    if node._parents:
        node.backward()
    g = zt.grad if zt.grad is not None else np.zeros_like(z)
    return float(node.data), g


def nabla_clue_sequential(x0, bundle, config, spec, context=None, trace=False):
    """Greedy variant: find candidates one at a time, each descent maximizing
    the diversity of the set found so far plus the new point.

    The diversity term is subtracted (diversity is maximized), matching the
    simultaneous objective.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    z0 = models.encode(bundle, x0)
    x0_label = models.argmax_label(models.predict(bundle, x0).probs)
    found = []
    trajs = []
    curves = []
    for t in range(config.k):
        rng = candidate_rng(config.seed, t)
        z = project_to_ball(
            init_scheme(config.scheme, z0, config.r, t, config.k,
                        rng=rng, delta=config.delta, context=context),
            z0, config.delta)
        traj = [z.copy()]
        curve = []
        for _ in range(config.iters):
            v, g = objective(z, x0, bundle, config.lambda_x, config.lambda_y, x0_label)
            if config.lambda_d > 0.0 and found:
                d_val, d_grad = _sequential_diversity_grad(found, z, spec, bundle, z0, x0)
                g = g - config.lambda_d * d_grad
                curve.append(v - config.lambda_d * d_val)
            else:
                curve.append(v)
            z = project_to_ball(z - config.lr * g, z0, config.delta)
            traj.append(z.copy())
        found.append(z)
        trajs.append(traj)
        curves.append(curve)
    joint = [float(np.mean([c[i] for c in curves])) for i in range(config.iters)]
    return _finalize(found, trajs, x0, z0, bundle, config, x0_label, joint, spec, trace)


PENALTY_EPS = 1e-6


def nabla_clue_penalty(x0, bundle, config, context=None, trace=False):
    """Sequential variant with an additive inverse-distance repulsion
    sum_f lambda_d / max(||z - z_f||, eps) instead of a diversity metric."""
    x0 = np.asarray(x0, dtype=np.float64)
    z0 = models.encode(bundle, x0)
    x0_label = models.argmax_label(models.predict(bundle, x0).probs)
    spec = div.DiversitySpec(metric="dpp", space="latent")  # for the report only
    found = []
    trajs = []
    curves = []
    for t in range(config.k):
        rng = candidate_rng(config.seed, t)
        z = project_to_ball(
            init_scheme(config.scheme, z0, config.r, t, config.k,
                        rng=rng, delta=config.delta, context=context),
            z0, config.delta)
        traj = [z.copy()]
        curve = []
        for _ in range(config.iters):
            v, g = objective(z, x0, bundle, config.lambda_x, config.lambda_y, x0_label)
            if config.lambda_d > 0.0 and found:
                pen = 0.0
                pen_g = np.zeros_like(z)
                for zf in found:
                    diff = z - zf
                    d = float(np.linalg.norm(diff))
                    if d > PENALTY_EPS:
                        pen += config.lambda_d / d
                        pen_g += -config.lambda_d / (d * d) * (diff / d)
                    else:
                        pen += config.lambda_d / PENALTY_EPS  # clamped; flat gradient
                g = g + pen_g
                curve.append(v + pen)
            else:
                curve.append(v)
            z = project_to_ball(z - config.lr * g, z0, config.delta)
            traj.append(z.copy())
        found.append(z)
        trajs.append(traj)
        curves.append(curve)
    joint = [float(np.mean([c[i] for c in curves])) for i in range(config.iters)]
    return _finalize(found, trajs, x0, z0, bundle, config, x0_label, joint, spec, trace)


def penalty_value(z, found, lambda_d):
    """The clamped repulsion term on its own (diagnostic)."""
    total = 0.0
    for zf in found:
        d = max(float(np.linalg.norm(z - zf)), PENALTY_EPS)
        total += lambda_d / d
    return total


def diversity_presearch(starts, spec, n_i, r, z0, lr=0.1, bundle=None, x0=None):
    """n_i gradient-ascent steps on the diversity of the start points, each
    projected back into the radius-r ball around z0. n_i=0 is the identity."""
    if spec.metric not in div.DIFFERENTIABLE_METRICS:
        raise ValueError(f"pre-search needs a differentiable metric, got {spec.metric!r}")
    zs = [np.array(z, dtype=np.float64) for z in starts]
    if n_i == 0 or len(zs) == 1:
        return zs
    for _ in range(n_i):
        _, grads = _joint_diversity(zs, spec, bundle, z0, x0)
        zs = [project_to_ball(z + lr * g, z0, r) for z, g in zip(zs, grads)]
    return zs


def record_to_json(record, include_trajectories=False):
    from .clue import ceset_to_json
    from dataclasses import asdict
    return {
        "spec": asdict(record.spec),
        "joint_loss": [float(v) for v in record.joint_loss],
        "metrics": [{"metric": m, "space": s, "k": k, "value": float(v)}
                    for m, s, k, v in record.metrics_rows],
        "ceset": ceset_to_json(record.ceset, include_trajectories),
    }
