"""Diversity metrics over sets of counterfactuals.

Six metrics: DPP kernel determinant, average pairwise distance, coverage
(input or latent space), prediction coverage, distinct labels, and label
entropy. The first three are differentiable and can serve as optimization
terms; the label-based metrics are evaluation-only. The differentiable
three come from one closed-form numpy kernel (``value_and_grad``): the
searches take their values and gradients from it, and ``dpp``, ``apd`` and
``coverage``, which the metric report calls, their values. The tests check
the kernel against the same metrics built on the autodiff tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite, log

import numpy as np

from . import diffcore as dc
from .clue import Rule

DIFFERENTIABLE_METRICS = ("dpp", "apd", "coverage")
LABEL_METRICS = ("prediction_coverage", "distinct_labels", "label_entropy")
ALL_METRICS = DIFFERENTIABLE_METRICS + LABEL_METRICS
SPACES = ("input", "latent", "prediction")
BASES = ("l2", "l1")


@dataclass
class DiversitySpec:
    metric: str = "dpp"
    space: str = "latent"  # "input" | "latent" | "prediction"
    base: str = "l2"  # base distance for dpp/apd

    def __post_init__(self):
        for name, choices in (("metric", ALL_METRICS), ("space", SPACES), ("base", BASES)):
            Rule(choices).check(name, getattr(self, name))
        if self.metric in LABEL_METRICS:
            self.space = "prediction"
        if self.metric == "coverage" and self.space == "prediction":
            raise ValueError("coverage applies in input or latent space only")


def _value(metric, points, base="l2", x0=None):
    """A differentiable metric's value: ``value_and_grad`` with no free rows."""
    pts = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{metric}: non-finite point")
    return value_and_grad(DiversitySpec(metric=metric, base=base), pts, 0, x0)[0]


def dpp(points, base="l2"):
    """det of K with K_ij = 1/(1 + d(x_i, x_j)); 0 for k=1 by convention."""
    # PSD kernel guarantees [0,1]; clamp roundoff
    return min(1.0, max(0.0, _value("dpp", points, base)))


def apd(points, base="l2"):
    """Average pairwise distance; 0 for k=1."""
    return _value("apd", points, base)


def coverage(points, x0):
    """Per-coordinate max positive + max negative deviation from x0, averaged.

    Per-coordinate maxima are kept as-is, including negative values when no
    point in the set moves in that direction.
    """
    pts = np.asarray(points, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    if pts.shape[1] != x0.shape[0]:
        raise dc.ShapeError(f"coverage: dimension mismatch {pts.shape[1]} vs {x0.shape[0]}")
    return _value("coverage", pts, x0=x0)


def prediction_coverage(posteriors):
    """Mean over classes of the best prediction for that class in the set."""
    ps = np.asarray(posteriors, dtype=np.float64)
    return float(np.mean(np.max(ps, axis=0)))


def distinct_labels(labels, c):
    return len(set(int(v) for v in labels)) / c


def label_entropy(labels, c):
    """Entropy of the empirical label distribution, normalized by log c'."""
    labels = np.asarray(labels, dtype=np.int64)
    k = len(labels)
    counts = np.bincount(labels, minlength=c)
    p = counts / k
    h = -sum(pj * log(pj) for pj in p if pj > 0.0)
    return min(1.0, max(0.0, h / log(c)))


def _not_differentiable(metric):
    return ValueError(f"metric {metric!r} is not differentiable; "
                      f"label-based metrics are evaluation-only")


def value_and_grad(spec, points, n_free, x0=None):
    """A differentiable metric's value over a k x dim array and its gradient
    w.r.t. the last ``n_free`` rows (an n_free x dim array), in closed form.

    dpp is det(K) for K = 1/(1 + D), through the same LU as ``dc.det``;
    its gradient det * K^-T (the adjugate when K is singular) is chained
    through the reciprocal and the pairwise distances. apd spreads a
    constant over the distances; coverage routes +-1/dim to the first
    argmax of each coordinate's deviation from x0 (``x0`` is its origin).
    A non-finite value, which non-finite points give, raises ValueError.
    """
    k, dim = points.shape
    lo = k - n_free
    if spec.metric == "coverage":
        diff = points - x0
        value = _finite(spec, (diff.max(axis=0) - diff.min(axis=0)).sum() * (1.0 / dim))
        grad = np.zeros((k, dim))
        cols = np.arange(dim)
        grad[diff.argmax(axis=0), cols] = 1.0 / dim
        grad[diff.argmin(axis=0), cols] -= 1.0 / dim
        return value, grad[lo:]
    if spec.metric not in ("dpp", "apd"):
        raise _not_differentiable(spec.metric)
    if k == 1:
        return 0.0, np.zeros((n_free, dim))
    diff = points[:, None, :] - points[None, :, :]  # k x k x dim
    if spec.base == "l2":
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
    else:
        dist = np.sum(np.abs(diff), axis=-1)
        diff = np.sign(diff)  # all that the l1 gradient needs of diff
    if spec.metric == "apd":
        scale = 1.0 / (2.0 * comb(k, 2))
        value = _finite(spec, np.sum(dist) * scale)
        gdist = np.full((n_free, k), 2.0 * scale)  # both index slots of D
    else:
        from scipy.linalg.lapack import dgetrf, dgetri  # LAPACK loads at the first dpp

        kern = 1.0 / (dist + 1.0)
        lu, piv, _ = dgetrf(kern)
        value = _finite(spec, lu.diagonal().prod())
        if sum(p != i for i, p in enumerate(piv.tolist())) % 2:
            value = -value
        if value == 0.0:  # a zero pivot, or underflow; -0.0 reads 0.0, as in dc.det
            value = 0.0
            gkern = dc._adjugate(kern).T
        else:
            gkern = value * dgetri(lu, piv)[0].T
        gdist = -gkern * kern * kern
        gdist = gdist[lo:] + gdist[:, lo:].T  # both index slots of D, free rows
    if spec.base == "l2":
        gdist = np.divide(gdist, dist[lo:], out=np.zeros(gdist.shape), where=dist[lo:] > 0.0)
    return value, np.matmul(gdist[:, None, :], diff[lo:])[:, 0]


def _finite(spec, value):
    """``value`` as a float; non-finite points give a non-finite value."""
    value = float(value)
    if not isfinite(value):
        raise ValueError(f"{spec.metric}: non-finite value; a point is non-finite or too large")
    return value


def metric_report_rows(xs, zs, posteriors, labels, x0, z0, c):
    """All six metrics in every applicable space: rows (metric, space, k, value)."""
    k = len(labels)
    rows = []
    for space, pts, origin in (("input", xs, x0), ("latent", zs, z0)):
        rows.append(("dpp", space, k, dpp(pts)))
        rows.append(("apd", space, k, apd(pts)))
        rows.append(("coverage", space, k, coverage(pts, origin)))
    rows.append(("dpp", "prediction", k, dpp(posteriors)))
    rows.append(("apd", "prediction", k, apd(posteriors)))
    rows.append(("prediction_coverage", "prediction", k, prediction_coverage(posteriors)))
    rows.append(("distinct_labels", "prediction", k, distinct_labels(labels, c)))
    rows.append(("label_entropy", "prediction", k, label_entropy(labels, c)))
    return rows

