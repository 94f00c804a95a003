"""Diversity metrics over sets of counterfactuals.

Six metrics: DPP kernel determinant, average pairwise distance, coverage
(input or latent space), prediction coverage, distinct labels, and label
entropy. The first three are differentiable and can serve as optimization
terms; the label-based metrics are evaluation-only. The differentiable
three come from one closed-form numpy kernel (``value_and_grad``): the
searches take their values and gradients from it, and ``dpp``, ``apd`` and
``coverage``, which the metric report calls, their values. A sequential
search's dpp adds its one free row to the found rows, whose kernel A it
factors once per descent (``_dpp_factor``): by the determinant lemma each
step costs O(k^2) (``_dpp_add_row``), and the full kernel takes a singular
or non-finite A and a free row at distance 0, or a non-finite distance,
from a found row. The tests check the kernel and the one-row update against
the same metrics built on the autodiff tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf, isfinite, log

import numpy as np

from . import diffcore as dc
from .store import Rule

DIFFERENTIABLE_METRICS = ("dpp", "apd", "coverage")
LABEL_METRICS = ("prediction_coverage", "distinct_labels", "label_entropy")
ALL_METRICS = DIFFERENTIABLE_METRICS + LABEL_METRICS
SPACES = ("input", "latent", "prediction")


@dataclass
class DiversitySpec:
    metric: str = "dpp"
    space: str = "latent"  # "input" | "latent" | "prediction"

    def __post_init__(self):
        for name, choices in (("metric", ALL_METRICS), ("space", SPACES)):
            Rule(choices).check(name, getattr(self, name))
        if self.metric in LABEL_METRICS:
            self.space = "prediction"
        if self.metric == "coverage" and self.space == "prediction":
            raise ValueError("coverage applies in input or latent space only")


def _value(metric, points, x0=None):
    """A differentiable metric's value: ``value_and_grad`` with no free rows."""
    pts = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{metric}: non-finite point")
    return value_and_grad(DiversitySpec(metric=metric), pts, 0, x0)[0]


def dpp(points):
    """det of K with K_ij = 1/(1 + ||x_i - x_j||); 0 for k=1 by convention."""
    # PSD kernel guarantees [0,1]; clamp roundoff
    return min(1.0, max(0.0, _value("dpp", points)))


def apd(points):
    """Average l2 pairwise distance; 0 for k=1."""
    return _value("apd", points)


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

    dpp is det(K) for K = 1/(1 + D), by ``dc.det_and_grad`` as on the tape;
    its gradient det * K^-T (the adjugate when det is 0) is chained
    through the reciprocal and the pairwise distances. apd spreads a
    constant over the distances; coverage routes +-1/dim to the first
    argmax of each coordinate's deviation from x0 (``x0`` is its origin).
    A non-finite value, or a non-finite distance in dpp, which non-finite or
    overflowing points give, is a numerical failure: it raises
    FloatingPointError.
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
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    if spec.metric == "apd":
        scale = 1.0 / (2.0 * comb(k, 2))
        value = _finite(spec, np.sum(dist) * scale)
        gdist = np.full((n_free, k), 2.0 * scale)  # both index slots of D
    else:
        # one pass: an infinite distance, as a 0 kernel entry, gives a NaN gradient
        _finite(spec, dist.max())
        kern = 1.0 / (dist + 1.0)
        value, gkern = dc.det_and_grad(kern)
        gdist = -gkern * kern * kern
        gdist = gdist[lo:] + gdist[:, lo:].T  # both index slots of D, free rows
    gdist = np.divide(gdist, dist[lo:], out=np.zeros(gdist.shape), where=dist[lo:] > 0.0)
    return value, np.matmul(gdist[:, None, :], diff[lo:])[:, 0]


def _dpp_factor(const):
    """(det A, A^-1) of the dpp kernel A over the found rows ``const``, by
    numpy's LU, once per sequential descent; (0.0, None) where A is singular
    or a distance is non-finite, and ``_dpp_add_row`` then falls back."""
    diff = const[:, None, :] - const[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    if not dist.max() < inf:  # NaN as well
        return 0.0, None
    kern = 1.0 / (dist + 1.0)
    det = float(np.linalg.det(kern))
    if det == 0.0 or not isfinite(det):
        return 0.0, None
    return det, np.linalg.inv(kern)


def _dpp_add_row(const, factor, row):
    """dpp of ``const`` plus one ``row`` and its gradient w.r.t. that row, a
    1 x dim array, from ``_dpp_factor(const)`` by the determinant lemma:
    det K = det A (1 - b' A^-1 b) with b_j = 1/(1 + ||row - c_j||), and
    d det K / d row = sum_j 2 det A (A^-1 b)_j b_j^2 (row - c_j)/||row - c_j||.
    None where A is singular, or the row is at distance 0 or a non-finite
    distance from a found row: the full kernel then gives the value, its
    adjugate gradient, or its FloatingPointError."""
    det, inv = factor
    diff = row - const
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    if inv is None or not (0.0 < dist.min() and dist.max() < inf):
        return None
    b = 1.0 / (dist + 1.0)
    inv_b = inv.dot(b)
    coef = (2.0 * det) * inv_b * b * b / dist
    return float(det * (1.0 - b.dot(inv_b))), coef.dot(diff)[None, :]


def _finite(spec, value):
    """``value`` as a float; non-finite points give a non-finite value."""
    value = float(value)
    if not isfinite(value):
        raise FloatingPointError(f"{spec.metric} diverged to {value}: a point is non-finite "
                                 f"or too large")
    return value


def metric_report_rows(ceset):
    """All six metrics in every applicable space over a ``clue.CESet``'s
    accepted candidates, or all of them when none is accepted: rows
    (metric, space, k, value)."""
    cands = ceset.accepted() or ceset.candidates
    k, c = len(cands), len(cands[0].posterior)
    labels, posteriors = [cand.label for cand in cands], [cand.posterior for cand in cands]
    rows = []
    for space, pts, origin in (("input", [cand.x for cand in cands], ceset.x0),
                               ("latent", [cand.z for cand in cands], ceset.z0)):
        rows.append(("dpp", space, k, dpp(pts)))
        rows.append(("apd", space, k, apd(pts)))
        rows.append(("coverage", space, k, coverage(pts, origin)))
    rows.append(("dpp", "prediction", k, dpp(posteriors)))
    rows.append(("apd", "prediction", k, apd(posteriors)))
    rows.append(("prediction_coverage", "prediction", k, prediction_coverage(posteriors)))
    rows.append(("distinct_labels", "prediction", k, distinct_labels(labels, c)))
    rows.append(("label_entropy", "prediction", k, label_entropy(labels, c)))
    return rows
