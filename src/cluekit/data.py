"""Synthetic desk-scale dataset generators and certainty partitioning."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import models, store


@dataclass
class Dataset:
    inputs: np.ndarray  # N x d', values in [0,1]
    labels: np.ndarray  # length N, ints in [0, c')
    split: np.ndarray  # length N, "train"/"test"
    generator: dict = field(default_factory=dict)  # spec + seed for regeneration

    def train_inputs(self):
        return self.inputs[self.split == "train"]

    def train_labels(self):
        return self.labels[self.split == "train"]

    def test_inputs(self):
        return self.inputs[self.split == "test"]


@dataclass
class GroupPartition:
    """Per-point class label plus certainty flag from entropy thresholds."""

    entropies: np.ndarray
    labels: np.ndarray
    flags: np.ndarray  # "certain" / "uncertain" / "mid"
    tau_low: float
    tau_high: float

    def certain_of_class(self, j):
        return np.flatnonzero((self.flags == "certain") & (self.labels == j))

    def uncertain_of_class(self, j):
        return np.flatnonzero((self.flags == "uncertain") & (self.labels == j))


def _split_tags(rng, n, test_frac, labels):
    """Random split, redrawn until every class appears in train."""
    if not 0.0 < test_frac < 1.0:
        raise ValueError(f"test_frac, the share of points in the test split, must lie "
                         f"in (0, 1), got {test_frac!r}")
    classes = np.unique(labels)
    for _ in range(100):
        tags = np.where(rng.random(n) < test_frac, "test", "train")
        if all(np.any((tags == "train") & (labels == c)) for c in classes):
            return tags
    raise ValueError(f"no split at test_frac={test_frac!r} leaves every class in train")


def gen_blobs(c, d, n, spread, seed, test_frac=0.2):
    """Gaussian clusters with class-dependent means, clipped to [0,1].

    ``spread`` controls overlap between clusters; overlapping clusters
    produce genuinely uncertain points for a trained classifier.
    """
    if c < 2 or d < 2:
        raise ValueError(f"gen_blobs: need c>=2 and d>=2, got c={c}, d={d}")
    if n < c:
        raise ValueError(f"gen_blobs: need n >= c, one point per class, got n={n}, c={c}")
    if not 0.0 <= spread < np.inf:
        raise ValueError(f"gen_blobs: spread must be finite and >= 0, got {spread!r}")
    rng = np.random.default_rng([seed, 0])
    means = 0.2 + 0.6 * rng.random((c, d))
    labels = rng.integers(0, c, size=n)
    points = np.clip(means[labels] + spread * rng.standard_normal((n, d)), 0.0, 1.0)
    split = _split_tags(np.random.default_rng([seed, 1]), n, test_frac, labels)
    return Dataset(inputs=points, labels=labels, split=split,
                   generator={"kind": "blobs", "c": c, "d": d, "n": n,
                              "spread": spread, "seed": seed, "test_frac": test_frac})


# 7-segment layout on an 8x8 grid: segments index (row0, col0, row1, col1)
_SEGMENTS = {
    "top": (0, 1, 0, 6),
    "top_left": (1, 0, 3, 0),
    "top_right": (1, 7, 3, 7),
    "mid": (3, 1, 3, 6),
    "bot_left": (4, 0, 6, 0),
    "bot_right": (4, 7, 6, 7),
    "bot": (7, 1, 7, 6),
}

_DIGIT_SEGMENTS = {
    0: ["top", "top_left", "top_right", "bot_left", "bot_right", "bot"],
    1: ["top_right", "bot_right"],
    2: ["top", "top_right", "mid", "bot_left", "bot"],
    3: ["top", "top_right", "mid", "bot_right", "bot"],
    4: ["top_left", "top_right", "mid", "bot_right"],
    5: ["top", "top_left", "mid", "bot_right", "bot"],
    6: ["top", "top_left", "mid", "bot_left", "bot_right", "bot"],
    7: ["top", "top_right", "bot_right"],
    8: ["top", "top_left", "top_right", "mid", "bot_left", "bot_right", "bot"],
    9: ["top", "top_left", "top_right", "mid", "bot_right", "bot"],
}


def _stroke_masks():
    """True on the cells of each digit's strokes shifted by (dr, dc), False
    elsewhere: ``masks[digit, dr + 1, dc + 1]`` holds the 64 cells of an 8x8
    glyph. A stroke cell shifted off the grid is dropped."""
    padded = np.zeros((10, 10, 10), dtype=bool)  # each glyph inside a border of empty cells
    for digit, segments in _DIGIT_SEGMENTS.items():
        for seg in segments:
            r0, c0, r1, c1 = _SEGMENTS[seg]  # every segment is a row or a column
            padded[digit, 1 + r0:2 + r1, 1 + c0:2 + c1] = True
    masks = np.empty((10, 3, 3, 64), dtype=bool)
    for dr in (-1, 0, 1):
        for dc_ in (-1, 0, 1):
            masks[:, dr + 1, dc_ + 1] = padded[:, 1 - dr:9 - dr, 1 - dc_:9 - dc_].reshape(10, 64)
    return masks


def gen_minidigits(n, seed, test_frac=0.2):
    """Procedural 8x8 seven-segment glyphs: d'=64, c'=10.

    Digit classes share strokes (e.g. 3/9, 5/6, 8/0), so a trained
    classifier exhibits genuine between-class confusion, which the
    multi-class diversity machinery needs. Each glyph draws a shift (dr, dc)
    in {-1, 0, 1}, an intensity in [0.7, 1) for its strokes and Gaussian
    noise of sd 0.08 on every cell, in that order; the values are clipped to [0, 1].
    The noise is drawn into the output array, which then only changes in place.
    """
    if n < 1:
        raise ValueError(f"gen_minidigits: need n >= 1, got n={n}")
    rng = np.random.default_rng([seed, 0])
    base = n // 10
    counts = [base + (1 if i < n % 10 else 0) for i in range(10)]
    labels = np.concatenate([np.full(cnt, digit) for digit, cnt in enumerate(counts)])
    rng.shuffle(labels)
    shifts, levels, points = np.empty((n, 2), dtype=np.int64), np.empty(n), np.empty((n, 64))
    for i in range(n):  # one glyph's draws at a time, as the generator's stream orders them
        shifts[i] = rng.integers(-1, 2), rng.integers(-1, 2)
        levels[i] = rng.random()
        rng.standard_normal(out=points[i])
    points *= 0.08
    # a stroke cell adds its level to its noise (the float level + noise is); a
    # cell off the strokes keeps its noise, as 0 + noise does
    np.add(points, (0.7 + 0.3 * levels)[:, None], out=points,
           where=_stroke_masks()[labels, shifts[:, 0] + 1, shifts[:, 1] + 1])
    np.clip(points, 0.0, 1.0, out=points)
    split = _split_tags(np.random.default_rng([seed, 1]), n, test_frac, labels)
    return Dataset(inputs=points, labels=labels.astype(np.int64), split=split,
                   generator={"kind": "minidigits", "n": n, "seed": seed,
                              "test_frac": test_frac})


GENERATORS = {  # kind -> (its generator, the spec keys it reads as its arguments)
    "blobs": (gen_blobs, ("c", "d", "n", "spread", "seed", "test_frac")),
    "minidigits": (gen_minidigits, ("n", "seed", "test_frac"))}


def regenerate(spec):
    """Rebuild a dataset bitwise-identically from its generator manifest, passing
    the generator of its kind exactly the keys it reads."""
    if spec["kind"] not in GENERATORS:
        raise ValueError(f"unknown generator kind {spec['kind']!r}")
    generator, keys = GENERATORS[spec["kind"]]
    return generator(**{key: spec[key] for key in keys})


def partition_by_certainty(dataset, bundle, tau_low, tau_high):
    """Split training points into certain (H <= tau_low) / uncertain (H > tau_high).

    Points with tau_low < H <= tau_high stay unassigned ("mid") and are
    excluded from mapper training. When tau_low == tau_high every point is
    assigned, with ties going to certain. tau_low above tau_high raises ValueError.
    """
    if tau_low > tau_high:
        raise ValueError(f"tau_low={tau_low!r} lies above tau_high={tau_high!r}")
    xs = dataset.train_inputs()
    ys = dataset.train_labels()
    ents = models.predict_entropy(bundle, xs)
    flags = np.where(ents <= tau_low, "certain",
                     np.where(ents > tau_high, "uncertain", "mid"))
    return GroupPartition(entropies=ents, labels=ys, flags=flags,
                          tau_low=float(tau_low), tau_high=float(tau_high))


def default_taus(bundle):
    """20th / 80th percentile of training entropies recorded at training time."""
    pct = bundle.ensemble_report.entropy_percentiles
    return float(pct["20"]), float(pct["80"])


# a dataset manifest's fields; its labels become int64
DATASET_FIELDS = {"n": store.Rule(int, ge=0), "d": store.Rule(int, ge=0), "generator": {},
                  "labels": [store.Rule(int, ge=0, le=2**63 - 1)],
                  "split": [store.Rule(("train", "test"))]}


def save_dataset(dataset, directory):
    n, d = dataset.inputs.shape
    manifest = {"n": n, "d": d, "generator": dataset.generator,
                "labels": dataset.labels.tolist(), "split": dataset.split.tolist()}
    store.save_store(directory, manifest, "inputs.bin", [dataset.inputs])


def load_dataset(directory):
    """Read a dataset written by ``save_dataset``; a manifest that
    ``DATASET_FIELDS`` refuses, lists of other than n entries, a blob of another
    length, or inputs that are non-finite or outside [0, 1] raise ``ValueError``."""
    def shapes(manifest):
        store.check_fields(DATASET_FIELDS, manifest)
        return [(manifest["n"], manifest["d"])]

    def build(manifest, arrays):
        n, labels, split = len(arrays[0]), manifest["labels"], manifest["split"]
        if len(labels) != n or len(split) != n:
            raise ValueError(f"labels and split must have n={n} entries")
        if not np.all((arrays[0] >= 0.0) & (arrays[0] <= 1.0)):  # NaN fails both
            raise ValueError(f"{Path(directory, 'inputs.bin')}: inputs must be finite "
                             f"and lie in [0, 1]")
        return Dataset(inputs=arrays[0], labels=np.array(labels, dtype=np.int64),
                       split=np.array(split), generator=manifest["generator"])

    return store.load_store(directory, "inputs.bin", shapes, build)


def export_csv(dataset, path):
    inputs = np.asarray(dataset.inputs, dtype=np.float64)
    store.write_csv(path, ["label", "split"] + [f"x{i}" for i in range(inputs.shape[1])],
                    ([int(y), tag, *row.tolist()]
                     for y, tag, row in zip(dataset.labels, dataset.split, inputs)))
