"""Span tracing of the cluekit layers from outside the package.

The tracer replaces module attributes with timing wrappers while it is
installed and puts the originals back when it is removed; nothing in the
package's source is changed. Every wrapped call records a span (name,
start, end, parent span, explanation id). Spans stay in memory until the
run ends, when the harness turns them into per-layer call counts and self
times and writes them out.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Modules whose public functions are wrapped, in package order.
LAYER_MODULES = ("models", "clue", "divclue", "diversity", "glam", "data", "cli")

# The CLI's command functions are its own plumbing: only its entry point is
# a layer boundary, so "cli.main" self time is all CLI time outside the
# library calls it makes.
ONLY = {"cli": ("main",)}

# Several generators are one layer from the benchmark's point of view.
ALIASES = {"data.gen_blobs": "data.gen", "data.gen_minidigits": "data.gen"}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    explanation: int  # -1 outside the explanation phase


class Tracer:
    """Collects spans and counters while installed on the package modules."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.explanation = -1
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent,
                               self.explanation))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return traced

    def _wrap_projection(self, fn):
        """``clue.project_to_ball`` also counts the calls that had to clip."""
        traced = self._wrap("clue.project_to_ball", fn)
        counts = self.counts

        @functools.wraps(fn)
        def counted(z, z0, delta):
            # the package's own rule: inside the ball up to a 1e-12 slack
            if math.isfinite(delta) and np.linalg.norm(
                    np.asarray(z, dtype=np.float64) - z0) > delta * (1.0 + 1e-12):
                counts["clue.project_to_ball.clipped"] += 1
            return traced(z, z0, delta)
        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the public functions of each layer module, plus
        ``Tensor.backward``, ``Tensor.__init__`` (a count only) and
        ``DbmBaseline.apply``.

        A function re-bound into another module by ``from .clue import ...``
        is wrapped there too, under the name of the module that defines it,
        so calls from ``divclue`` count as ``clue`` calls.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for short in LAYER_MODULES:
            module = getattr(package, short)
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if short in ONLY and attr not in ONLY[short]:
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                name = ALIASES.get(name, name)
                wrapper = (self._wrap_projection(obj) if name == "clue.project_to_ball"
                           else self._wrap(name, obj))
                self._patch(module, attr, wrapper)

        tensor = package.diffcore.Tensor
        self._patch(tensor, "backward",
                    self._wrap("diffcore.backward", tensor.backward))
        init = tensor.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["diffcore.tensors"] += 1
            init(obj, *args, **kwargs)
        self._patch(tensor, "__init__", counted_init)

        dbm = package.glam.DbmBaseline
        self._patch(dbm, "apply", self._wrap("glam.DbmBaseline.apply", dbm.apply))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """All spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "explanation": s.explanation}) + "\n")


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so time is never subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out

