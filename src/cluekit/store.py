"""The on-disk format of every file cluekit writes: each is written whole
to a temp name that then replaces it, a JSON file is strict JSON with an
infinite setting as "inf" or "-inf", and a store is a directory of one JSON
manifest and one raw little-endian float64 blob. A ``Rule`` gives the kind
and bounds of a JSON scalar, a setting's or a record field's. Each record's
codec stays beside its type: ``models.save_bundle``, ``data.save_dataset``,
``clue.dump_ceset``, ``glam.save_mapper`` and ``cli.write_outputs``, and so
does the table of rules that ``check_fields`` holds each loaded record to.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from itertools import accumulate, chain
from pathlib import Path
from typing import NamedTuple

import numpy as np


EXTENDED = "extended"  # the kind of a number that may be inf or -inf, but not nan


class Rule(NamedTuple):
    """A value's kind, which is int, float (a finite number), ``EXTENDED``,
    bool, str or a tuple of the values allowed, and its bounds ``>= ge`` or
    ``> gt``, and ``<= le``."""

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
        if kind is str:
            if not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
            return
        number = kind not in (int, bool)  # a bool is an int that no other kind takes
        if isinstance(value, bool) != (kind is bool) or not isinstance(
                value, numbers.Real if number else int):
            what = "a number" if number else "an int" if kind is int else "a boolean"
            raise ValueError(f"{key} must be {what}, got {value!r}")
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


def check_fields(table, value, name=None):
    """Raise ``ValueError`` naming the field, its keys joined by dots, unless
    ``value`` takes ``table``: a ``Rule`` for a scalar, ``[rule]`` for a list
    whose entries each take ``rule``, or a dict for an object that holds each
    key the dict names, with a value that takes its rule (other keys pass)."""
    if isinstance(table, Rule):
        table.check(name, value)
    elif isinstance(table, list):
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
        for entry in value:
            check_fields(table[0], entry, name)
    else:
        if not isinstance(value, dict):
            raise ValueError(f"{name or 'the record'} must be an object, got {value!r}")
        for key, rule in table.items():
            field = key if name is None else f"{name}.{key}"
            if key not in value:
                raise ValueError(f"{field} is missing")
            check_fields(rule, value[key], field)


def to_json(value):
    """``value`` for a JSON file: an infinite float as the string "inf" or
    "-inf", which strict JSON readers take and bare ``Infinity`` is not."""
    return str(value) if isinstance(value, float) and math.isinf(value) else value


def write_file(path, content):
    """Write ``content``, bytes or text (as UTF-8), to ``path`` through a temp
    file that replaces ``path`` once it is written whole; on an error the temp
    file is removed and ``path`` keeps its old content. Content may come as an
    iterable of chunks, text or buffers (arrays, say), so a large table or blob
    is never held whole or copied. Every file the package writes goes through here."""
    tmp = f"{path}.tmp"
    chunks = iter([content] if isinstance(content, (str, bytes)) else content)
    first = next(chunks, b"")
    binary = not isinstance(first, str)
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as f:
            f.write(first)
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def json_text(payload):
    """``payload`` as the package writes every JSON file: strict JSON, which
    holds no NaN or Infinity (writing either raises ``ValueError``)."""
    return json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)


def write_csv(path, header, rows):
    """A comma-separated table: the header, then one line per row of values."""
    write_file(path, (",".join(map(str, row)) + "\n" for row in chain([header], rows)))


def read_json(path, build):
    """``build`` of the JSON document at ``path``; a file that is not JSON, or
    a KeyError, TypeError, IndexError, OverflowError or ValueError from a
    malformed document, raises ``ValueError`` naming ``path``."""
    try:
        return build(json.loads(Path(path).read_text(encoding="utf-8")))
    except (KeyError, TypeError, IndexError, OverflowError, ValueError) as e:
        raise ValueError(f"{path} is malformed: {type(e).__name__} {e}") from e


def save_store(directory, manifest, blob_name, arrays):
    """Write ``manifest`` to ``directory/manifest.json`` and ``arrays``, in
    order, to one little-endian float64 blob ``directory/blob_name``. Both are
    serialized before either file is replaced, so a manifest or an array that
    cannot be written leaves an old store as it was."""
    text = json_text(manifest)
    blob = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]  # no copy of a float64 array
    Path(directory).mkdir(parents=True, exist_ok=True)
    write_file(Path(directory, "manifest.json"), text)
    write_file(Path(directory, blob_name), blob)


def load_store(directory, blob_name, shapes, build):
    """``build(manifest, arrays)`` for a store written by ``save_store``, its
    arrays shaped as the ``shapes(manifest)`` list; a blob of another length,
    or a malformed manifest, raises ``ValueError`` naming the manifest."""
    blob_path = Path(directory, blob_name)

    def _build(manifest):
        raw, dims = np.fromfile(blob_path, dtype=np.uint8), shapes(manifest)  # read once, writable
        # Python ints: numpy's int64 would wrap past 2**63 and misstate the length
        ends = list(accumulate((math.prod(map(int, shape)) for shape in dims), initial=0))
        if len(raw) != 8 * ends[-1]:
            raise ValueError(f"{blob_path} holds {len(raw)} bytes, the manifest needs "
                             f"{8 * ends[-1]}")
        blob = raw.view("<f8")  # each array is a view of the one buffer
        return build(manifest, [blob[lo:hi].reshape(shape).astype(np.float64, copy=False)
                                for shape, lo, hi in zip(dims, ends, ends[1:])])

    return read_json(Path(directory, "manifest.json"), _build)


def hash_tree(path):
    """The sha256 of a file, or of every regular file under a directory, by path."""
    paths = [path] if os.path.isfile(path) else [
        os.path.join(root, name) for root, _dirs, files in sorted(os.walk(path))
        for name in sorted(files)]
    digests = {p: hashlib.sha256() for p in paths}
    for p, h in digests.items():
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 16), b""):
                h.update(chunk)
    return {p: h.hexdigest() for p, h in digests.items()}
