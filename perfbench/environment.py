"""The environment record that goes with every benchmark result, and the
host-speed probe that corrects the gated timings.

Timings on a shared host drift with the host, not only with the code. The
record names the software and the machine, and times a fixed numpy loop at
the start and at the end of the run, so that a reader can tell a slow host
phase from a regression; that loop's time is context, not a metric.

A short version of the same loop, run between explanations, tells how fast
the host is at that moment. ``HostSpeed`` turns it into the factor that
scales a measured time to the nominal host speed.
"""

from __future__ import annotations

import bisect
import ctypes
import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy


def reference_loop_ms(n=20_000):
    """Wall time of n products of two 8x8 matrices, in milliseconds."""
    a = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    b = a.T.copy()
    t0 = time.perf_counter()
    for _ in range(n):
        a @ b
    return 1000.0 * (time.perf_counter() - t0)


PROBE_PRODUCTS = 2_000
# The probe's time in the slow state of a 2-vCPU Intel Xeon VM at 2.0 GHz, the
# state that host spends most of its time in; its fast state takes 2.2 ms.
NOMINAL_PROBE_MS = 4.3
PROBE_EVERY_S = 0.25


class HostSpeed:
    """Probes interleaved with timed work, and the correction they give.

    On a host that switches between a fast and a slow state for seconds or
    minutes at a time, the program and the probe slow down by about the same
    factor (1.88x and 1.92x measured for ``clue.objective``). A time
    multiplied by ``NOMINAL_PROBE_MS`` over the mean of the probes just
    before and just after it therefore reads about the same in both states.
    """

    def __init__(self):
        self.starts, self.ends, self.probes_ms = [], [], []

    def probe(self):
        t0 = time.perf_counter()
        ms = reference_loop_ms(PROBE_PRODUCTS)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.probes_ms.append(ms)
        return ms

    def probe_if_due(self):
        if not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start, end):
        """Multiplier that scales the interval [start, end] to the nominal
        speed, from the last probe that ended by ``start`` and the first
        that began at or after ``end``."""
        i = bisect.bisect_right(self.ends, start) - 1
        j = bisect.bisect_left(self.starts, end)
        if i < 0 or j >= len(self.starts):
            raise ValueError("interval is not bracketed by two probes")
        return NOMINAL_PROBE_MS / ((self.probes_ms[i] + self.probes_ms[j]) / 2.0)


def _blas():
    """Build-time BLAS name and version, and each loaded OpenBLAS library
    with the thread count it reports (numpy and scipy each load their own)."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:  # the process's own memory map lists the libraries it loaded
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        paths = []
    loaded = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        loaded[Path(path).name] = None
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                loaded[Path(path).name] = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": loaded}


def _git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest(root):
    """sha256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record(root, seed, blas_threads_requested):
    """Everything a reader needs to place the run's numbers.

    Call it after the workload has imported scipy.linalg, or scipy's own
    BLAS is not loaded yet and goes unreported.
    """
    root = Path(root)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads_requested": blas_threads_requested,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }
