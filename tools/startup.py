"""Start-up cost of the ``cluekit`` command line, one subprocess per run.

    python tools/startup.py [--src DIR ...] [--repeats N]

Each ``--src`` is a directory holding the ``cluekit`` package (default:
this checkout's ``src``). The script builds a small workspace once (a blobs
dataset and a bundle trained on it, and a minidigits dataset of 2,000 rows),
then runs ``--help``, ``gen-data``, a one-point ``explain``, a minidigits
``gen-data`` of 2,000 rows and a 5-epoch ``train`` on those rows as ``python -m
cluekit.cli``, and ``python -c "import cluekit.cli"``, with each source in
turn, alternating the sources within every repeat. The two minidigits commands
are the set-up of the benchmark's ``diverse`` workload at a short training, so
their peak RSS shows what a dataset of that size costs each command. For each
command and source it prints the minimum and median wall time and the median
of the child's peak RSS (``ru_maxrss`` from ``os.wait4``). The last line of
standard output is one JSON object that holds every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(src, args, cwd):
    """Wall seconds and peak RSS in MB of ``python args`` with ``src`` first
    on the path; a run that fails stops the script."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile() as err:  # a file, so a chatty child cannot block on a pipe
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if proc.returncode != 0:
            err.seek(0)
            sys.exit(f"error: {' '.join(args)} with {src} failed:\n{err.read().decode()}")
    return wall, usage.ru_maxrss / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", action="append", type=Path,
                   help="a directory holding the cluekit package (repeatable)")
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    sources = [s.resolve() for s in (args.src or [ROOT / "src"])]
    with tempfile.TemporaryDirectory() as work:
        cli = ["-m", "cluekit.cli"]
        _run(sources[0], cli + ["gen-data", "--out", "ws/data", "--seed", "0"], work)
        _run(sources[0], cli + ["train", "--out", "ws/model", "--dataset", "ws/data/dataset",
                                "--seed", "0", "--set", "vae_epochs=5",
                                "--set", "ens_epochs=5"], work)
        digits = ["--seed", "0", "--set", "generator=minidigits", "--set", "n=2000"]
        _run(sources[0], cli + ["gen-data", "--out", "ws/digits"] + digits, work)
        commands = {
            "import": ["-c", "import cluekit.cli"],
            "--help": cli + ["--help"],
            "gen-data": cli + ["gen-data", "--out", "out/data", "--seed", "0"],
            "explain": cli + ["explain", "--out", "out/ce", "--bundle", "ws/model/bundle",
                              "--dataset", "ws/data/dataset", "--top", "1",
                              "--set", "iters=5"],
            "gen-data-digits": cli + ["gen-data", "--out", "out/digits"] + digits,
            "train-digits": cli + ["train", "--out", "out/digits-model", "--dataset",
                                   "ws/digits/dataset", "--seed", "0", "--set", "vae_epochs=5",
                                   "--set", "ens_epochs=5"],
        }
        runs = {name: {str(s): [] for s in sources} for name in commands}
        for repeat in range(args.repeats):
            order = sources if repeat % 2 == 0 else sources[::-1]
            for name, command in commands.items():
                for src in order:
                    runs[name][str(src)].append(_run(src, command, work))
    result = {}
    for name, by_src in runs.items():
        result[name] = {}
        for src, samples in by_src.items():
            walls = [w for w, _ in samples]
            rss = [r for _, r in samples]
            result[name][src] = {"wall_s": walls, "wall_s_min": min(walls),
                                 "wall_s_median": statistics.median(walls),
                                 "maxrss_mb_median": statistics.median(rss)}
            print(f"{name:15s} {src}: wall min {min(walls):.3f} s, median "
                  f"{statistics.median(walls):.3f} s, maxrss {statistics.median(rss):.1f} MB")
    print(json.dumps({"python": sys.version.split()[0], "repeats": args.repeats,
                      "commands": {k: " ".join(v) for k, v in commands.items()},
                      "results": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
