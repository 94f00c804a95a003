"""cluekit benchmark.

    python3 perfbench/run.py --workload search|diverse|amortized|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
of that checkout. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``all``
runs each workload in a fresh process, then prints every result and the
amortization ratio. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread: the benchmark is a single caller in one process, so the
# numbers measure the program and not the scheduler. This has to be set
# before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "diverse", "amortized")


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the test fixtures' seed of each workload)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run with per-layer metrics")
    return p.parse_args(argv)


def _import_package():
    """Put this checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "cluekit" / "__init__.py").is_file():
        sys.exit(f"error: no cluekit package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import cluekit
    if Path(cluekit.__file__).resolve().parent != (src / "cluekit").resolve():
        sys.exit(f"error: imported cluekit from {cluekit.__file__}, not from {src}")


def _run_all(args):
    """Each workload in a fresh process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


def _default_seed(name):
    import workloads
    return workloads.WORKLOADS[name].default_seed


def main(argv=None):
    args = _parse(argv)
    _import_package()
    if args.workload == "all":
        _run_all(args)
        return 0
    import harness
    import workloads
    seed = args.seed if args.seed is not None else _default_seed(args.workload)
    try:
        detail = harness.run(args.workload, seed, args.seconds, bool(args.trace), ROOT,
                             blas_threads=BLAS_THREADS)
    except workloads.WorkloadError as e:
        sys.exit(f"error: {e}")
    for line in harness.format_report(detail):
        print(line)
    if not args.trace and args.workload in ("search", "amortized"):
        line = harness.amortization_line(ROOT / ".bench_out", seed)
        if line:
            print(line)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
