"""Whether two source trees write the same output bytes over one fixed session.

    python tools/same_outputs.py --src A --src B

Each ``--src`` is a directory holding the ``cluekit`` package. The script
runs one fixed command-line session (``SESSION``) as ``python -m cluekit.cli``
subprocesses, once per source tree, each tree in a temporary directory of
its own, one tree after the other. The session covers the blobs commands
(``explain`` with every method and scheme, s2 and s5 also at k = 8, the
``sweep`` axes, ``glam`` with every variant and glam1 alone, and ``bench``)
and a minidigits ``gen-data``, ``train`` and five ``explain`` runs: a
δ-CLUE search, an s5 search whose start walk steps ten ways at once, and
the three ∇-CLUE methods at the ``diverse`` benchmark workload's settings
(``DIGITS_DIVERSE``), on its 64-wide inputs. It then
lists every file whose bytes differ between the two trees' outputs, or that
only one tree wrote, ignoring ``IGNORED`` (the file that holds timings).

The last line of standard output is one JSON object. The exit status is 0
when every file matches, 1 when some differ and 2 when a command failed,
which the JSON object and standard error name with its tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORED = {"run_manifest.json"}
BLOBS = ["--bundle", "runs/model/bundle", "--dataset", "runs/data/dataset"]
BALL = ["--set", "k=4", "--set", "r=2", "--set", "delta=2"]
DIVERSE = BLOBS + BALL + ["--top", "3", "--set", "lambda_d=0.5"]
DIGITS = ["--bundle", "runs/digits-model/bundle", "--dataset", "runs/digits/dataset"]
# the diverse benchmark workload's settings: k = 4, delta = r = 2, lambda_x = 0.05, lambda_d = 0.5
DIGITS_DIVERSE = DIGITS + BALL + ["--top", "3", "--set", "lambda_x=0.05", "--set", "lambda_d=0.5",
                                  "--set", "lr=0.3", "--set", "iters=50"]
SESSION = [  # (output directory, the command's arguments); a * pattern expands in the work dir
    ("data", ["gen-data", "--seed", "0", "--set", "generator=blobs"]),
    ("model", ["train", "--dataset", "runs/data/dataset", "--seed", "0"]),
    ("ce", ["explain", "--top", "12"] + BLOBS + BALL),
    ("ce40", ["explain", "--top", "40"] + BLOBS + BALL),
    ("ce40-weighted", ["explain", "--top", "40", "--set", "lambda_x=0.05",
                       "--set", "lambda_y=0.1", "--set", "h_threshold=0.3"] + BLOBS + BALL),
    ("s2", ["explain", "--top", "3", "--set", "scheme=s2"] + BLOBS + BALL),
    # k = 2c': two starts read off each class's way
    ("s2-k8", ["explain", "--top", "3", "--set", "scheme=s2"] + BLOBS + BALL + ["--set", "k=8"]),
    ("s5-k8", ["explain", "--top", "3", "--set", "scheme=s5"] + BLOBS + BALL + ["--set", "k=8"]),
    ("s5-dy", ["explain", "--top", "3", "--set", "scheme=s5", "--set", "lambda_y=0.2"]
     + BLOBS + BALL),
    ("clue", ["explain", "--method", "clue", "--top", "3"] + BLOBS),
    ("divclue-sim", ["explain", "--method", "divclue-sim", "--set", "space=input",
                     "--set", "n_i=3"] + DIVERSE),
    ("divclue-seq", ["explain", "--method", "divclue-seq", "--set", "space=input"] + DIVERSE),
    ("divclue-seq-latent", ["explain", "--method", "divclue-seq", "--set", "space=latent"]
     + DIVERSE),
    ("divclue-pen", ["explain", "--method", "divclue-pen"] + DIVERSE),
    ("sweep-d", ["sweep", "--axis", "lambda_d", "--grid", "0,0.3,1"] + BLOBS + BALL),
    ("sweep-theta", ["sweep", "--axis", "lambda_theta", "--grid", "0,0.01,0.1"] + BLOBS),
    ("glam-all", ["glam", "--variant", "all", "--cesets", "runs/ce/ceset_*.json"] + BLOBS),
    ("glam2", ["glam", "--variant", "glam2", "--cesets", "runs/ce40/ceset_*.json"] + BLOBS),
    ("glam1", ["glam", "--variant", "glam1", "--set", "cap=10"] + BLOBS),
    ("bench", ["bench", "--repetitions", "1"] + BLOBS + BALL),
    ("digits", ["gen-data", "--seed", "0", "--set", "generator=minidigits", "--set", "n=200"]),
    ("digits-model", ["train", "--dataset", "runs/digits/dataset", "--seed", "0",
                      "--set", "vae_epochs=5", "--set", "ens_epochs=5"]),
    ("digits-ce", ["explain", "--top", "3"] + DIGITS + BALL),
    ("digits-s5", ["explain", "--top", "3", "--set", "scheme=s5", "--set", "k=10",
                   "--set", "r=2", "--set", "delta=2"] + DIGITS),
    ("digits-divclue-sim", ["explain", "--method", "divclue-sim", "--set", "space=input",
                            "--set", "n_i=5"] + DIGITS_DIVERSE),
    ("digits-divclue-seq", ["explain", "--method", "divclue-seq", "--set", "space=latent"]
     + DIGITS_DIVERSE),
    ("digits-divclue-pen", ["explain", "--method", "divclue-pen"] + DIGITS_DIVERSE),
]


def _run_session(src, work):
    """Run SESSION with ``src`` first on the path, in ``work``; None, or the
    failed command and its stderr."""
    env = dict(os.environ, PYTHONPATH=str(src))
    # the tree under test, not an installed copy, must be the one imported
    where = subprocess.run([sys.executable, "-c", "import cluekit; print(cluekit.__file__)"],
                           env=env, capture_output=True, text=True)
    if where.returncode != 0 or not Path(where.stdout.strip()).is_relative_to(src):
        return {"command": "import cluekit", "stderr": where.stderr + where.stdout}
    for out, args in SESSION:
        args = [a for arg in args
                for a in (sorted(str(p.relative_to(work)) for p in work.glob(arg))
                          if "*" in arg else [arg])]
        command = [sys.executable, "-m", "cluekit.cli", *args, "--out", f"runs/{out}"]
        proc = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            return {"command": " ".join(["cluekit", *command[3:]]), "exit": proc.returncode,
                    "stderr": proc.stderr}
    return None


def _files(root):
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*"))
            if p.is_file() and p.name not in IGNORED}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", action="append", type=Path, required=True,
                   help="a directory holding the cluekit package (give two)")
    args = p.parse_args(argv)
    if len(args.src) != 2:
        p.error("give --src exactly twice")
    sources = [s.resolve() for s in args.src]
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        works = [Path(a), Path(b)]
        for src, work in zip(sources, works):
            failed = _run_session(src, work)
            if failed is not None:
                failed["src"] = str(src)
                print(f"error: {failed['command']} failed with {src}:\n{failed['stderr']}",
                      file=sys.stderr)
                print(json.dumps({"sources": [str(s) for s in sources], "failed": failed}))
                return 2
        files = [_files(work / "runs") for work in works]
        names = sorted(set(files[0]) | set(files[1]))
        differ = [n for n in names if n not in files[0] or n not in files[1]
                  or files[0][n].read_bytes() != files[1][n].read_bytes()]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(names) - len(differ)} of {len(names)} files are byte-identical "
          f"over {len(SESSION)} commands (ignoring {', '.join(sorted(IGNORED))})")
    print(json.dumps({"sources": [str(s) for s in sources], "commands": len(SESSION),
                      "files": len(names), "differ": differ, "failed": None}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
