"""Benchmark entry point for fcc-trig: one workload, one process.

    python3 bench/run.py --workload tetra --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/``.  One library-pool thread and one BLAS thread are fixed before
NumPy loads.  Passes over the workload's operations, each preceded by one
fresh-interpreter setup, repeat until ``--seconds`` are used (at least two
passes).  Every operation's output is checked.

With ``--trace 0`` the report gives the end-to-end metrics; with
``--trace 1`` traced and untraced passes alternate and the report gives the
per-layer metrics (spans from bench/spans.py, probes on the workload's own
data) and the tracing overhead.  A table for people comes first; the last
line is one JSON object with the metrics BENCHMARK.json names.  The exit
code is 1 if any output check failed and 2 if the package sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {
    "FCC_TRIG_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("tetra", "dodeca", "exact"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fcctrig" / "__init__.py").is_file():
        print(f"error: no package sources at {src}/fcctrig; run from a repository checkout",
              file=sys.stderr)
        return 2
    # setup subprocesses inherit the thread settings and the source path
    os.environ.update(THREAD_ENV)
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    import fcctrig

    if Path(fcctrig.__file__).resolve().parent != (src / "fcctrig").resolve():
        print(f"error: imported fcctrig from {fcctrig.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [e["name"] for e in spec["per_layer" if args.trace else "end_to_end"]]

    import harness

    return harness.run(args, ROOT, wanted, THREAD_ENV)


if __name__ == "__main__":
    sys.exit(main())
