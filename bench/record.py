"""Run every workload over several seeds and summarise each metric.

    python3 bench/record.py --seeds 10
    python3 bench/record.py --seeds 5 --workloads exact --trace 1
    python3 bench/record.py --seeds 10 --append "label of this commit"

Each run is ``bench/run.py`` in a process of its own, seeds in the outer
loop so that slow drift of the host spreads over all workloads.  For every
workload and metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json, then the same for the
wall-clock times ``setup_wall_s`` and ``pass_s`` and the calibration time
``host.calib_s`` that the report prints (diagnostics, no bound): their
spread against that of ``setup_s`` and ``pass_calib`` shows how much of
the host's drift the calibration takes out.  ``--append`` adds the
summary, with the host metadata of the first run, as a new entry of
bench/BENCH_trajectory.json.  The exit code is 1 if any run failed or any
output check failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRAJECTORY = BENCH / "BENCH_trajectory.json"
DIAGNOSTICS = ("setup_wall_s", "pass_s", "host.calib_s")


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(x[len("# meta "):]) for x in lines if x.startswith("# meta ")), {})
    diag = {x.split()[0]: float(x.split()[1]) for x in lines
            if x.split() and x.split()[0] in DIAGNOSTICS}
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    good = proc.returncode == 0 and result is not None and result["correct"]
    if not good:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return meta, diag, result, good


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--append", metavar="LABEL", default=None)
    args = ap.parse_args(argv)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    values = {w: {m["name"]: [] for m in metrics} for w in args.workloads}
    diags = {w: {name: [] for name in DIAGNOSTICS} for w in args.workloads}
    first_meta, ok = None, True
    for seed in seeds:
        for w in args.workloads:
            meta, diag, result, good = run_one(w, seed, args.seconds, args.trace)
            for name, v in diag.items():
                diags[w][name].append(v)
            first_meta = first_meta or meta
            ok &= good
            print(f"seed {seed:3d} {w:8s} {'ok' if good else 'FAILED'} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in (result or {}).get("metrics", {}).items()
                if k in values[w]), flush=True)
            for name, v in (result or {}).get("metrics", {}).items():
                if name in values[w]:
                    values[w][name].append(v["value"])

    table = {}
    print(f"\n{'workload':8s} {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for w in args.workloads:
        table[w] = {}
        for m in metrics:
            if not values[w][m["name"]]:
                continue
            s = summary(values[w][m["name"]])
            table[w][m["name"]] = {"unit": m["unit"], **s}
            bound = m.get("bound")
            flag = "" if bound is None else (" steady" if s["spread"] < bound / 3 else
                                             " within" if s["spread"] <= bound else " WIDE")
            print(f"{w:8s} {m['name']:34s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f} {'' if bound is None else bound:>6}{flag}")

    print("\nhost drift: wall-clock times and host.calib_s per run (diagnostics, no bound)")
    for w in args.workloads:
        for name, v in diags[w].items():
            if len(v) > 1:
                s = summary(v)
                table[w][name] = {"unit": "s", **s}
                print(f"{w:8s} {name:34s} {s['median']:12.6g} {s['q1']:12.6g} "
                      f"{s['q3']:12.6g} {s['spread']:8.4f}")

    if args.append:
        entries = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        meta = {k: v for k, v in (first_meta or {}).items() if k not in ("workload", "seed")}
        entries.append({
            "label": args.append,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "meta": meta, "seeds": seeds, "seconds": args.seconds, "trace": args.trace,
            "all_checks_passed": ok, "workloads": table,
        })
        TRAJECTORY.write_text(json.dumps(entries, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
