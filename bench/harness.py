"""Measurement for the fcc-trig benchmark; bench/run.py is the entry point.

A run repeats passes over a workload's operations until its time is used.
Each operation is timed from outside and checked: against the package's
oracles on the first pass, for identical output on every later pass.

On a shared host the speed of the machine drifts by tens of percent over
seconds to minutes, and a wall-clock pass time moves with it.  So a fixed
calibration routine (``host_calib``: pure-Python integer, Fraction, tuple
and dict work plus NumPy elementwise and matmul work, calling no fcctrig
code) runs between the operations of every pass, for CALIB_SHARE of the
pass's operation time.  ``pass_calib`` is a pass's total operation time
divided by the mean time of the calibration routine in that same pass,
the median over the untraced passes: the cost of a pass in units of the
calibration routine, which the host's drift moves little and a change to
fcctrig moves in full.  The wall-clock times (``pass_s``: each
operation at its fastest over the passes; the stage times; the median pass)
are printed next to it.  One fresh-interpreter setup runs before each
untraced pass; setup_s is the median over them of its wall time divided by
the mean calibration time of the pass that follows, times CALIB_REF_S: the
set-up time in seconds on a host where the calibration routine takes
CALIB_REF_S, about its time on the 2-CPU host the benchmark was tuned on.
The plain median wall time is printed as setup_wall_s.  In a traced run,
traced and untraced passes alternate; per-layer metrics are medians over
the traced passes.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import fcctrig as F
from fcctrig import kernels as K
from fcctrig._parallel import thread_count
from spans import Tracer
from workloads import WORKLOADS, CheckFailed, CliOutput

BENCH = Path(__file__).resolve().parent
MIN_PASSES = 2
PROBE_SECONDS = 0.05
CALIB_SHARE = 0.3
CALIB_REF_S = 0.03
_CALIB_VECTOR = np.linspace(0.0, 1.0, 1_000_000)
_CALIB_MATRIX = np.linspace(0.0, 1.0, 200 * 200).reshape(200, 200)

UNITS = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "pass_calib": "calib",
    "pass_s": "s",
    "pass_median_s": "s",
    "interp_s": "s",
    "lebesgue_s": "s",
    "cli_s": "s",
    "verify_s": "s",
    "cubature_s": "s",
    "peak_rss_mb": "MB",
    "ops_failed": "fraction",
    "host.calib_s": "s",
    "indexsets.sets_s": "s",
    "indexsets.nodes": "count",
    "indexsets.weights_s": "s",
    "indexsets.weights_per_s": "1/s",
    "boundary.classify_per_s": "1/s",
    "boundary.orbits_per_s": "1/s",
    "lattice.fold_pts_per_s": "1/s",
    "lattice.phi_per_s": "1/s",
    "kernels.phi_n_star.pairs_per_s": "1/s",
    "kernels.theta_diff.pairs_per_s": "1/s",
    "kernels.dirichlet.pairs_per_s": "1/s",
    "kernels.pairs": "count",
    "kernels.bytes_computed": "bytes",
    "kernels.phi_n_star_s": "s",
    "trigbasis.tc.values_per_s": "1/s",
    "transforms.cubature_s": "s",
    "transforms.lebesgue_Sn_s": "s",
    "interpolation.build_s": "s",
    "interpolation.eval_s": "s",
    "interpolation.eval.pairs_per_s": "1/s",
    "interpolation.glue_s": "s",
    "interpolation.image_dup_frac": "fraction",
    "interpolation.lebesgue_s": "s",
    "cli.main_s": "s",
    "cli.bytes_out": "bytes",
    "parallel.threads": "count",
    "blas.threads": "count",
    "trace.overhead_frac": "fraction",
    "share.phi_n_star_in_eval": "fraction",
    "share.weights_in_verify": "fraction",
}
LAYERS = ("lattice", "symmetry", "boundary", "indexsets", "kernels", "trigbasis",
          "transforms", "interpolation", "_parallel", "cli")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def host_calib() -> float:
    """Seconds of a fixed routine that calls no fcctrig code; tracks host speed.

    Its parts mirror what the workloads spend time in: an interpreter loop,
    Fraction arithmetic with tuple and dict traffic (like the rational
    weights), NumPy elementwise transcendentals over a large array (like the
    kernels) and small matrix products (like the matmul routes).
    """
    t0 = perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i % 7
    seen, total = {}, Fraction(0)
    for i in range(1, 1500):
        key = tuple(sorted((i % 7, i % 5, -(i % 3), i % 11)))
        seen[key] = seen.get(key, 0) + 1
        total += Fraction(i % 13 + 1, i % 17 + 1)
    float(np.cos(_CALIB_VECTOR).sum() + np.exp(_CALIB_VECTOR).sum())
    for _ in range(10):
        _CALIB_MATRIX @ _CALIB_MATRIX
    return perf_counter() - t0


def _rate(fn, units: int) -> float:
    """Units per second of fn, repeated for at least PROBE_SECONDS."""
    reps, t0 = 0, perf_counter()
    while True:
        fn()
        reps += 1
        dt = perf_counter() - t0
        if dt >= PROBE_SECONDS:
            return units * reps / dt


def probe_rates(data: dict) -> dict:
    n, d = data["n"], data["diffs"]
    dn, dd = data["dirichlet_n"], data["dirichlet_diffs"]
    nn, nodes, pts, k = data["nodes_n"], data["nodes"], data["points"], data["k"]
    return {
        "kernels.phi_n_star.pairs_per_s": _rate(lambda: F.phi_n_star(n, d), len(d)),
        "kernels.theta_diff.pairs_per_s": _rate(
            lambda: K.theta_n(n, d) - K.theta_n(n - 1, d), len(d)),
        "kernels.dirichlet.pairs_per_s": _rate(lambda: F.dirichlet(dn, dd), len(dd)),
        "indexsets.weights_per_s": _rate(
            lambda: [F.weight_c(j, nn) for j in nodes], len(nodes)),
        "boundary.classify_per_s": _rate(
            lambda: [F.classify_index(j, nn) for j in nodes], len(nodes)),
        "boundary.orbits_per_s": _rate(
            lambda: [F.congruent_orbit_index(j, nn) for j in nodes], len(nodes)),
        "lattice.fold_pts_per_s": _rate(lambda: F.fold_to_omega_H(pts), len(pts)),
        "lattice.phi_per_s": _rate(lambda: F.phi(k, pts), len(pts)),
        "trigbasis.tc.values_per_s": _rate(lambda: F.tc(k, pts), len(pts)),
    }


def layer_metrics(tracer, rates: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    tot, cnt, own = tracer.total, tracer.counts, tracer.self_time
    eval_s = tot["interpolation.eval"]
    pairs = cnt["interpolation.eval.pairs"]
    verify_s = tot["op.cli verify"]
    out = {
        "indexsets.sets_s": tot["indexsets.sets"],
        "indexsets.nodes": cnt["indexsets.nodes"],
        "indexsets.weights_s": tot["indexsets.weights"],
        "kernels.pairs": cnt["kernels.pairs"],
        "kernels.bytes_computed": cnt["kernels.bytes_computed"],
        "kernels.phi_n_star_s": tot["kernels.phi_n_star"],
        "transforms.cubature_s": own["transforms.cubature"],
        "transforms.lebesgue_Sn_s": own["transforms.lebesgue_Sn"],
        "interpolation.build_s": tot["interpolation.build"],
        "interpolation.eval_s": eval_s,
        "interpolation.eval.pairs_per_s": pairs / eval_s if eval_s else 0.0,
        # evaluation time outside kernel spans: images, lam rebuild, matmul, chunking
        "interpolation.glue_s": eval_s - tracer.within[("kernels", "interpolation.eval")],
        "interpolation.image_dup_frac": (
            cnt["interpolation.dup_images"] / cnt["interpolation.images"]
            if cnt["interpolation.images"] else 0.0),
        "interpolation.lebesgue_s": tot["interpolation.lebesgue"],
        "cli.main_s": tot["cli.main"],
        "cli.bytes_out": cnt["cli.bytes_out"],
        "share.phi_n_star_in_eval": (
            tracer.within[("kernels.phi_n_star", "interpolation.eval")] / eval_s
            if eval_s else 0.0),
        "share.weights_in_verify": (
            tracer.within[("indexsets.weights", "op.cli verify")] / verify_s
            if verify_s else 0.0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for g, v in own.items() if g.split(".", 1)[0] == layer)
    out.update(rates)
    return out


class Checker:
    """First-pass oracle checks, then identical output on every later pass."""

    def __init__(self):
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def check(self, index: int, op, out, error) -> None:
        self.attempted += 1
        if error is None and index not in self.reference:
            try:
                op.check(out)
                ok = True
            except CheckFailed as exc:
                error, ok = str(exc), False
            except Exception as exc:  # a check that crashes is a failed check
                error, ok = f"check raised {type(exc).__name__}: {exc}", False
            self.reference[index] = (out, ok)
        elif error is None:
            ref, ok = self.reference[index]
            if not _same(out, ref):
                error = "output differs from the first pass"
            elif not ok:
                error = "repeats a failing output"
        if error is not None:
            self.failures.append(f"{op.name}: {error}")


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b


def run_pass(wl, tracer, checker: Checker) -> dict:
    """One pass over the workload's operations; checks run untimed and untraced.

    The calibration routine runs before the first operation, and between
    operations and after the last as often as it takes to keep its total
    time at CALIB_SHARE of the operation time so far; it is timed apart
    from the operations and runs outside every span.
    """
    calib, results = [], []

    def calibrate(op_time: float) -> None:
        while not calib or sum(calib) < CALIB_SHARE * op_time:
            calib.append(host_calib())

    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        if tracer is not None:
            with tracer.span("setup"):
                wl.setup()
        for op in wl.ops():
            calibrate(sum(r[3] for r in results))
            error, out = None, None
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span("op." + op.name):
                        out = op.run()
            except Exception as exc:  # an operation that raises is a failed operation
                error = f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer is not None and isinstance(out, CliOutput):
                tracer.count("cli.bytes_out", len(out.text.encode()))
            results.append((op, out, error, dt))
        calibrate(sum(r[3] for r in results))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for index, (op, out, error, _) in enumerate(results):
        checker.check(index, op, out, error)
    return {"times": [r[3] for r in results], "calib": calib}


def fastest(passes: list, ops: list) -> tuple:
    """Each operation at its fastest over the passes: the pass total, the
    stage totals and the total per operation name."""
    best = [min(p["times"][i] for p in passes) for i in range(len(ops))]
    totals, by_name = {"pass_s": sum(best)}, {}
    for op, t in zip(ops, best):
        totals[op.stage] = totals.get(op.stage, 0.0) + t
        by_name[op.name] = by_name.get(op.name, 0.0) + t
    return totals, by_name


def time_setup(name: str, seed: int, workdir: str) -> float:
    cmd = [sys.executable, str(BENCH / "workloads.py"), name, str(seed), workdir]
    t0 = perf_counter()
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
    return perf_counter() - t0


def metadata(args, root: Path, thread_env: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older NumPy: no structured config
        blas = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "pool_threads": thread_count(),
        "thread_env": thread_env,
    }


def measure(args, workdir: str) -> tuple:
    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, workdir)
    tracer = Tracer() if args.trace else None
    probe_data = wl.probe_data() if args.trace else None
    checker = Checker()
    setup, plain, traced, layers = [], [], [], []
    deadline = perf_counter() + args.seconds
    while True:
        t0 = perf_counter()
        # one fresh-interpreter setup per pass spreads them over the whole run
        if not args.trace:
            setup_wall = time_setup(args.workload, args.seed, workdir)
        use_trace = tracer is not None and len(plain) > len(traced)
        p = run_pass(wl, tracer if use_trace else None, checker)
        if not args.trace:
            setup.append(setup_wall)
        if use_trace:
            traced.append(p)
            layers.append(layer_metrics(tracer, probe_rates(probe_data)))
        else:
            plain.append(p)
        passes = len(plain) + len(traced)
        if passes >= MIN_PASSES and perf_counter() + (perf_counter() - t0) > deadline:
            break
    return wl, setup, plain, traced, layers, checker


def summarise(wl, setup, plain, traced, layers, checker) -> dict:
    ops = wl.ops()
    calib = [statistics.fmean(p["calib"]) for p in plain]
    m = {
        "setup_s": _median([wall / c * CALIB_REF_S for wall, c in zip(setup, calib)]),
        "setup_wall_s": _median(setup),
        "pass_calib": _median([sum(p["times"]) / c for p, c in zip(plain, calib)]),
    }
    m.update(fastest(plain, ops)[0])
    m["pass_median_s"] = _median([sum(p["times"]) for p in plain])
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["ops_failed"] = len(checker.failures) / max(checker.attempted, 1)
    m["host.calib_s"] = _median([c for p in plain + traced for c in p["calib"]])
    if layers:
        for name in layers[0]:
            m[name] = _median([lm[name] for lm in layers])
        m["parallel.threads"] = thread_count()
        m["blas.threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
        m["trace.overhead_frac"] = fastest(traced, ops)[0]["pass_s"] / m["pass_s"] - 1.0
    return m


def report(args, wl, setup, plain, traced, m, checker, meta: dict, wanted: list) -> None:
    print(f"# fcc-trig benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# {len(plain)} untraced and {len(traced)} traced passes; pass_calib is the median "
          f"over untraced passes of pass time / mean calibration time in the pass; pass_s "
          f"takes each operation at its fastest over the untraced passes; setup_s is the "
          f"median of {len(setup)} fresh interpreters' wall time / the following pass's "
          f"calibration time * {CALIB_REF_S} s; per-layer values are medians over traced passes")
    print("# pass total per pass: " + " ".join(f"{sum(p['times']):.4g}" for p in plain))
    print("# host.calib_s median per pass: " + " ".join(
        f"{_median(p['calib']):.4g}" for p in plain + traced))
    print("# setup_wall_s per interpreter: " + " ".join(f"{t:.4g}" for t in setup))
    if not args.trace:
        for name in ("setup_s", "setup_wall_s", "pass_calib", "pass_s") + wl.stages + (
                "pass_median_s", "peak_rss_mb", "ops_failed", "host.calib_s"):
            print(f"{name:36s} {m[name]:14.6g} {UNITS[name]}")
        ops = wl.ops()
        best = fastest(plain, ops)[1]
        medians = {}
        for op, t in zip(ops, zip(*(p["times"] for p in plain))):
            medians[op.name] = medians.get(op.name, 0.0) + _median(t)
        for name in best:
            print(f"  op {name:32s} {best[name]:14.6g} s fastest {medians[name]:10.4g} s median")
    else:
        for name in sorted(k for k in m if k not in ("setup_s", "setup_wall_s", "ops_failed")):
            print(f"{name:36s} {m[name]:14.6g} {UNITS.get(name, 's')}")
    print(f"{'attempted':36s} {checker.attempted:14d} ops, failed {len(checker.failures)}")
    for failure in checker.failures[:10]:
        print(f"FAILED {failure}")
    missing = [n for n in wanted if n not in m]
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json were not measured: {missing}")
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {n: {"value": m[n], "unit": UNITS[n]} for n in wanted},
    }))


def run(args, root: Path, wanted: list, thread_env: dict) -> int:
    """Measure one workload, print the report; 1 if any output check failed."""
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work)
    try:
        wl, setup, plain, traced, layers, checker = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    m = summarise(wl, setup, plain, traced, layers, checker)
    report(args, wl, setup, plain, traced, m, checker, metadata(args, root, thread_env), wanted)
    return 1 if checker.failures else 0
