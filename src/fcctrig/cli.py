"""Command-line front end.

Subcommands: nodes, kernel, cubature, interpolate, lebesgue, verify.
Output is CSV (default) or canonical JSON, deterministic byte for byte
for a fixed invocation: node ordering is fixed, floats are printed in
their shortest round-trip form, JSON keys are sorted.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
The environment variable FCC_TRIG_THREADS caps internal parallelism
(0 or unset picks one worker per CPU).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import indexsets, interpolation, kernels, lattice, transforms, trigbasis

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the published contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _fnum(x) -> str:
    return repr(float(x))


def _parse_k(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError("--k needs four comma-separated integers")
    try:
        k = np.array([int(p) for p in parts], dtype=np.int64)
    except ValueError:
        raise _UsageError("--k needs four comma-separated integers") from None
    try:
        return lattice.hindex(k)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _builtin(name: str, k):
    """Vectorized test functions selectable with --f."""
    if name == "one":
        return transforms.one
    if name == "expsin":
        return lambda t: np.exp(np.sin(2.0 * np.pi * np.asarray(t)[..., 0]))
    if k is None:
        raise _UsageError(f"--f {name} needs --k a,b,c,d")
    if name == "phi":
        return lambda t: lattice.phi(k, t)
    if name == "tc":
        return lambda t: trigbasis.tc(np.sort(k)[::-1], t)
    if name == "ts":
        return lambda t: trigbasis.ts(np.sort(k)[::-1], t)
    raise _UsageError(f"unknown builtin function {name!r}")


def _emit(args, header, rows, json_obj) -> None:
    """Write CSV rows or a JSON object to --out or stdout."""
    if args.format == "json":
        text = json.dumps(json_obj, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _node_table(args):
    n = args.n
    if args.set == "lambda":
        idx = indexsets.lambda_nodes(n)
        lam = indexsets.lambdas(idx, n).tolist()
        strata = [indexsets.TETRA_STRATA[w] for w in lam]
        weights = [str(w) for w in lam]
    else:
        gen = {
            "hn": indexsets.generate_Hn,
            "hstar": indexsets.generate_Hn_star,
            "hcirc": indexsets.generate_Hn_circ,
        }[args.set]
        idx = gen(n)
        labels = indexsets.strata(idx, n).tolist()
        strata = ["interior" if a + b == 0 else f"{a}{b}" for a, b in labels]
        weights = [str(Fraction(1, b)) for b in indexsets.class_sizes(idx, n).tolist()]
    pts = idx.astype(float) / (4.0 * n)
    xs = lattice.from_homogeneous(pts)
    header = [
        "j1", "j2", "j3", "j4",
        "t1", "t2", "t3", "t4",
        "x1", "x2", "x3",
        "stratum", "weight", "weight_float",
    ]
    rows, jrows = [], []
    for k, t, x, s, w in zip(idx, pts, xs, strata, weights):
        row = (
            [str(int(v)) for v in k]
            + [_fnum(v) for v in t]
            + [_fnum(v) for v in x]
            + [s, w, _fnum(float(Fraction(w)))]
        )
        rows.append(row)
        jrows.append(
            {
                "index": [int(v) for v in k],
                "point": [float(v) for v in t],
                "cartesian": [float(v) for v in x],
                "stratum": s,
                "weight": w,
            }
        )
    return header, rows, {"set": args.set, "n": n, "nodes": jrows}


def cmd_nodes(args) -> int:
    header, rows, obj = _node_table(args)
    _emit(args, header, rows, obj)
    return EXIT_OK


def cmd_kernel(args) -> int:
    n, name = args.n, args.f
    if name == "phi":
        k = _parse_k(args.k) if args.k else None
        if k is None:
            raise _UsageError("--f phi needs --k a,b,c,d")
        fn = lambda t: lattice.phi(k, t)
    elif name == "theta":
        fn = lambda t: kernels.theta_n(n, t)
    elif name == "dirichlet":
        fn = lambda t: kernels.dirichlet(n, t)
    elif name == "phin":
        fn = lambda t: kernels.phi_n_fund(n, t)
    elif name == "phistar":
        fn = lambda t: kernels.phi_n_star(n, t)
    else:
        raise _UsageError(f"unknown kernel {name!r}")
    grid = interpolation.dodeca_grid(args.grid)
    vals = np.asarray(fn(grid), dtype=complex)
    header = ["t1", "t2", "t3", "t4", "re", "im"]
    rows = [
        [_fnum(a) for a in t] + [_fnum(v.real), _fnum(v.imag)]
        for t, v in zip(grid, vals)
    ]
    obj = {
        "kernel": name,
        "n": n,
        "grid": args.grid,
        "values": [
            {"point": [float(a) for a in t], "re": float(v.real), "im": float(v.imag)}
            for t, v in zip(grid, vals)
        ],
    }
    _emit(args, header, rows, obj)
    return EXIT_OK


def cmd_cubature(args) -> int:
    k = _parse_k(args.k) if args.k else None
    f = _builtin(args.f, k)
    if args.set == "lambda":
        val = transforms.cubature_tetra(f, args.n)
    else:
        val = transforms.cubature_dodeca(f, args.n)
    header = ["set", "n", "f", "value_re", "value_im"]
    rows = [[args.set, str(args.n), args.f, _fnum(val.real), _fnum(val.imag)]]
    obj = {
        "set": args.set,
        "n": args.n,
        "f": args.f,
        "value_re": val.real,
        "value_im": val.imag,
    }
    _emit(args, header, rows, obj)
    return EXIT_OK


def _read_samples(path, kind, n):
    values = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"j1", "j2", "j3", "j4", "re", "im"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise _UsageError("sample file needs the header j1,j2,j3,j4,re,im")
        for row in reader:
            key = tuple(int(row[c]) for c in ("j1", "j2", "j3", "j4"))
            values[key] = complex(float(row["re"]), float(row["im"]))
    try:
        return interpolation.from_node_values(kind, n, values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def cmd_interpolate(args) -> int:
    kind, n = args.kind, args.n
    f = None
    if args.samples:
        interp = _read_samples(args.samples, kind, n)
    elif args.f:
        k = _parse_k(args.k) if args.k else None
        f = _builtin(args.f, k)
        builder = {
            "in": interpolation.interp_In,
            "instar": interpolation.interp_In_star,
            "ln": interpolation.interp_Ln,
            "lnstar": interpolation.interp_Ln_star,
        }[kind]
        interp = builder(f, n)
    else:
        raise _UsageError("interpolate needs either --f or --samples")
    grid = interpolation._KINDS[kind].grid(args.grid)
    approx = np.asarray(interp(grid), dtype=complex)
    header = ["t1", "t2", "t3", "t4", "approx_re", "approx_im"]
    rows = [
        [_fnum(a) for a in t] + [_fnum(v.real), _fnum(v.imag)]
        for t, v in zip(grid, approx)
    ]
    obj_rows = [
        {"point": [float(a) for a in t], "re": float(v.real), "im": float(v.imag)}
        for t, v in zip(grid, approx)
    ]
    obj = {"kind": kind, "n": n, "grid": args.grid, "values": obj_rows}
    if f is not None:
        exact = np.asarray(f(grid), dtype=complex)
        err = np.abs(approx - exact)
        header += ["f_re", "f_im", "abs_err"]
        for row, fv, e in zip(rows, exact, err):
            row += [_fnum(fv.real), _fnum(fv.imag), _fnum(e)]
        for orow, fv, e in zip(obj_rows, exact, err):
            orow["f_re"] = float(fv.real)
            orow["f_im"] = float(fv.imag)
            orow["abs_err"] = float(e)
        obj["max_error"] = float(err.max())
        print(f"max_error={_fnum(err.max())}", file=sys.stderr)
    _emit(args, header, rows, obj)
    return EXIT_OK


def cmd_lebesgue(args) -> int:
    kind, n = args.kind, args.n
    if kind == "sn":
        grid = args.grid if args.grid else 17
        quad = args.quad if args.quad else 64
        est = transforms.lebesgue_Sn(n, grid_per_axis=grid, quad_order=quad)
        qcol = str(quad)
        qval = quad
    else:
        grid = args.grid if args.grid else 25
        est = interpolation.lebesgue_interp(n, kind, grid_per_axis=grid)
        qcol = ""
        qval = None
    ratio = est / math.log(n) ** 3 if n > 1 else float("nan")
    header = ["kind", "n", "grid", "quad", "estimate", "ratio_log3"]
    rows = [[kind, str(n), str(grid), qcol, _fnum(est), _fnum(ratio)]]
    obj = {
        "kind": kind,
        "n": n,
        "grid": grid,
        "quad": qval,
        "estimate": est,
        "ratio_log3": None if n <= 1 else ratio,
    }
    _emit(args, header, rows, obj)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_checks(n: int, rng: np.random.Generator):
    """Yield (name, ok, detail) for the invariant suite at degree n."""
    # cardinalities and weights
    for m in range(1, max(n, 4) + 1):
        ok = (
            len(indexsets.generate_Hn(m)) == 4 * m**3
            and len(indexsets.generate_Hn_star(m)) == (m + 1) ** 4 - m**4
            and len(indexsets.generate_Hn_circ(m)) == m**4 - (m - 1) ** 4
        )
        yield f"cardinalities degree {m}", ok, ""
        sizes, counts = np.unique(
            indexsets.class_sizes(indexsets.generate_Hn_star(m), m), return_counts=True
        )
        wsum = sum(Fraction(c, s) for s, c in zip(sizes.tolist(), counts.tolist()))
        lsum = int(indexsets.lambda_weights(m).sum())
        ok = wsum == 4 * m**3 and lsum == 4 * m**3
        yield f"weight sums degree {m}", ok, f"{wsum} vs {4 * m ** 3}"

    # discrete orthonormality on the half-open set
    idx = indexsets.generate_Hn(n)
    pts = idx.astype(float) / (4.0 * n)
    e = np.exp(0.5j * np.pi * (pts @ idx.astype(float).T))
    gram = np.conj(e).T @ e / (4 * n**3)
    err = float(np.abs(gram - np.eye(len(idx))).max())
    yield f"orthonormality degree {n}", err < 1e-10, f"max err {err:.2e}"

    # cubature integrates the star frequencies of degree 2n-1 to delta
    big = indexsets.generate_Hn_star(2 * n - 1)
    star = indexsets.generate_Hn_star(n)
    e = np.exp(0.5j * np.pi * (star.astype(float) / (4.0 * n)) @ big.astype(float).T)
    vals = (1.0 / indexsets.class_sizes(star, n)) @ e / (4 * n**3)
    err = float(np.abs(vals - np.all(big == 0, axis=1)).max())
    yield f"cubature exactness degree {n}", err < 1e-10, f"max err {err:.2e}"

    # compact forms against their summation oracles
    t = rng.uniform(-1.0, 1.0, size=(50, 4))
    t -= t.mean(axis=1, keepdims=True)
    pairs = [
        ("dirichlet", kernels.dirichlet, kernels.dirichlet_direct),
        ("dirichlet product", kernels.dirichlet_product, kernels.dirichlet_direct),
        ("edge stratum sum", kernels.edge_sum, kernels.edge_sum_direct),
        ("symmetric kernel", kernels.phi_n_star, kernels.phi_n_star_direct),
    ]
    for name, fast, ref in pairs:
        err = float(np.abs(fast(n, t) - ref(n, t)).max())
        yield f"{name} compact vs direct", err < 1e-9, f"max err {err:.2e}"
    errs_tc, errs_ts = [], []
    for _ in range(50):
        kp = np.sort(rng.integers(0, n + 1, size=3))[::-1]
        k = np.array(
            [4 * v - kp.sum() for v in kp] + [-kp.sum()], dtype=np.int64
        )
        tt = rng.uniform(-1.0, 1.0, size=4)
        tt -= tt.mean()
        errs_tc.append(abs(trigbasis.tc(k, tt) - trigbasis.tc_direct(k, tt)))
        if len(set(k.tolist())) == 4:
            errs_ts.append(abs(trigbasis.ts(k, tt) - trigbasis.ts_direct(k, tt)))
    yield "cosine compact vs orbit sum", max(errs_tc) < 1e-9, f"max err {max(errs_tc):.2e}"
    if errs_ts:
        yield "sine compact vs orbit sum", max(errs_ts) < 1e-9, f"max err {max(errs_ts):.2e}"

    # interpolation conditions
    def probe(t):
        return np.exp(np.sin(2.0 * np.pi * np.asarray(t)[..., 0]))

    for kind, builder in (
        ("in", interpolation.interp_In),
        ("instar", interpolation.interp_In_star),
        ("lnstar", interpolation.interp_Ln_star),
    ):
        interp = builder(probe, n)
        nodes = interpolation.node_set(kind, n)
        pts = nodes.astype(float) / (4.0 * n)
        got = interp(pts)
        if kind == "instar":
            # a node's congruence class is the set of nodes sharing j[:3] mod 4n
            _, cls = np.unique(nodes[:, :3] % (4 * n), axis=0, return_inverse=True)
            want = np.bincount(cls, weights=probe(pts))[cls]
        else:
            want = probe(pts)
        err = float(np.abs(got - want).max())
        yield f"interpolation condition {kind}", err < 1e-9, f"max err {err:.2e}"
    m = max(n, 4)
    interp = interpolation.interp_Ln(probe, m)
    nodes = interpolation.node_set("ln", m)
    pts = nodes.astype(float) / (4.0 * m)
    err = float(np.abs(interp(pts) - probe(pts)).max())
    yield f"interpolation condition ln (degree {m})", err < 1e-9, f"max err {err:.2e}"


def cmd_verify(args) -> int:
    rng = np.random.default_rng(20240901)
    failures = 0
    for name, ok, detail in _verify_checks(args.n, rng):
        tag = "PASS" if ok else "FAIL"
        line = f"{tag} {name}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="fcc-trig", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid_default=None):
        sp.add_argument("--n", type=int, default=2, help="degree (default 2)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if grid_default is not None:
            sp.add_argument(
                "--grid", type=int, default=grid_default, help="grid points per axis"
            )

    sp = sub.add_parser("nodes", help="emit a node/weight table")
    sp.add_argument("--set", choices=("hn", "hstar", "hcirc", "lambda"), default="hstar")
    common(sp)
    sp.set_defaults(fn=cmd_nodes)

    sp = sub.add_parser("kernel", help="evaluate a kernel on a grid")
    sp.add_argument("--f", choices=("phi", "theta", "dirichlet", "phin", "phistar"),
                    default="dirichlet")
    sp.add_argument("--k", default=None, help="frequency index a,b,c,d")
    common(sp, grid_default=6)
    sp.set_defaults(fn=cmd_kernel)

    sp = sub.add_parser("cubature", help="apply a cubature rule to a builtin function")
    sp.add_argument("--set", choices=("hstar", "lambda"), default="hstar")
    sp.add_argument("--f", default="one", help="one|phi|tc|ts|expsin")
    sp.add_argument("--k", default=None, help="frequency index a,b,c,d")
    common(sp)
    sp.set_defaults(fn=cmd_cubature)

    sp = sub.add_parser("interpolate", help="evaluate an interpolant on a grid")
    sp.add_argument("--kind", choices=interpolation.KINDS, default="instar")
    sp.add_argument("--f", default=None, help="one|phi|tc|ts|expsin")
    sp.add_argument("--k", default=None, help="frequency index a,b,c,d")
    sp.add_argument("--samples", default=None, help="CSV of node values (j1..j4,re,im)")
    common(sp, grid_default=8)
    sp.set_defaults(fn=cmd_interpolate)

    sp = sub.add_parser("lebesgue", help="estimate a Lebesgue constant")
    sp.add_argument("--kind", choices=interpolation.KINDS + ("sn",), default="instar")
    sp.add_argument("--quad", type=int, default=None, help="quadrature per axis (sn only)")
    common(sp, grid_default=0)
    sp.set_defaults(fn=cmd_lebesgue)

    sp = sub.add_parser("verify", help="run the invariant suite")
    sp.add_argument("--n", type=int, default=2, help="degree (default 2)")
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
