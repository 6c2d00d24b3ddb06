"""Command-line front end.

Subcommands: nodes, kernel, cubature, interpolate, lebesgue, verify.
Output is CSV (default) or canonical JSON, deterministic byte for byte
for a fixed invocation: node ordering is fixed, floats are printed in
their shortest round-trip form, JSON keys are sorted.

Exit codes: 0 success, 1 usage error (every ValueError), 2 verification
failure, 3 I/O error.  ``lebesgue`` takes --quad for ``sn`` only and --grid
for the other kinds only.  The environment variable FCC_TRIG_THREADS caps
the workers of the interpolation Lebesgue scans (0 or unset picks one
worker per CPU).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import claims, indexsets, interpolation, kernels, lattice, transforms, trigbasis

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the published contract is 1, which
    # main gives every ValueError
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _parse_k(text: str) -> np.ndarray:
    try:
        k = [int(p) for p in text.split(",")]
    except ValueError:
        k = []
    if len(k) != 4:
        raise ValueError("--k needs four comma-separated integers")
    return lattice.hindex(np.array(k, dtype=np.int64))


def _builtin(name: str, k):
    """Vectorized test functions selectable with --f."""
    if name == "one":
        return transforms.one
    if name == "expsin":
        return lambda t: np.exp(np.sin(2.0 * np.pi * np.asarray(t)[..., 0]))
    if k is None:
        raise ValueError(f"--f {name} needs --k a,b,c,d")
    if name == "phi":
        return lambda t: lattice.phi(k, t)
    if name == "tc":
        return lambda t: trigbasis.tc(np.sort(k)[::-1], t)
    if name == "ts":
        return lambda t: trigbasis.ts(np.sort(k)[::-1], t)
    raise ValueError(f"unknown builtin function {name!r}")


def _cells(col, fmt):
    """fmt of each distinct value of an array of rows, as an object array, and
    the (rows, columns) index of every cell into it."""
    cols = col.reshape(len(col), -1)
    # keyed on the bits of numbers so that -0.0 is not printed as 0.0
    keys = cols if cols.dtype.kind == "U" else cols.view(f"u{cols.itemsize}")
    uniq, inv = np.unique(keys, return_inverse=True)
    vals = uniq if cols.dtype.kind == "U" else uniq.view(cols.dtype)
    return np.array([fmt(v) for v in vals.tolist()], dtype=object), inv.reshape(cols.shape)


def _csv(header, lines) -> str:
    # cells are numbers and fixed labels, none needs CSV quoting
    return "\n".join([",".join(header), *lines]) + "\n"


def _record(args, obj) -> str:
    """One record: canonical JSON, or CSV with its keys as the header and
    None as an empty cell."""
    if args.format == "json":
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    return _csv(list(obj), [",".join("" if v is None else str(v) for v in obj.values())])


def _table(args, obj, key, fields) -> str:
    """A table in --format only: CSV, or canonical JSON of obj with the
    records under obj[key].

    A field is (record key, or None for a CSV-only column; CSV column
    names; array with one row per record).  A 2-D array fills one CSV
    column per name and one list per record.  Each field's distinct values
    are formatted once (str for CSV, json.dumps for JSON) and every row is
    one join of its cells; a JSON record's keys, brackets and braces go
    onto the distinct texts of its first and last cells.
    """
    js = args.format == "json"
    if js:
        fields = sorted((f for f in fields if f[0]), key=lambda f: f[0])
    cols = []  # per column: [distinct texts, index of each row's text]
    for rkey, _, col in fields:
        texts, inv = _cells(col, json.dumps if js else str)
        field = [[texts, i] for i in inv.T]
        if js:  # adding a str to an object array adds it to every text
            brackets = col.ndim > 1
            field[0][0] = f"{json.dumps(rkey)}:" + "[" * brackets + field[0][0]
            field[-1][0] = field[-1][0] + "]" * brackets
        cols += field
    cols[0][0], cols[-1][0] = "{" * js + cols[0][0], cols[-1][0] + "}" * js
    rows = map(",".join, zip(*(texts[inv].tolist() for texts, inv in cols)))
    if not js:
        return _csv([name for _, names, _ in fields for name in names], rows)
    body = f"[{','.join(rows)}]"
    return "{" + ",".join(f"{json.dumps(k)}:{body if k == key else json.dumps(v)}"
                          for k, v in sorted({**obj, key: None}.items())) + "}\n"


def _emit(args, text: str) -> None:
    """Write text to --out or stdout."""
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _values(grid, vals, prefix=""):
    """Fields of complex values at grid points; CSV names prefix + re, im."""
    vals = np.asarray(vals, dtype=complex)
    return [("point", ["t1", "t2", "t3", "t4"], grid),
            ("re", [prefix + "re"], vals.real), ("im", [prefix + "im"], vals.imag)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_nodes(args) -> int:
    n = args.n
    if args.set == "lambda":
        idx = indexsets.lambda_nodes(n)
        keys = indexsets.lambdas(idx, n)
        label = lambda w: (indexsets.TETRA_STRATA[w], str(w), float(w))
    else:
        idx = {"hn": indexsets.generate_Hn, "hstar": indexsets.generate_Hn_star,
               "hcirc": indexsets.generate_Hn_circ}[args.set](n)
        keys = indexsets.stratum_keys(idx, n)

        def label(key):
            a, b = divmod(key, 4)
            size = int(indexsets._BINOM[a + b, a])
            return "interior" if key == 0 else f"{a}{b}", str(Fraction(1, size)), 1 / size
    # stratum and weight depend on the class key only: label each class once
    uniq, inv = np.unique(keys, return_inverse=True)
    stratum, weight, weight_float = (np.array(col)[inv.reshape(keys.shape)]
                                     for col in zip(*map(label, uniq.tolist())))
    pts = idx.astype(float) / (4.0 * n)
    _emit(args, _table(args, {"set": args.set, "n": n}, "nodes", [
        ("index", ["j1", "j2", "j3", "j4"], idx),
        ("point", ["t1", "t2", "t3", "t4"], pts),
        ("cartesian", ["x1", "x2", "x3"], lattice.from_homogeneous(pts)),
        ("stratum", ["stratum"], stratum),
        ("weight", ["weight"], weight),
        (None, ["weight_float"], weight_float),
    ]))
    return EXIT_OK


def cmd_kernel(args) -> int:
    n, name = args.n, args.f
    if n < 1:
        raise ValueError("degree must be >= 1")
    if name == "phi":
        fn = _builtin("phi", _parse_k(args.k) if args.k else None)
    else:
        kernel = {"theta": kernels.theta_n, "dirichlet": kernels.dirichlet,
                  "phin": kernels.phi_n_fund, "phistar": kernels.phi_n_star}[name]
        fn = lambda t: kernel(n, t)
    grid = interpolation.dodeca_grid(args.grid)
    obj = {"kernel": name, "n": n, "grid": args.grid}
    _emit(args, _table(args, obj, "values", _values(grid, fn(grid))))
    return EXIT_OK


def cmd_cubature(args) -> int:
    k = _parse_k(args.k) if args.k else None
    f = _builtin(args.f, k)
    if args.set == "lambda":
        val = transforms.cubature_tetra(f, args.n)
    else:
        val = transforms.cubature_dodeca(f, args.n)
    _emit(args, _record(args, {
        "set": args.set,
        "n": args.n,
        "f": args.f,
        "value_re": float(val.real),
        "value_im": float(val.imag),
    }))
    return EXIT_OK


def _read_samples(path, kind, n):
    values = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"j1", "j2", "j3", "j4", "re", "im"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError("sample file needs the header j1,j2,j3,j4,re,im")
        for row in reader:
            key = tuple(int(row[c]) for c in ("j1", "j2", "j3", "j4"))
            if key in values:
                raise ValueError(f"sample file lists node {key} twice")
            values[key] = complex(float(row["re"]), float(row["im"]))
    return interpolation.from_node_values(kind, n, values)


def cmd_interpolate(args) -> int:
    kind, n = args.kind, args.n
    f = None
    if args.samples:
        interp = _read_samples(args.samples, kind, n)
    elif args.f:
        k = _parse_k(args.k) if args.k else None
        f = _builtin(args.f, k)
        interp = interpolation.BUILDERS[kind](f, n)
    else:
        raise ValueError("interpolate needs either --f or --samples")
    grid = interpolation._KINDS[kind].grid(args.grid)
    approx = np.asarray(interp(grid), dtype=complex)
    fields = _values(grid, approx, "approx_")
    obj = {"kind": kind, "n": n, "grid": args.grid}
    if f is not None:
        exact = np.asarray(f(grid), dtype=complex)
        err = np.abs(approx - exact)
        fields += [("f_re", ["f_re"], exact.real), ("f_im", ["f_im"], exact.imag),
                   ("abs_err", ["abs_err"], err)]
        obj["max_error"] = float(err.max())
        print(f"max_error={obj['max_error']!r}", file=sys.stderr)
    _emit(args, _table(args, obj, "values", fields))
    return EXIT_OK


def cmd_lebesgue(args) -> int:
    kind, n = args.kind, args.n
    # sn reads only --quad (S_n is a convolution, nothing to scan), the
    # interpolation kinds only --grid
    flag, given = ("--grid", args.grid) if kind == "sn" else ("--quad", args.quad)
    if given is not None:
        raise ValueError(f"{flag} does not apply to --kind {kind}")
    grid = quad = None
    if kind == "sn":
        quad = 64 if args.quad is None else args.quad
        est = transforms.lebesgue_Sn(n, quad_order=quad)
    else:
        grid = 25 if args.grid is None else args.grid
        est = interpolation.lebesgue_interp(n, kind, grid_per_axis=grid)
    _emit(args, _record(args, {
        "kind": kind,
        "n": n,
        "grid": grid,
        "quad": quad,
        "estimate": float(est),
        "ratio_log3": float(est) / math.log(n) ** 3 if n > 1 else None,
    }))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    """One PASS/FAIL line per claim at degree --n.  An exact claim (tolerance
    None) passes when it measures 0, the others below their tolerance."""
    n, m = args.n, max(args.n, 4)
    if n < 1:
        raise ValueError("degree must be >= 1")
    t = np.random.default_rng(20240901).uniform(-1.0, 1.0, size=(50, 4))
    t -= t.mean(axis=1, keepdims=True)
    expsin = _builtin("expsin", None)
    checks = []
    for d in range(1, m + 1):
        checks.append((f"cardinalities degree {d}", claims.cardinalities(d), None))
        checks.append((f"weight sums degree {d}", claims.weight_sums(d), None))
    cubature = max(claims.dodeca_cubature(n), claims.tetra_cubature(n))
    checks.append((f"orthonormality degree {n}", claims.orthonormality(n), 1e-10))
    checks.append((f"cubature exactness degree {n}", cubature, 1e-10))
    for name, err in claims.compact_kernels(n, t).items():
        checks.append((f"{name} compact vs direct", err, 1e-9))
    for name, err in claims.tetra_basis(n, t).items():
        checks.append((f"{name} compact vs orbit sum", err, 1e-9))
    for kind in ("in", "instar", "lnstar"):
        err = claims.interpolation_condition(kind, n, expsin)
        checks.append((f"interpolation condition {kind}", err, 1e-9))
    err = claims.interpolation_condition("ln", m, expsin)
    checks.append((f"interpolation condition ln (degree {m})", err, 1e-9))
    failures = 0
    for name, got, tol in checks:
        ok = got == 0 if tol is None else got < tol
        detail = f"off by {got}" if tol is None else f"max err {got:.2e}"
        print(f"PASS {name}" if ok else f"FAIL {name} ({detail})")
        failures += not ok
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
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
    sp.add_argument("--grid", type=int, default=None, help="grid points per axis (not sn)")
    common(sp)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
