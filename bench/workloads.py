"""Workloads of the fcc-trig benchmark.

A workload builds its inputs from a seed (``setup``), lists its timed
operations (``ops``: each one call of a public fcctrig function) and checks
every operation's output against the package's own oracles on a seeded
subsample.  It also names the data its per-layer probes run on.

- ``tetra``: the tetrahedral operators.  Kernel work goes through the 24
  permuted images; weights touch only 165 nodes.
- ``dodeca``: the dodecahedral operators and the partial-sum operator,
  without images; the exponential-matmul route, folding, ``dirichlet``
  and the largest memory footprint.
- ``exact``: rational weights and tables through the CLI (``nodes``,
  ``verify``, ``interpolate --samples``) and two cubature sweeps: many
  small builds, each evaluated at few points.

Run as a script, the module performs one setup in a fresh interpreter,
which is what run.py times as ``setup_s``:

    python3 bench/workloads.py <workload> <seed> <workdir>
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Callable, NamedTuple

import numpy as np

import fcctrig as F
from fcctrig import cli
from fcctrig import interpolation as I
from fcctrig import kernels as K
from fcctrig import transforms as T
from fcctrig.symmetry import PERM_TABLE

TOL = 1e-9
PROBE_PAIRS = 20_000
PROBE_NODES = 400


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Op:
    name: str
    stage: str  # the end-to-end stage metric the operation counts toward
    run: Callable[[], Any]
    check: Callable[[Any], None]  # raises CheckFailed


class CliOutput(NamedTuple):
    code: int
    text: str


def run_cli(argv) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return CliOutput(code, out.getvalue())


def _close(got, want, what: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    if not err <= TOL:
        raise CheckFailed(f"{what}: max error {err:.3g} > {TOL}")


def _delta_check(k, what: str) -> Callable[[Any], None]:
    """Cubature of a basis function of degree <= 2n-1 is 1 at k = 0, else 0."""
    want = 1.0 if not np.any(k) else 0.0
    return lambda val: _close(val, want, f"{what} at k={tuple(int(v) for v in k)}")


def _lebesgue_check(est, lower: float, what: str) -> None:
    if not np.isfinite(est):
        raise CheckFailed(f"{what}: estimate {est} is not finite")
    if est < lower - TOL:
        raise CheckFailed(f"{what}: estimate {est!r} below direct-sum value {lower!r}")


def _expsin(phase: float):
    return lambda t: np.exp(np.sin(2.0 * np.pi * np.asarray(t)[..., 0] + phase))


def _node_points(idx, n: int) -> np.ndarray:
    return np.asarray(idx, dtype=float) / (4.0 * n)


def _pick(rng, count: int, k: int) -> np.ndarray:
    return np.sort(rng.choice(count, size=min(k, count), replace=False))


def _sample_diffs(rng, pts: np.ndarray, nodes: np.ndarray, images: bool) -> np.ndarray:
    """A seeded sample of the (point - node) differences a kernel sees."""
    p = rng.integers(0, len(pts), PROBE_PAIRS)
    j = rng.integers(0, len(nodes), PROBE_PAIRS)
    src = pts[p]
    if images:
        src = src[np.arange(PROBE_PAIRS)[:, None], PERM_TABLE[rng.integers(0, 24, PROBE_PAIRS)]]
    return src - nodes[j]


def ell_tri_matrix(n: int, nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """ell_tri_tc_sum(j, n, p) for every node j and point p, shape (points, nodes).

    The oracle's sum of lambda_k TC_k(t) conj(TC_k(node)), formed as one
    matrix product instead of a Python loop per node.
    """
    lam = F.lambda_weights(n).astype(float)
    tc_pts = np.stack([F.tc(k, pts) for k in nodes], axis=-1)
    tc_nodes = np.stack([F.tc(k, _node_points(nodes, n)) for k in nodes], axis=-1)
    return (tc_pts * lam) @ np.conj(tc_nodes).T * lam / (4.0 * n**3)


class Workload:
    """Base: seeded inputs, timed operations, probe data."""

    name = ""
    stages: tuple = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.setup()

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def probe_data(self) -> dict:
        """Inputs of the per-layer probes, drawn from this workload's own data.

        Keys: diffs/n (phi_n_star, theta difference), dirichlet_diffs/
        dirichlet_n, nodes/nodes_n (weights, strata, congruence orbits),
        points (folding, phi, tc) and k (a monotone frequency index).
        """
        raise NotImplementedError


class Tetra(Workload):
    name = "tetra"
    stages = ("interp_s", "lebesgue_s")
    N, GRID, LEB_GRID = 8, 7, 6

    def setup(self) -> None:
        rng = self.rng(1)
        n = self.N
        self.f = _expsin(rng.uniform(0.0, 2.0 * np.pi))
        self.nodes = F.lambda_nodes(n)
        self.circ = F.lambda_circ_nodes(n)
        self.grid = I.tetra_grid(self.GRID)
        self.leb_grid = I.tetra_grid(self.LEB_GRID)
        # built once here so that setup_s includes sampling f at the nodes
        self.interps = (F.interp_Ln_star(self.f, n), F.interp_Ln(self.f, n))
        self.pick = _pick(rng, len(self.grid), 3)
        self.pick_leb = _pick(rng, len(self.leb_grid), 3)
        self.pick_nodes = _pick(rng, len(self.nodes), 2)
        self.probe_rng_seed = rng.integers(2**32)

    def ops(self) -> list:
        n, f, grid = self.N, self.f, self.grid
        return [
            Op("interp_Ln_star", "interp_s",
               lambda: F.interp_Ln_star(f, n)(grid), self._check_lnstar),
            Op("interp_Ln", "interp_s",
               lambda: F.interp_Ln(f, n)(grid), self._check_ln),
            Op("lebesgue_interp_lnstar", "lebesgue_s",
               lambda: F.lebesgue_interp(n, "lnstar", self.LEB_GRID), self._check_leb),
        ]

    def _oracle(self, pts) -> np.ndarray:
        ell = ell_tri_matrix(self.N, self.nodes, pts)
        for j in self.pick_nodes:
            _close(ell[:, j], I.ell_tri_tc_sum(self.nodes[j], self.N, pts),
                   "ell_tri matrix vs ell_tri_tc_sum")
        return ell

    def _check_lnstar(self, out) -> None:
        pts = self.grid[self.pick]
        vals = self.f(_node_points(self.nodes, self.N))
        _close(out[self.pick], self._oracle(pts) @ vals, "interp_Ln_star vs ell_tri_tc_sum")

    def _check_ln(self, out) -> None:
        pts = self.grid[self.pick]
        want = sum(
            self.f(_node_points(j, self.N)) * I.ell_circ_ts_sum(j, self.N, pts)
            for j in self.circ
        )
        _close(out[self.pick], want, "interp_Ln vs ell_circ_ts_sum")

    def _check_leb(self, est) -> None:
        ell = self._oracle(self.leb_grid[self.pick_leb])
        _lebesgue_check(est, float(np.abs(ell).sum(axis=1).max()), "lebesgue lnstar")

    def probe_data(self) -> dict:
        rng = np.random.default_rng(self.probe_rng_seed)
        return {
            "diffs": _sample_diffs(rng, self.grid, _node_points(self.nodes, self.N), True),
            "n": self.N,
            "dirichlet_diffs": _sample_diffs(rng, self.grid, _node_points(self.nodes, self.N), True),
            "dirichlet_n": self.N,
            "nodes": self.nodes,
            "nodes_n": self.N,
            "points": self.grid,
            "k": self.nodes[rng.integers(len(self.nodes))],
        }


class Dodeca(Workload):
    name = "dodeca"
    stages = ("interp_s", "lebesgue_s")
    N_STAR, N_IN, GRID, LEB_GRID = 8, 8, 5, 4
    SN_N, SN_GRID, SN_QUAD = 4, 3, 24

    def setup(self) -> None:
        rng = self.rng(2)
        self.f = _expsin(rng.uniform(0.0, 2.0 * np.pi))
        self.star = F.generate_Hn_star(self.N_STAR)
        self.hn = F.generate_Hn(self.N_IN)
        self.cell = T.unit_cell_points(self.GRID)
        self.grid = F.fold_to_omega_H(self.cell)
        self.leb_grid = I.dodeca_grid(self.LEB_GRID)
        self.sn_t = T.unit_cell_points(self.SN_GRID)
        self.sn_s = T.unit_cell_points(self.SN_QUAD)
        # built once here so that setup_s includes sampling f at the nodes
        self.interps = (F.interp_In_star(self.f, self.N_STAR), F.interp_In(self.f, self.N_IN))
        self.pick = _pick(rng, len(self.grid), 2)
        self.pick_leb = _pick(rng, len(self.leb_grid), 2)
        self.pick_sn = _pick(rng, len(self.sn_t), 2)
        self.probe_rng_seed = rng.integers(2**32)

    def ops(self) -> list:
        f, grid = self.f, self.grid
        return [
            Op("interp_In_star", "interp_s",
               lambda: F.interp_In_star(f, self.N_STAR)(grid), self._check_instar),
            Op("interp_In", "interp_s",
               lambda: F.interp_In(f, self.N_IN)(grid), self._check_in),
            Op("lebesgue_interp_instar", "lebesgue_s",
               lambda: F.lebesgue_interp(self.N_STAR, "instar", self.LEB_GRID),
               self._check_leb),
            Op("lebesgue_Sn", "lebesgue_s",
               lambda: F.lebesgue_Sn(self.SN_N, self.SN_GRID, self.SN_QUAD), self._check_sn),
        ]

    def _phi_star_rows(self, pts) -> np.ndarray:
        """phi_n_star_direct(t - node) for every node, one row per point."""
        xs = _node_points(self.star, self.N_STAR)
        return np.array([K.phi_n_star_direct(self.N_STAR, p - xs) for p in pts])

    def _check_instar(self, out) -> None:
        pts = self.grid[self.pick]
        vals = self.f(_node_points(self.star, self.N_STAR))
        _close(out[self.pick], self._phi_star_rows(pts) @ vals,
               "interp_In_star vs phi_n_star_direct")

    def _check_in(self, out) -> None:
        xs = _node_points(self.hn, self.N_IN)
        vals = self.f(xs)
        for i in self.pick:
            want = sum(
                K.phi_n_fund(self.N_IN, self.grid[i] - xs[s:s + 500]) @ vals[s:s + 500]
                for s in range(0, len(xs), 500)
            )
            _close(out[i], want, "interp_In vs phi_n_fund exponential sum")

    def _check_leb(self, est) -> None:
        rows = self._phi_star_rows(self.leb_grid[self.pick_leb])
        _lebesgue_check(est, float(np.abs(rows).sum(axis=1).max()), "lebesgue instar")

    def _check_sn(self, est) -> None:
        lower = max(
            float(np.abs(K.dirichlet_direct(self.SN_N, p - self.sn_s)).mean())
            for p in self.sn_t[self.pick_sn]
        )
        _lebesgue_check(est, lower, "lebesgue_Sn")

    def probe_data(self) -> dict:
        rng = np.random.default_rng(self.probe_rng_seed)
        xs = _node_points(self.star, self.N_STAR)
        return {
            "diffs": _sample_diffs(rng, self.grid, xs, False),
            "n": self.N_STAR,
            "dirichlet_diffs": _sample_diffs(rng, self.sn_t, self.sn_s, False),
            "dirichlet_n": self.SN_N,
            "nodes": self.star[_pick(rng, len(self.star), PROBE_NODES)],
            "nodes_n": self.N_STAR,
            "points": self.cell,
            "k": np.sort(self.star[rng.integers(len(self.star))])[::-1].copy(),
        }


class Exact(Workload):
    name = "exact"
    stages = ("cli_s", "verify_s", "cubature_s")
    NODES_N, LAMBDA_N, VERIFY_N = 10, 24, 2
    INTERP_N, INTERP_GRID = 4, 4
    CUB_N, CUB_SET_N, CUB_ROWS = 3, 5, 100

    def setup(self) -> None:
        rng = self.rng(3)
        self.samples_nodes = F.lambda_nodes(self.INTERP_N)
        self.samples = rng.normal(size=len(self.samples_nodes)) + 1j * rng.normal(
            size=len(self.samples_nodes)
        )
        self.samples_path = f"{self.workdir}/samples-{self.seed}.csv"
        with open(self.samples_path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["j1", "j2", "j3", "j4", "re", "im"])
            for k, v in zip(self.samples_nodes, self.samples):
                w.writerow([int(x) for x in k] + [repr(float(v.real)), repr(float(v.imag))])
        star = F.generate_Hn_star(self.CUB_SET_N)
        self.cub_rows = star[_pick(rng, len(star), self.CUB_ROWS)]
        self.cub_tetra = F.lambda_nodes(self.CUB_SET_N)
        grid_size = comb(self.INTERP_GRID + 3, 3)
        self.pick = _pick(rng, grid_size, 3)
        self.probe_rng_seed = rng.integers(2**32)

    def ops(self) -> list:
        ops = [
            Op("cli nodes --set hstar", "cli_s",
               lambda: run_cli(["nodes", "--set", "hstar", "--n", self.NODES_N,
                                "--format", "json"]),
               self._check_hstar),
            Op("cli nodes --set lambda", "cli_s",
               lambda: run_cli(["nodes", "--set", "lambda", "--n", self.LAMBDA_N]),
               self._check_lambda),
            Op("cli verify", "verify_s",
               lambda: run_cli(["verify", "--n", self.VERIFY_N]), self._check_verify),
            Op("cli interpolate --samples", "cli_s",
               lambda: run_cli(["interpolate", "--kind", "lnstar", "--samples",
                                self.samples_path, "--n", self.INTERP_N,
                                "--grid", self.INTERP_GRID]),
               self._check_interpolate),
        ]
        n = self.CUB_N
        for k in self.cub_rows:
            ops.append(Op("cubature_dodeca", "cubature_s",
                          lambda k=k: F.cubature_dodeca(lambda p: F.phi(k, p), n),
                          _delta_check(k, "cubature_dodeca")))
        for k in self.cub_tetra:
            ops.append(Op("cubature_tetra", "cubature_s",
                          lambda k=k: F.cubature_tetra(lambda p: F.tc(k, p), n),
                          _delta_check(k, "cubature_tetra")))
        return ops

    @staticmethod
    def _ok(out: CliOutput, what: str) -> None:
        if out.code != 0:
            raise CheckFailed(f"{what}: exit code {out.code}")

    def _check_hstar(self, out: CliOutput) -> None:
        self._ok(out, "nodes hstar")
        n = self.NODES_N
        rows = json.loads(out.text)["nodes"]
        if len(rows) != (n + 1) ** 4 - n**4:
            raise CheckFailed(f"nodes hstar: {len(rows)} rows, want {(n + 1) ** 4 - n ** 4}")
        total = sum(Fraction(r["weight"]) for r in rows)
        if total != 4 * n**3:
            raise CheckFailed(f"nodes hstar: weight sum {total}, want {4 * n ** 3}")

    def _check_lambda(self, out: CliOutput) -> None:
        self._ok(out, "nodes lambda")
        n = self.LAMBDA_N
        rows = list(csv.DictReader(io.StringIO(out.text)))
        if len(rows) != comb(n + 3, 3):
            raise CheckFailed(f"nodes lambda: {len(rows)} rows, want {comb(n + 3, 3)}")
        total = sum(Fraction(r["weight"]) for r in rows)
        if total != 4 * n**3:
            raise CheckFailed(f"nodes lambda: weight sum {total}, want {4 * n ** 3}")

    def _check_verify(self, out: CliOutput) -> None:
        self._ok(out, "verify")
        if not out.text.rstrip().endswith("all checks passed"):
            raise CheckFailed("verify: no 'all checks passed' line")

    def _check_interpolate(self, out: CliOutput) -> None:
        self._ok(out, "interpolate --samples")
        rows = list(csv.DictReader(io.StringIO(out.text)))
        if len(rows) != comb(self.INTERP_GRID + 3, 3):
            raise CheckFailed(f"interpolate --samples: {len(rows)} rows")
        picked = [rows[i] for i in self.pick]
        pts = np.array([[float(r[f"t{c}"]) for c in range(1, 5)] for r in picked])
        got = np.array([complex(float(r["approx_re"]), float(r["approx_im"])) for r in picked])
        want = sum(
            v * I.ell_tri_tc_sum(j, self.INTERP_N, pts)
            for j, v in zip(self.samples_nodes, self.samples)
        )
        _close(got, want, "interpolate --samples vs ell_tri_tc_sum")

    def probe_data(self) -> dict:
        rng = np.random.default_rng(self.probe_rng_seed)
        n = self.INTERP_N
        grid = I.tetra_grid(self.INTERP_GRID)
        xs = _node_points(self.samples_nodes, n)
        star = F.generate_Hn_star(self.NODES_N)
        return {
            "diffs": _sample_diffs(rng, grid, xs, True),
            "n": n,
            "dirichlet_diffs": _sample_diffs(rng, grid, xs, True),
            "dirichlet_n": n,
            "nodes": star[_pick(rng, len(star), PROBE_NODES)],
            "nodes_n": self.NODES_N,
            "points": _node_points(F.generate_Hn_star(self.CUB_N), self.CUB_N),
            "k": self.cub_tetra[rng.integers(len(self.cub_tetra))],
        }


WORKLOADS = {w.name: w for w in (Tetra, Dodeca, Exact)}


if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
