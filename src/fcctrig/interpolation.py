"""The four interpolation operators and their Lebesgue constants.

Kinds and node sets:

==========  =========================  ==============================
kind        nodes                      fundamental function
==========  =========================  ==============================
``in``      half-open set (4n^3)       Phi_n(t - node)
``instar``  symmetric set              Phi_n*(t - node)
``ln``      strictly interior
            tetrahedral (sine)         (6/n^3) P- of the theta difference
``lnstar``  tetrahedral (cosine)       lambda_j P+ Phi_n*(t - node)
==========  =========================  ==============================

An interpolant stores the raw node values; evaluation is a kernel sum
over the nodes (no linear solve exists or is needed, the operators are
diagonal in node space).  ``instar`` interpolates only at interior nodes;
at a boundary node it produces the plain sum of f over the node's
congruence class, so boundary values are matched only by data that
vanishes there.  Its output is still a polynomial with frequencies in
the symmetric set, which is what the tetrahedral operators need.

``ln`` has no nodes at all below degree 4 (the strictly interior
tetrahedral set is empty) and is then the zero operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import map_chunks
from .indexsets import (
    generate_Hn,
    generate_Hn_star,
    lambda_circ_nodes,
    lambda_nodes,
    lambda_weights,
    weight_lambda,
)
from .kernels import phi_n_star, theta_n
from .lattice import fold_to_omega_H, hindex
from .symmetry import PERM_SIGNS, PERM_TABLE
from .transforms import unit_cell_points
from .trigbasis import tc, ts

KINDS = ("in", "instar", "ln", "lnstar")


def node_set(kind: str, n: int) -> np.ndarray:
    if kind == "in":
        return generate_Hn(n)
    if kind == "instar":
        return generate_Hn_star(n)
    if kind == "ln":
        return lambda_circ_nodes(n)
    if kind == "lnstar":
        return lambda_nodes(n)
    raise ValueError(f"unknown interpolation kind {kind!r}")


# ---------------------------------------------------------------------------
# fundamental functions


def _theta_diff(n: int, t) -> np.ndarray:
    return theta_n(n, t) - theta_n(n - 1, t)


def ell_circ(j, n: int, t) -> np.ndarray:
    """Sine-type fundamental function, compact form.

    (6/n^3) times the antisymmetrization in t of the theta difference
    shifted to the node j/(4n).
    """
    j = hindex(j)
    t = np.asarray(t, dtype=float)
    imgs = t[..., PERM_TABLE] - j.astype(float) / (4.0 * n)
    vals = _theta_diff(n, imgs)
    return (vals * PERM_SIGNS).sum(axis=-1) * (6.0 / n**3) / 24.0


def ell_circ_ts_sum(j, n: int, t) -> np.ndarray:
    """Oracle: (144/n^3) sum over interior indices of TS_k(t) conj(TS_k(node))."""
    j = hindex(j)
    t = np.asarray(t, dtype=float)
    pt = j.astype(float) / (4.0 * n)
    total = 0.0
    for k in lambda_circ_nodes(n):
        total = total + ts(k, t) * np.conj(ts(k, pt))
    return total * 144.0 / n**3


def ell_tri(j, n: int, t) -> np.ndarray:
    """Cosine-type fundamental function: lambda_j P+ Phi_n*(t - node)."""
    j = hindex(j)
    lam = weight_lambda(j, n)
    t = np.asarray(t, dtype=float)
    imgs = t[..., PERM_TABLE] - j.astype(float) / (4.0 * n)
    return lam * phi_n_star(n, imgs).mean(axis=-1)


def ell_tri_tc_sum(j, n: int, t) -> np.ndarray:
    """Oracle: (lambda_j/4n^3) sum over the tetrahedral set of
    lambda_k TC_k(t) conj(TC_k(node))."""
    j = hindex(j)
    lam_j = weight_lambda(j, n)
    t = np.asarray(t, dtype=float)
    pt = j.astype(float) / (4.0 * n)
    total = 0.0
    for k, lam_k in zip(lambda_nodes(n), lambda_weights(n).tolist()):
        total = total + lam_k * tc(k, t) * np.conj(tc(k, pt))
    return total * lam_j / (4.0 * n**3)


# ---------------------------------------------------------------------------
# interpolants


@dataclass(frozen=True)
class Interpolant:
    """Node values of one operator; calling it evaluates the kernel sum."""

    kind: str
    n: int
    nodes: np.ndarray
    values: np.ndarray

    def __call__(self, t) -> np.ndarray:
        """Evaluate at zero-sum points of shape (..., 4).

        Raises ValueError when the last axis is not 4, an entry is not
        finite, or a point is off the zero-sum hyperplane, i.e.
        |sum t| > 1e-9 * max(1, max |t_i|).
        """
        t = np.asarray(t, dtype=float)
        if t.ndim == 0 or t.shape[-1] != 4:
            raise ValueError(
                f"points need 4 coordinates on the last axis, got shape {t.shape}"
            )
        if not np.all(np.isfinite(t)):
            raise ValueError("points must be finite")
        scale = np.maximum(1.0, np.abs(t).max(axis=-1))
        if np.any(np.abs(t.sum(axis=-1)) > 1e-9 * scale):
            raise ValueError("points must lie on the zero-sum hyperplane")
        if len(self.nodes) == 0:
            return np.zeros(t.shape[:-1], dtype=complex)
        vals = self.values.astype(complex)
        if self.kind == "lnstar":
            vals = lambda_weights(self.n).astype(float) * vals
        chunks = _split(t.reshape(-1, 4), self._chunk_rows())
        out = map_chunks(lambda pts: self._eval_chunk(pts, vals), chunks)
        return np.concatenate(out).reshape(t.shape[:-1])

    def _chunk_rows(self) -> int:
        per_point = len(self.nodes) * (24 if self.kind in ("ln", "lnstar") else 1)
        return max(16, int(2**21 // max(per_point, 1)))

    def _eval_chunk(self, pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Kernel sum at pts; for ``lnstar`` vals already carry the weights lambda."""
        n = self.n
        xp = self.nodes.astype(float) / (4.0 * n)
        if self.kind == "in":
            kk = generate_Hn(n).astype(float)
            et = np.exp(0.5j * np.pi * (pts @ kk.T))
            ex = np.exp(0.5j * np.pi * (xp @ kk.T))
            return (et @ (np.conj(ex).T @ vals)) / (4 * n**3)
        if self.kind == "instar":
            diffs = pts[:, None, :] - xp[None, :, :]
            return phi_n_star(n, diffs) @ vals
        imgs = pts[:, PERM_TABLE]  # (m, 24, 4)
        diffs = imgs[:, :, None, :] - xp[None, None, :, :]
        if self.kind == "ln":
            g = _theta_diff(n, diffs) @ vals
            return (g * PERM_SIGNS).sum(axis=-1) * (6.0 / n**3) / 24.0
        if self.kind == "lnstar":
            return (phi_n_star(n, diffs) @ vals).mean(axis=-1)
        raise ValueError(f"unknown interpolation kind {self.kind!r}")


def _split(arr: np.ndarray, rows: int) -> list:
    return [arr[i : i + rows] for i in range(0, len(arr), rows)]


def _build(kind: str, n: int, f) -> Interpolant:
    nodes = node_set(kind, n)
    if len(nodes) == 0:
        values = np.zeros(0, dtype=complex)
    else:
        values = np.asarray(f(nodes.astype(float) / (4.0 * n)), dtype=complex)
    return Interpolant(kind=kind, n=n, nodes=nodes, values=values)


def interp_In(f, n: int) -> Interpolant:
    """Interpolation on the half-open node set; exact at all 4n^3 nodes."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return _build("in", n, f)


def interp_In_star(f, n: int) -> Interpolant:
    """Symmetric-node interpolation; boundary nodes get congruence-class sums."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return _build("instar", n, f)


def interp_Ln(f, n: int) -> Interpolant:
    """Sine interpolation at strictly interior tetrahedral nodes."""
    if n < 2:
        raise ValueError("sine interpolation needs degree >= 2")
    return _build("ln", n, f)


def interp_Ln_star(f, n: int) -> Interpolant:
    """Cosine interpolation at all tetrahedral nodes."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return _build("lnstar", n, f)


def from_node_values(kind: str, n: int, values: dict) -> Interpolant:
    """Build an interpolant from a {index tuple: value} table.

    The key set must match the operator's node set exactly; a mismatch
    reports the expected set and both counts.
    """
    nodes = node_set(kind, n)
    want = [tuple(int(v) for v in k) for k in nodes]
    got = set(values.keys())
    if got != set(want):
        raise ValueError(
            f"node values do not match the {kind!r} node set for degree {n}: "
            f"expected {len(want)} nodes, got {len(got)}"
        )
    vals = np.array([values[k] for k in want], dtype=complex)
    return Interpolant(kind=kind, n=n, nodes=nodes, values=vals)


# ---------------------------------------------------------------------------
# evaluation grids and Lebesgue constants


def tetra_grid(grid_per_axis: int) -> np.ndarray:
    """Homogeneous points covering the closed tetrahedron.

    Barycentric-style sweep of the three consecutive coordinate gaps over
    i + j + k <= grid_per_axis; includes all faces and vertices.
    """
    g = grid_per_axis
    if g < 1:
        raise ValueError("grid must have at least 1 step per axis")
    rows = [
        (i / g, j / g, k / g)
        for i in range(g + 1)
        for j in range(g + 1 - i)
        for k in range(g + 1 - i - j)
    ]
    u = np.array(rows)
    t4 = -(u[:, 0] + 2.0 * u[:, 1] + 3.0 * u[:, 2]) / 4.0
    t1 = t4 + u.sum(axis=1)
    t2 = t4 + u[:, 1] + u[:, 2]
    t3 = t4 + u[:, 2]
    return np.stack([t1, t2, t3, t4], axis=-1)


def dodeca_grid(grid_per_axis: int) -> np.ndarray:
    """Unit-cell sampling folded into the fundamental dodecahedron."""
    return fold_to_omega_H(unit_cell_points(grid_per_axis))


def lebesgue_interp(n: int, kind: str, grid_per_axis: int = 25) -> float:
    """Grid maximum of the Lebesgue function of one operator.

    The scan runs over the closed tetrahedron for the tetrahedral kinds
    and over the dodecahedron for the others; the result is a lower
    estimate of the operator norm.  It is the maximum over the grid's
    points only, so it depends on the grid: ``tetra_grid`` and
    ``dodeca_grid`` sample at spacing ``1 / grid_per_axis``, and a grid of
    fixed size neither nests across degrees nor lines up with the node
    spacing ``1 / (4n)``.  A grid whose points are all nodes returns the
    trivial floor, e.g. 1.0 for ``lnstar`` and 6.0 for ``instar`` at n = 8
    on grid 8.
    """
    nodes = node_set(kind, n)
    if len(nodes) == 0:
        return 0.0
    xp = nodes.astype(float) / (4.0 * n)
    if kind in ("ln", "lnstar"):
        grid = tetra_grid(grid_per_axis)
    else:
        grid = dodeca_grid(grid_per_axis)

    if kind == "in":
        kk = generate_Hn(n).astype(float)
        ex = np.exp(0.5j * np.pi * (xp @ kk.T))

        def leb(chunk):
            et = np.exp(0.5j * np.pi * (chunk @ kk.T))
            return float(
                np.abs(et @ np.conj(ex).T).sum(axis=-1).max() / (4 * n**3)
            )

        rows = max(16, int(2**21 // max(len(kk), 1)))
    elif kind == "instar":

        def leb(chunk):
            diffs = chunk[:, None, :] - xp[None, :, :]
            return float(np.abs(phi_n_star(n, diffs)).sum(axis=-1).max())

        rows = max(16, int(2**22 // max(len(nodes), 1)))
    elif kind == "ln":

        def leb(chunk):
            imgs = chunk[:, PERM_TABLE]
            diffs = imgs[:, :, None, :] - xp[None, None, :, :]
            vals = (_theta_diff(n, diffs) * PERM_SIGNS[:, None]).sum(axis=1)
            return float(np.abs(vals * (6.0 / n**3) / 24.0).sum(axis=-1).max())

        rows = max(8, int(2**21 // max(24 * len(nodes), 1)))
    elif kind == "lnstar":
        lam = lambda_weights(n).astype(float)

        def leb(chunk):
            imgs = chunk[:, PERM_TABLE]
            diffs = imgs[:, :, None, :] - xp[None, None, :, :]
            vals = phi_n_star(n, diffs).mean(axis=1) * lam
            return float(np.abs(vals).sum(axis=-1).max())

        rows = max(8, int(2**21 // max(24 * len(nodes), 1)))
    else:
        raise ValueError(f"unknown interpolation kind {kind!r}")

    return max(map_chunks(leb, _split(grid, rows)))
