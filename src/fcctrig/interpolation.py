"""The four interpolation operators and their Lebesgue constants.

An interpolant stores the raw node values; evaluation is a kernel sum
over the nodes (no linear solve exists or is needed, the operators are
diagonal in node space).  Every fundamental function is a weighted
exponential sum over a frequency set K, averaged over images j sigma of
its node j under S4:
ell_j(t) = a_j mean_sigma s_sigma sum_k w_k phi_k(t - j sigma / 4n).

==========  ====================  ========  ========  ============  ========
kind        nodes j               K         w_k       s_sigma       a_j
==========  ====================  ========  ========  ============  ========
``in``      H_n (half open)       H_n       1/4n^3    no images     1
``instar``  H_n* (closed)         H_n*      c_k/4n^3  no images     1
``ln``      tetrahedral interior  H_n circ  6/n^3     24, signed    1
``lnstar``  tetrahedral           H_n*      c_k/4n^3  24, unsigned  lambda_j
==========  ====================  ========  ========  ============  ========

with c_k = 1/(class size of k).  So ``in`` and ``instar`` use Phi_n and
Phi_n*, ``lnstar`` is lambda_j P+ Phi_n*, and ``ln`` is (6/n^3) P- of the
theta difference theta_n - theta_{n-1}, the Dirichlet kernel of
H_{n-1}* = H_n circ.  ``instar`` interpolates only at interior nodes; at
a boundary node it produces the plain sum of f over the node's
congruence class, so boundary values are matched only by data that
vanishes there.  Its output is still a polynomial with frequencies in the
symmetric set, which is what the tetrahedral operators need.  ``ln`` has
no nodes at all below degree 4 (the strictly interior tetrahedral set is
empty) and is then the zero operator.

Evaluation route.  Every node lies on the grid m / 4n, m in Z^3, so the
fundamental functions at a point are a gather, at the node images, from
the kernel cube of ``transforms._map_cube`` of size 4n (one FFT per
point, memory per chunk bounded there whatever the node count).
Interpolant evaluation and the Lebesgue scan both run this one routine,
``_map_fundamental``.  The compact forms (``ell_tri``, ``ell_circ``,
``phi_n_star``, ``theta_n``) and the sums ``ell_*_sum`` are the paper's
identities and the oracles this route is tested against.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .indexsets import (
    class_sizes,
    generate_Hn,
    generate_Hn_circ,
    generate_Hn_star,
    lambda_circ_nodes,
    lambda_nodes,
    lambda_weights,
    lambdas,
    weight_lambda,
)
from .kernels import phi_n_star, theta_n
from .lattice import fold_to_omega_H, hindex
from .symmetry import PERM_SIGNS, PERM_TABLE
from .transforms import _map_cube, unit_cell_points
from .trigbasis import tc, ts

def node_set(kind: str, n: int) -> np.ndarray:
    if kind not in _KINDS:
        raise ValueError(f"unknown interpolation kind {kind!r}")
    return _KINDS[kind].nodes(n)


# ---------------------------------------------------------------------------
# fundamental functions, compact forms


def ell_circ(j, n: int, t) -> np.ndarray:
    """Sine-type fundamental function, compact form.

    (6/n^3) times the antisymmetrization in t of the theta difference
    shifted to the node j/(4n).
    """
    j = hindex(j)
    t = np.asarray(t, dtype=float)
    imgs = t[..., PERM_TABLE] - j.astype(float) / (4.0 * n)
    vals = theta_n(n, imgs) - theta_n(n - 1, imgs)
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
# evaluation grids


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


# ---------------------------------------------------------------------------
# fundamental functions, one FFT route for every kind


# One row of the module docstring's table: node set of n, frequency set K
# of n, weights w_k of (K, n), signs s_sigma of the first len(signs) rows of
# PERM_TABLE (the identity comes first), whether a_j = lambda_j, and the
# evaluation grid of grid_per_axis on the kind's domain.
_Kind = namedtuple("_Kind", "nodes freqs weights signs lam grid")


def _star_weights(kk: np.ndarray, n: int) -> np.ndarray:
    return 1.0 / (4 * n**3 * class_sizes(kk, n))


_KINDS = {
    "in": _Kind(generate_Hn, generate_Hn, lambda kk, n: 1.0 / (4 * n**3),
                np.ones(1), False, dodeca_grid),
    "instar": _Kind(generate_Hn_star, generate_Hn_star, _star_weights,
                    np.ones(1), False, dodeca_grid),
    "ln": _Kind(lambda_circ_nodes, generate_Hn_circ, lambda kk, n: 6.0 / n**3,
                PERM_SIGNS, False, tetra_grid),
    "lnstar": _Kind(lambda_nodes, generate_Hn_star, _star_weights,
                    np.ones(24), True, tetra_grid),
}
KINDS = tuple(_KINDS)

def _map_fundamental(kind: str, n: int, nodes, pts: np.ndarray, reduce) -> list:
    """reduce(ell) for each chunk of pts, in order; ell[p, j] = ell_j(pts[p]),
    gathered from the kernel cube at the node images (module docstring)."""
    spec = _KINDS[kind]
    size = 4 * n
    kk = spec.freqs(n)
    # flat cube position of every image j sigma of every node, (nodes, images)
    at = nodes[:, PERM_TABLE[: len(spec.signs)]][..., :3] % size
    at = at @ [size * size, size, 1]
    signs = spec.signs / len(spec.signs)
    factor = lambdas(nodes, n) if spec.lam else 1.0
    return _map_cube(
        kk, spec.weights(kk, n), size, pts,
        lambda cube: reduce(cube.reshape(len(cube), -1)[:, at] @ signs * factor),
        at.size,
    )


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
        out = _map_fundamental(self.kind, self.n, self.nodes, t.reshape(-1, 4),
                               lambda ell: ell @ self.values)
        return np.concatenate(out).reshape(t.shape[:-1])


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
# Lebesgue constants


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

    sum_j |ell_j(t)| comes from the routine that evaluates interpolants
    (module docstring): one FFT of size (4n)^3 per grid point and about
    two arrays of at most max(2^20, (4n)^3) complex elements per worker.
    """
    return max(
        _map_fundamental(
            kind, n, node_set(kind, n), _KINDS[kind].grid(grid_per_axis),
            lambda ell: float(np.abs(ell).sum(axis=1).max()),
        )
    )
