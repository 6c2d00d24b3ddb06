"""The four interpolation operators and their Lebesgue constants.

An interpolant stores the raw node values and is a kernel sum over the
nodes (no linear solve exists or is needed, the operators are
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

Evaluation route.  For zero-sum t, phi_k(t) = exp(2 pi i k'.y) with
k' = to_reduced(k) in [-n, n]^3 and y = t[:3], so an interpolant is one
(2n+1)^3 box of coefficients.  ``Interpolant._box`` adds a_j f_j at
j[:3] mod 4n, takes one fftn F and sets c_k = w_k mean_sigma s_sigma
F[to_reduced(k sigma) mod 4n]; ``transforms._eval_box`` evaluates the
box, as it does Fourier partial sums.  ``lebesgue_interp`` needs each
|ell_j| and gathers them at the node images from the per-point kernel
cube of ``transforms._map_cube``.  The compact forms (``ell_tri``,
``ell_circ``, ``phi_n_star``, ``theta_n``) and the sums ``ell_*_sum`` are
the paper's identities and the oracles both routes are tested against.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

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
    to_reduced,
    weight_lambda,
)
from .kernels import phi_n_star, theta_n
from .lattice import fold_to_omega_H, hindex
from .symmetry import PERM_SIGNS, PERM_TABLE
from .transforms import _check_points, _eval_box, _map_cube, unit_cell_points
from .trigbasis import tc, ts

def node_set(kind: str, n: int) -> np.ndarray:
    """The operator's nodes; ValueError for an unknown kind or a degree it lacks."""
    if kind not in _KINDS:
        raise ValueError(f"unknown interpolation kind {kind!r}")
    if kind == "ln" and n < 2:
        raise ValueError("sine interpolation needs degree >= 2")
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
    if grid_per_axis < 2:
        raise ValueError(f"grid must have at least 2 points per axis, got {grid_per_axis}")
    return fold_to_omega_H(unit_cell_points(grid_per_axis))


# ---------------------------------------------------------------------------
# the four kinds, one table row each


# One row of the module docstring's table: node set of n, frequency set K of
# n, weights w_k of (K, n), signs s_sigma of the first len(signs) rows of
# PERM_TABLE (identity first), whether a_j = lambda_j, and the evaluation grid.
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

# ---------------------------------------------------------------------------
# interpolants


@dataclass(frozen=True)
class Interpolant:
    """Node values of one operator; calling it evaluates the kernel sum.

    The first call builds the coefficient box and keeps it, so ``values``
    must not be mutated after construction."""

    kind: str
    n: int
    nodes: np.ndarray
    values: np.ndarray

    def __call__(self, t) -> np.ndarray:
        """Evaluate at zero-sum points of shape (..., 4); ValueError when the
        last axis is not 4, an entry is not finite, or |sum t| > 1e-9 *
        max(1, max |t_i|)."""
        t = _check_points(t)
        scale = np.maximum(1.0, np.abs(t).max(axis=-1))
        if np.any(np.abs(t.sum(axis=-1)) > 1e-9 * scale):
            raise ValueError("points must lie on the zero-sum hyperplane")
        return _eval_box(self._box, t)

    @cached_property
    def _box(self) -> np.ndarray:
        """The (2n+1)^3 coefficient box (module docstring)."""
        spec, n, size = _KINDS[self.kind], self.n, 4 * self.n
        a = self.values * lambdas(self.nodes, n) if spec.lam else self.values
        F = np.zeros(size**3, dtype=complex)
        np.add.at(F, (self.nodes[:, :3] % size) @ [size * size, size, 1], a)
        F = np.fft.fftn(F.reshape(size, size, size))
        kk = spec.freqs(n)
        # phi_k(j sigma) = phi_{k sigma^-1}(j), and sigma -> sigma^-1 maps the
        # summed images onto themselves and keeps s_sigma
        c = sum(s * F[tuple((to_reduced(kk[:, p]) % size).T)]
                for s, p in zip(spec.signs, PERM_TABLE))
        box = np.zeros((2 * n + 1,) * 3, dtype=complex)
        box[tuple((to_reduced(kk) + n).T)] = c * spec.weights(kk, n) / len(spec.signs)
        return box


def _build(kind: str, n: int, f) -> Interpolant:
    nodes = node_set(kind, n)
    pts = nodes.astype(float) / (4.0 * n)
    values = np.asarray(f(pts), dtype=complex) if len(nodes) else np.zeros(0, complex)
    return Interpolant(kind=kind, n=n, nodes=nodes, values=values)


def interp_In(f, n: int) -> Interpolant:
    """Interpolation on the half-open node set; exact at all 4n^3 nodes."""
    return _build("in", n, f)


def interp_In_star(f, n: int) -> Interpolant:
    """Symmetric-node interpolation; boundary nodes get congruence-class sums."""
    return _build("instar", n, f)


def interp_Ln(f, n: int) -> Interpolant:
    """Sine interpolation at strictly interior tetrahedral nodes."""
    return _build("ln", n, f)


def interp_Ln_star(f, n: int) -> Interpolant:
    """Cosine interpolation at all tetrahedral nodes."""
    return _build("lnstar", n, f)


BUILDERS = {"in": interp_In, "instar": interp_In_star, "ln": interp_Ln, "lnstar": interp_Ln_star}


def from_node_values(kind: str, n: int, values: dict) -> Interpolant:
    """Build an interpolant from a {index tuple: value} table.

    The key set must match the operator's node set exactly; a mismatch
    reports the expected set and both counts.  A value that is not finite
    is rejected with its node.
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
    if not np.isfinite(vals).all():
        raise ValueError(f"node value at {want[np.argmin(np.isfinite(vals))]} is not finite")
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

    Every ell_j(t) is gathered at the node images from the kernel cube of
    ``transforms._map_cube``: one FFT of size (4n)^3 per grid point, two
    arrays of at most max(2^20, (4n)^3) complex elements per worker.
    """
    nodes, spec, size = node_set(kind, n), _KINDS[kind], 4 * n
    kk = spec.freqs(n)
    # flat cube position of every image j sigma of every node, (nodes, images)
    at = (nodes[:, PERM_TABLE[: len(spec.signs)]][..., :3] % size) @ [size * size, size, 1]
    signs = spec.signs / len(spec.signs)
    factor = lambdas(nodes, n) if spec.lam else 1.0

    def reduce(cube):
        ell = cube.reshape(len(cube), -1)[:, at] @ signs * factor
        return float(np.abs(ell).sum(axis=1).max())

    return max(_map_cube(kk, spec.weights(kk, n), size,
                         spec.grid(grid_per_axis), reduce, at.size))
