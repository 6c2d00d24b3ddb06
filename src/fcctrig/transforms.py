"""Discrete inner products, cubature rules, trigonometric polynomials.

Function arguments are vectorized callables: they receive an array of
points with shape (..., 4) (or (..., 3) for the regular-tetrahedron rule)
and return values of shape (...).  Use ``one`` for the constant function.

The continuous inner product is realized as a tensor trapezoidal rule over
the lattice unit cell A[0,1)^3 in lattice coordinates.  For H-periodic
integrands this equals the normalized integral over the dodecahedron, and
for trigonometric polynomials it is exact once the per-axis order exceeds
the bandwidth, so the oracle values in the tests are exact up to rounding.

``TrigPoly``, a (2n+1)^3 box of coefficients, is the one form of a trig
polynomial: Fourier partial sums, interpolants and the kernels are each one.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .indexsets import _RULES, _degree, _rho, _weight_box, to_reduced
from .lattice import _CHUNK_ELEMENTS, A_MATRIX, _box, _points, to_homogeneous


def _finite(values: np.ndarray, at: np.ndarray, what: str = "node value") -> np.ndarray:
    """values, or ValueError naming the first row of at whose value is not finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{what} at {tuple(at[bad.argmax()].tolist())} is not finite")
    return values


def _sample(f, pts: np.ndarray, where: str, at: np.ndarray, what="node value", name="f returned"):
    """f at the N points pts, in f's dtype but at least float (complex for an
    object array, e.g. of Fractions).  A scalar is taken at every point;
    another shape than (N,) is a ValueError that says name and where, as is a
    value that is not finite, named by what and its row of at."""
    values = np.asarray(f(pts))
    dtype = np.result_type(values.dtype, float)
    values = values.astype(dtype if dtype.kind in "fc" else complex, copy=False)
    if values.ndim == 0:
        values = np.full(len(pts), values)
    elif values.shape != (len(pts),):
        raise ValueError(
            f"{name} shape {values.shape} at {where}, expected ({len(pts)},) or a scalar"
        )
    return _finite(values, at, what)


def one(t) -> np.ndarray:
    """The constant function 1 in the vectorized calling convention."""
    return np.ones(np.asarray(t).shape[:-1])


def _pair(f, g, pts: np.ndarray, where: str, at: np.ndarray):
    """f conj(g) at the points pts, both sampled with ``_sample``; f alone when
    g is None, as a cubature rule takes it."""
    fv = _sample(f, pts, where, at, "value of f")
    if g is None:
        return fv
    return fv * np.conj(_sample(g, pts, where, at, "value of g", name="g returned"))


def _node_sum(f, g, rule: str, n: int, regular: bool = False) -> complex:
    """(1/4n^3) sum_j (a_j/q) f conj(g), or the same of f for g None, over the
    nodes j of ``indexsets._RULES[rule]`` at j/4n, or in regular coordinates
    at to_reduced(j)/n: the one weighted node sum of the inner products and
    the cubature rules, formed in the samples' dtype."""
    idx, a, q = _RULES[rule](n)
    at = to_reduced(idx) if regular else idx
    pts = at / (n if regular else 4.0 * n)
    where = f"the degree-{n} {'regular ' if regular else ''}nodes"
    return complex((_pair(f, g, pts, where, at) * (a / q)).sum() / (4 * n**3))


def inner_n(f, g, n: int) -> complex:
    """Plain node average over the half-open set: (1/4n^3) sum f conj(g)."""
    return _node_sum(f, g, "hn", n)


def inner_n_star(f, g, n: int) -> complex:
    """Weighted node sum over the symmetric set with the boundary weights c."""
    return _node_sum(f, g, "hstar", n)


def inner_tetra(f, g, n: int) -> complex:
    """Tetrahedral inner product: (1/4n^3) sum lambda_j f conj(g)."""
    return _node_sum(f, g, "lambda", n)


def inner_tetra_interior(f, g, n: int) -> complex:
    """Interior tetrahedral inner product: (6/n^3) sum over strictly interior nodes."""
    return _node_sum(f, g, "interior", n)


def cubature_dodeca(f, n: int) -> complex:
    """Symmetric-node rule for the normalized dodecahedron integral; exact
    for trigonometric polynomials of degree up to 2n - 1.  Equal (==) to
    ``inner_n_star(f, one, n)``, without sampling ``one``."""
    return _node_sum(f, None, "hstar", n)


def cubature_tetra(f, n: int) -> complex:
    """Tetrahedral-node rule; exact on the symmetrized space of degree 2n - 1.
    Equal (==) to ``inner_tetra(f, one, n)``, without sampling ``one``."""
    return _node_sum(f, None, "lambda", n)


def cubature_tetra_regular(f3, n: int) -> complex:
    """Same rule in regular-tetrahedron coordinates: nodes (k1, k2, k3)/n,
    0 <= k3 <= k2 <= k1 <= n, with the weights of the homogeneous rule."""
    return _node_sum(f3, None, "lambda", n, regular=True)


def unit_cell_points(q: int) -> np.ndarray:
    """Homogeneous coordinates of the q^3 lattice-cell grid points.

    The grid is {0, 1/q, ..., (q-1)/q}^3 in lattice coordinates, mapped by
    the generator matrix; it is a fundamental-cell sampling, left-closed so
    trapezoidal weights are all equal.
    """
    if operator.index(q) < 2:
        raise ValueError("quadrature order must be at least 2")
    return to_homogeneous(_box(0, q - 1) / q @ A_MATRIX.T.astype(float))


def continuous_inner(f, g, quad_order: int) -> complex:
    """Normalized continuous inner product over the fundamental domain.

    Computed as the mean of f conj(g) over the unit-cell grid; exact for
    H-periodic trigonometric integrands of per-axis degree < quad_order.
    """
    pts = unit_cell_points(quad_order)
    return complex(_pair(f, g, pts, f"the {quad_order}^3 cell grid", pts).mean())


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """sum_k c_k phi_k(t) over k in H.  At zero-sum t, phi_k(t) =
    exp(2 pi i k'.t[:3]) with k' = to_reduced(k) in [-n, n]^3, and c_k sits
    at box[k' + n] of a (2n+1)^3 box, kept as a read-only complex copy;
    anything but a 3-D cube with an odd side is a ValueError."""

    box: np.ndarray

    def __post_init__(self):
        box = np.array(self.box, dtype=complex)
        if box.ndim != 3 or len(set(box.shape)) != 1 or box.shape[0] % 2 == 0:
            raise ValueError(f"box must be a cube with an odd side, got shape {box.shape}")
        box.flags.writeable = False
        object.__setattr__(self, "box", box)

    @classmethod
    def _own(cls, box: np.ndarray) -> TrigPoly:
        """The TrigPoly of box itself, made read-only: for a builder's fresh
        complex cube, which no one else holds, so it needs no copy."""
        box.flags.writeable = False
        poly = object.__new__(cls)
        object.__setattr__(poly, "box", box)
        return poly

    @property
    def degree(self) -> int:
        return len(self.box) // 2

    def __call__(self, t) -> np.ndarray:
        """Evaluate at zero-sum points of shape (..., 4); ValueError when the
        last axis is not 4, an entry is not finite, or |sum t| > 1e-9 *
        max(1, max |t_i|).  The box is contracted one axis at a time, in
        chunks that cap every array at 2^20 elements."""
        t = _points(t)
        if not np.all(np.isfinite(t)):
            raise ValueError("points must be finite")
        if np.any(np.abs(t.sum(axis=-1)) > 1e-9 * np.maximum(1.0, np.abs(t).max(axis=-1))):
            raise ValueError("points must lie on the zero-sum hyperplane")
        box, m = self.box, len(self.box)
        y = t.reshape(-1, 4)[:, :3] % 1.0
        freq = 2j * np.pi * np.arange(-(m // 2), m // 2 + 1)
        rows = max(1, _CHUNK_ELEMENTS // (m * m))
        out = np.empty(len(y), dtype=complex)
        for i in range(0, len(y), rows):
            e = np.exp(y[i : i + rows, :, None] * freq)  # (p, 3, m)
            g = (e[:, 0] @ box.reshape(m, m * m)).reshape(-1, m, m)
            g = np.einsum("pbc,pb->pc", g, e[:, 1])
            out[i : i + rows] = np.einsum("pc,pc->p", g, e[:, 2])
        return out.reshape(t.shape[:-1])

    def _cell_slabs(self, q: int):
        """The values at the q^3 cell grid t[:3] = u / q in ``unit_cell_points(q)``
        order: slabs (rows, q, q) of max(1, 2^20 // max(q, d)^2) rows u_0, d = 2n + 1,
        each the box contracted axis by axis with exp(2 pi i k u / q), so no
        array a slab forms exceeds max(2^20, max(q, d)^2) complex numbers."""
        box, d = self.box, len(self.box)
        e = np.exp((np.arange(q) / q)[:, None] * (2j * np.pi * np.arange(-(d // 2), d // 2 + 1)))
        rows = max(1, _CHUNK_ELEMENTS // max(q, d) ** 2)
        for i in range(0, q, rows):
            yield e @ (e[i : i + rows] @ box.reshape(d, d * d)).reshape(-1, d, d) @ e.T


def fourier_coeffs(f, n: int, quad_order: int | None = None) -> TrigPoly:
    """Degree-n Fourier partial sum of f on the star frequency set.

    One FFT of f on the q^3 grid (t[:3] = u / q), read at k' mod q where
    rho(k') <= n; frequencies congruent mod q alias when q < 2n + 1.  f is
    sampled with ``_sample``, as the interpolant builders sample it.
    """
    n = _degree(n)
    q = 4 * n + 4 if quad_order is None else quad_order
    pts = unit_cell_points(q)
    fv = _sample(f, pts, f"the {q}^3 cell grid", pts, "value of f").reshape(q, q, q)
    k = np.arange(-n, n + 1) % q
    return TrigPoly._own(np.where(_rho(n) <= n, np.fft.fftn(fv)[np.ix_(k, k, k)] / q**3, 0))


# the coefficient box of every compact kernel, by its ``fcc-trig kernel --f``
# name: D_n is 1 where rho(k') <= n, theta_n = sum_{m < n} D_m, D_0 = 1, is
# max(0, n - rho) on [1 - n, n - 1]^3, Phi_n* and Phi_n are the weight boxes
_KERNEL_BOXES = {
    "theta": lambda n: TrigPoly._own(np.maximum(n - _rho(_degree(n) - 1), 0).astype(complex)),
    "dirichlet": lambda n: TrigPoly._own((_rho(_degree(n)) <= n).astype(complex)),
    "phistar": lambda n: TrigPoly._own(_weight_box("hstar", n).astype(complex)),
    "phin": lambda n: TrigPoly._own(_weight_box("hn", n).astype(complex)),
}


def lebesgue_Sn(n: int, grid_per_axis=None, quad_order: int = 64) -> float:
    """The norm of the partial-sum operator S_n, the integral of |D_n|, by
    the q-point rule: the mean of |D_n(s)| over the q^3 unit-cell grid s[:3]
    = u / q, q = quad_order.  S_n is a convolution with D_n, so its norm
    does not depend on t.  The rule is not exact (|D_n| is not a trig
    polynomial): the mean of |D_4| is 6.936858 at q = 24 against 6.927542
    at q = 128.  D_n is the (2n+1)^3 box of ones at to_reduced(H_n*) + n,
    read on the grid by ``TrigPoly._cell_slabs``.  grid_per_axis is
    deprecated and ignored.
    """
    if grid_per_axis is not None:
        warnings.warn("lebesgue_Sn does not scan a grid: grid_per_axis is ignored",
                      DeprecationWarning, stacklevel=2)
    if operator.index(quad_order) < 2:
        raise ValueError("quadrature order must be at least 2")
    slabs = _KERNEL_BOXES["dirichlet"](n)._cell_slabs(quad_order)
    return float(sum(np.abs(s).sum() for s in slabs) / quad_order**3)
