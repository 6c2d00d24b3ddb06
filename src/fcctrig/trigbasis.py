"""Generalized cosine and sine functions on the tetrahedron.

TC_k is the symmetrization of the exponential phi_k over the 24 coordinate
permutations, TS_k the antisymmetrization (with a sign that makes the
leading term positive).  Both collapse to a six-term product formula: for
each of the three ways (a, b | c, d) to pair the four coordinates, the term

    exp(i*pi/2 (k1 + k2) s) * g(pi/4 (k1 - k2) u) * g(pi/4 (k3 - k4) v)

and its swap, the same with (k1, k2) and (k3, k4) exchanged, where
u = t_a - t_b, v = t_c - t_d, s = (t_a + t_b - t_c - t_d) / 2, and g = cos
for TC, sin for TS.  On the zero-sum hyperplane s is t_a + t_b; off it, s
keeps the form unchanged under t + c (1, 1, 1, 1), as phi_k and the orbit
sums are.

``_compact_rows`` is the rows form: one ``t @ _PAIRINGS`` gives the (s, u, v)
of all three pairings, and the terms broadcast over a batch of index rows,
so a claim takes TC/TS for many indices in one pass.  ``tc`` and ``ts`` are
its one-row case and the production path; the orbit sums ``tc_direct`` and
``ts_direct`` remain as oracles.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .indexsets import _non_increasing
from .lattice import _points, hindex, phi
from .symmetry import orbit, orbit_size, project_minus

# t @ _PAIRINGS holds the columns s1 s2 s3 u1 u2 u3 v1 v2 v3 of the pairings
# (a, b | c, d) = (1, 2 | 3, 4), (1, 3 | 4, 2), (1, 4 | 2, 3); v keeps the
# printed cyclic orientation t3 - t4, t4 - t2, t2 - t3
_PAIRINGS = np.array([
    [0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
    [0.5, -0.5, -0.5, -1.0, 0.0, 0.0, 0.0, -1.0, 1.0],
    [-0.5, 0.5, -0.5, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0],
    [-0.5, -0.5, 0.5, 0.0, 0.0, -1.0, -1.0, 1.0, 0.0],
])


def _compact_rows(ks: np.ndarray, t: np.ndarray, g) -> np.ndarray:
    """The compact form with g at the float points t (..., 4) for every index
    row of ks (K, 4), shape (..., K); the rows are not checked."""
    k1, k2, k3, k4 = ks.T.astype(float)
    # per pairing, the term of (k1, k2 | k3, k4), then of its swap (k3, k4 | k1, k2)
    m, x, y = np.array([[k1 + k2, k3 + k4], [k1 - k2, k3 - k4], [k3 - k4, k1 - k2]])
    suv = (t @ _PAIRINGS)[..., None, None]
    s, u, v = suv[..., :3, :, :], suv[..., 3:6, :, :], suv[..., 6:, :, :]
    terms = 0.5j * np.pi * m * s
    np.exp(terms, out=terms)
    terms *= g(0.25 * np.pi * x * u)
    terms *= g(0.25 * np.pi * y * v)
    return terms.sum(axis=(-3, -2)) / 6.0


def _one_row(k: np.ndarray, t, g) -> np.ndarray:
    """The compact form for the one index k, of the shape of t without its last
    axis (a NumPy scalar at one point)."""
    return _compact_rows(k[None], _points(t), g)[..., 0][()]


def tc(k, t) -> np.ndarray:
    """Generalized cosine, compact form."""
    k = _non_increasing(hindex(k))
    return _one_row(k, t, np.cos)


def ts(k, t) -> np.ndarray:
    """Generalized sine, compact form.

    Indices with repeated entries are rejected rather than silently mapped
    to the zero function, so a bad interior-index enumeration fails loudly
    instead of producing a singular interpolation system.
    """
    k = _non_increasing(hindex(k))
    if len({int(v) for v in k}) < 4:
        raise ValueError("generalized sine needs strictly decreasing indices")
    return _one_row(k, t, np.sin)


def tc_direct(k, t) -> np.ndarray:
    """Oracle: mean of phi_j over the distinct permutations j of k."""
    k = _non_increasing(hindex(k))
    members = orbit(k)
    total = 0.0
    for j in members:
        total = total + phi(np.array(j, dtype=np.int64), t)
    return total / len(members)


def ts_direct(k, t) -> np.ndarray:
    """Oracle: minus the antisymmetrized exponential, -P- phi_k."""
    k = _non_increasing(hindex(k))
    if len({int(v) for v in k}) < 4:
        raise ValueError("generalized sine needs strictly decreasing indices")
    return -project_minus(lambda s: phi(k, s), t)


def tc_orthogonality_value(k) -> Fraction:
    """Continuous squared norm of TC_k over the tetrahedron, 1/|orbit of k|."""
    k = _non_increasing(hindex(k))
    return Fraction(1, orbit_size(k))
