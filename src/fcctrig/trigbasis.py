"""Generalized cosine and sine functions on the tetrahedron.

TC_k is the symmetrization of the exponential phi_k over the 24 coordinate
permutations, TS_k the antisymmetrization (with a sign that makes the
leading term positive).  Both collapse to a six-term product formula: for
each of the three ways to pair the four coordinates, two terms of the shape

    exp(i*pi/2 (k_a + k_b)(t_a + t_b))
      * g(pi/4 (k_a - k_b)(t_a - t_b)) * g(pi/4 (k_c - k_d)(t_c - t_d))

with g = cos for TC and g = sin for TS.  The compact forms are the
production path; the orbit sums remain available as oracles.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .indexsets import _non_increasing
from .lattice import _points, hindex, phi
from .symmetry import orbit, orbit_size, project_minus

# coordinate pairings (a, b | c, d); the v-difference keeps the printed
# cyclic orientation t3 - t4, t4 - t2, t2 - t3
_PAIRINGS = (
    ((0, 1), (2, 3)),
    ((0, 2), (3, 1)),
    ((0, 3), (1, 2)),
)


def _compact(k, t, g) -> np.ndarray:
    k1, k2, k3, k4 = (int(v) for v in k)
    t = _points(t)
    out = 0.0
    for (a, b), (c, d) in _PAIRINGS:
        s = t[..., a] + t[..., b]
        u = t[..., a] - t[..., b]
        v = t[..., c] - t[..., d]
        # the term of (k1, k2 | k3, k4), then of its swap (k3, k4 | k1, k2)
        for m, x, y in ((k1 + k2, k1 - k2, k3 - k4), (k3 + k4, k3 - k4, k1 - k2)):
            out = out + np.exp(0.5j * np.pi * m * s) * g(0.25 * np.pi * x * u) * g(
                0.25 * np.pi * y * v)
    return out / 6.0


def tc(k, t) -> np.ndarray:
    """Generalized cosine, compact form."""
    k = _non_increasing(hindex(k))
    return _compact(k, t, np.cos)


def ts(k, t) -> np.ndarray:
    """Generalized sine, compact form.

    Indices with repeated entries are rejected rather than silently mapped
    to the zero function, so a bad interior-index enumeration fails loudly
    instead of producing a singular interpolation system.
    """
    k = _non_increasing(hindex(k))
    if len({int(v) for v in k}) < 4:
        raise ValueError("generalized sine needs strictly decreasing indices")
    return _compact(k, t, np.sin)


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
