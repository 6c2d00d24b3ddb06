"""The permutation group S4 acting on homogeneous coordinates.

A permutation sigma acts on a point by (t sigma)_m = t_{sigma(m)}, i.e. it
permutes the four coordinate slots.  The group is one table: row r of
PERM_TABLE holds the 0-based source slots of sigma_r, so t[..., row] is
t sigma_r, and PERM_SIGNS[r] is its parity.  The 12 even rows G_PLUS come
first, then the 12 odd rows G_MINUS, each class in ``permutations`` order,
so row 0 is the identity.  The module also provides the symmetrization
and antisymmetrization projections P+ and P-.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .lattice import _points


def _odd(p) -> int:
    """1 for an odd number of inversions, 0 for even."""
    return sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4)) % 2


# sorted is stable, so each parity class keeps its permutations order
PERM_TABLE = np.array(sorted(permutations(range(4)), key=_odd), dtype=np.int64)
PERM_SIGNS = np.array([1.0] * 12 + [-1.0] * 12)
# read-only, and so are the class views below: every route applies these
PERM_TABLE.flags.writeable = PERM_SIGNS.flags.writeable = False

G_PLUS = PERM_TABLE[:12]
G_MINUS = PERM_TABLE[12:]


def orbit(k) -> list:
    """Distinct images of k under the group, as int tuples, sorted; k is any
    4 integers, in H or not, and anything else is a ValueError."""
    k = np.asarray(k)
    ki = k.astype(np.int64)
    if k.shape != (4,) or np.any(ki != k):
        raise ValueError(f"an orbit needs 4 integer entries, got {k.tolist()!r}")
    return sorted(set(map(tuple, ki[PERM_TABLE].tolist())))


def orbit_size(k) -> int:
    return len(orbit(k))


def _image_sum(f, t, rows) -> np.ndarray:
    """The sum of f(t sigma) over the given rows sigma of PERM_TABLE, in order."""
    t = _points(t)
    return sum(f(t[..., p]) for p in rows)


def project_plus(f, t) -> np.ndarray:
    """P+ f(t) = (1/24) sum over S4 of f(t sigma)."""
    return _image_sum(f, t, PERM_TABLE) / 24.0


def project_minus(f, t) -> np.ndarray:
    """P- f(t) = (1/24) [sum over G+ of f(t sigma) - sum over G- of f(t sigma)]."""
    return (_image_sum(f, t, G_PLUS) - _image_sum(f, t, G_MINUS)) / 24.0
