"""Boundary stratification of the closed fundamental domain.

A boundary point of the rhombic dodecahedron has t_i - t_j = 1 for at
least one pair; collecting the left slots into I and the right slots into
J labels the face/edge/vertex stratum.  In the closed domain such a pair
is a slot at the max against a slot at the min, with max t - min t = 1.
Points whose (I, J) labels are nonempty are identified with
binom(|I|+|J|, |I|) lattice-congruent partners on the boundary, obtained
by permuting the slots in I and J.

Coordinate labels in I and J are 1-based.  Classification of node points
must go through the integer index routines; the float routines exist for
user-supplied evaluation points and use tolerances.
"""

from __future__ import annotations

import numpy as np

from .lattice import _degree, _one, _rows, homo_point, in_closed_omega_H
from .symmetry import PERM_TABLE

# absolute tolerance of the float routines' equality tests t_i - t_j = 1
CLASSIFY_TOL = 1e-9


def classify(t):
    """Stratum label (I, J) of a point of the closed domain.

    I = {i : t_i - t_j = 1 for some j}, J = {j : t_i - t_j = 1 for some i},
    both empty exactly when t is interior.  Equality is tested with abs
    tolerance CLASSIFY_TOL.
    """
    t = homo_point(t)
    if t.shape != (4,):
        raise ValueError("classify expects a single point")
    if not in_closed_omega_H(t, tol=CLASSIFY_TOL):
        raise ValueError("point lies outside the closed fundamental domain")
    hit = np.abs(t[:, None] - t[None, :] - 1.0) <= CLASSIFY_TOL  # (i, j): t_i - t_j = 1
    return _labels(hit.any(axis=1), hit.any(axis=0))


def boundary_slots(kk, n: int):
    """Boundary labels of node indices: boolean masks (N, 4) of I and J.

    Row r has slot i in I and slot j in J when kk[r, i] - kk[r, j] = 4n.
    In H_n* no difference exceeds max - min <= 4n, so that happens on the
    rows with max - min = 4n, for the slots at the row's max (I) and at
    its min (J); both rows are all False for an interior node.  This is
    the one place the boundary condition is written down; strata, weights
    and classify_index are read off these masks.  Rows go through
    ``lattice._rows`` and n through ``lattice._degree``; rows outside H_n*
    raise ValueError too.
    """
    kk = _rows(kk)
    n = _degree(n)
    hi = kk.max(axis=1, keepdims=True)
    lo = kk.min(axis=1, keepdims=True)
    if np.any(hi - lo > 4 * n):
        raise ValueError("index outside the closed node set for this degree")
    edge = hi - lo == 4 * n
    return (kk == hi) & edge, (kk == lo) & edge


def _labels(I, J):
    """The 1-based slots set in the masks I and J, as a pair of frozensets."""
    return tuple(frozenset((np.flatnonzero(m) + 1).tolist()) for m in (I, J))


def classify_index(k, n: int):
    """Integer-exact stratum label of the node k/(4n); k must lie in H_n*."""
    return _labels(*boundary_slots(_one(k), n))


def _partners(x, I, J) -> np.ndarray:
    """Images x[p], identity first, over the PERM_TABLE rows p moving only slots in I and J."""
    fixed = [m for m in range(4) if (m + 1) not in I | J]
    return x[PERM_TABLE[(PERM_TABLE[:, fixed] == fixed).all(axis=1)]]


def congruent_orbit(t):
    """All distinct boundary partners of t congruent to it mod the lattice.

    Computed by permuting the slots named in I and J, an image within
    4 CLASSIFY_TOL of an earlier one in every slot being the same partner;
    interior points give [t].  The count is binom(|I|+|J|, |I|) at every
    point ``classify`` accepts: it puts the slots of I within 2 CLASSIFY_TOL
    of each other, and those of J too, while distinct partners differ by
    about 1 in some slot.
    """
    t = homo_point(t)
    imgs = _partners(t, *classify(t))
    # twice that bound, for the rounding of the differences classify tests
    same = (np.abs(imgs[:, None] - imgs[None]) <= 4 * CLASSIFY_TOL).all(axis=-1)
    return list(imgs[~np.tril(same, -1).any(axis=1)])


def congruent_orbit_index(k, n: int):
    """Exact variant of congruent_orbit for a node index k in H_n*."""
    I, J = classify_index(k, n)
    return list(dict.fromkeys(map(tuple, _partners(np.asarray(k, np.int64), I, J).tolist())))
