"""Boundary stratification of the closed fundamental domain.

A boundary point of the rhombic dodecahedron has t_i - t_j = 1 for at
least one pair; collecting the left slots into I and the right slots into
J labels the face/edge/vertex stratum.  Points whose (I, J) labels are
nonempty are identified with binom(|I|+|J|, |I|) lattice-congruent partners
on the boundary, obtained by permuting the slots in I and J.

Coordinate labels in I and J are 1-based.  Classification of node points
must go through the integer index routines; the float routines exist for
user-supplied evaluation points and use tolerances.
"""

from __future__ import annotations

import operator

import numpy as np

from .lattice import homo_point, hindex, in_closed_omega_H
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
    I, J = set(), set()
    for i in range(4):
        for j in range(4):
            if i != j and abs(t[i] - t[j] - 1.0) <= CLASSIFY_TOL:
                I.add(i + 1)
                J.add(j + 1)
    return frozenset(I), frozenset(J)


def boundary_slots(kk, n: int):
    """Boundary labels of node indices: boolean masks (N, 4) of I and J.

    Row r has slot i in I and slot j in J when kk[r, i] - kk[r, j] = 4n;
    both rows are all False for an interior node.  This is the one place
    the boundary condition is written down; strata, weights and
    classify_index are read off these masks.  Rows outside H_n* raise
    ValueError.
    """
    kk = np.asarray(kk, dtype=np.int64).reshape(-1, 4)
    d = kk[:, :, None] - kk[:, None, :]
    if np.any(np.abs(d) > 4 * operator.index(n)):
        raise ValueError("index outside the closed node set for this degree")
    hit = d == 4 * n
    return hit.any(axis=2), hit.any(axis=1)


def classify_index(k, n: int):
    """Integer-exact stratum label of the node k/(4n); k must lie in H_n*."""
    masks = boundary_slots(hindex(k), n)
    I, J = (frozenset((np.flatnonzero(m) + 1).tolist()) for m in masks)
    return I, J


def _moving_only(labels) -> np.ndarray:
    """Rows of PERM_TABLE permuting only the given 1-based slots, identity first."""
    fixed = [m for m in range(4) if (m + 1) not in labels]
    return PERM_TABLE[(PERM_TABLE[:, fixed] == fixed).all(axis=1)]


def congruent_orbit(t):
    """All distinct boundary partners of t congruent to it mod the lattice.

    Computed by permuting the slots named in I and J; interior points give
    [t].  The count equals binom(|I|+|J|, |I|) on the open stratum.
    """
    t = homo_point(t)
    I, J = classify(t)
    out = []
    for p in _moving_only(I | J):
        s = t[p]
        if not any(np.max(np.abs(s - q)) < 1e-10 for q in out):
            out.append(s)
    return out


def congruent_orbit_index(k, n: int):
    """Exact variant of congruent_orbit for a node index k in H_n*."""
    k = hindex(k)
    I, J = classify_index(k, n)
    seen, out = set(), []
    for p in _moving_only(I | J):
        s = tuple(k[p].tolist())
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out

