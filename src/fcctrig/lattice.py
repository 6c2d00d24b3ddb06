"""Core geometry of the face-centered cubic lattice.

Points of R^3 are represented in homogeneous coordinates: quadruples
t = (t1, t2, t3, t4) summing to zero.  The generator matrix A of the fcc
lattice, the lifting matrix U and the integer matrix H are stored as module
constants and satisfy U^T U = I and A = U^T H exactly.

Frequencies live in the set ``H`` of integer zero-sum quadruples whose
components are pairwise congruent mod 4; the exponential attached to a
frequency k is phi(k, t) = exp(i*pi/2 * k.t).  Entry points that take
indices of H check them through ``_rows`` (a ValueError names another
shape or the first bad row); ``to_reduced`` checks the shape only.

The fundamental domain Omega_H is the rhombic dodecahedron in homogeneous
coordinates, half open: -1 < t_i - t_j <= 1 for all i < j.

Every entry point of the package that takes points checks them through
``_points(x, d, chart)``: they become floats whose last axis holds the
chart's d coordinates (4 homogeneous, 3 Cartesian or regular), and any
other last axis is a ValueError that names the chart.

Every node and frequency set, evaluation grid and fold shift list is read
off ``_box(lo, hi)``, the one enumeration of integer triples.  Membership
in Omega_H scaled by s is one rule with two forms: the half-open tile
-s < x_i - x_j <= s is ``_half_open(x, s)``, run over ``_PAIRS`` one pair
at a time, and the closure |x_i - x_j| <= s is ``_spread(x) <= s``, since
the largest difference is max x - min x; initial adds a slot holding it.
They decide the domain tests and, as ``indexsets._rho`` and ``_mask``, every
index set; ``boundary.boundary_slots`` reads the same row extremes.

``_CHUNK_ELEMENTS`` = 2^20 is the package's cap on the elements of any
array a chunk of points forms.  Exponential sums stay far below it: the
phases exp(i*pi/2 k.t) are written in place (``_phases``) into one block of
``_PHASE_BLOCK`` = 2^16 complex numbers, allocated once per call and reused.
``_expsum_rows``, the direct weighted sum behind the oracle kernels, and the
orbit sums of ``claims.tetra_basis`` take their phases that way, since an
exponential and a matrix-vector product gain nothing from bigger blocks.
``_box_slabs`` hands out ``_box`` a few planes at a time, for a claim that
only reads a set.
"""

from __future__ import annotations

import operator

import numpy as np

# fcc generator matrix, det A = 2
A_MATRIX = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.int64)

# integer lift of the lattice into the zero-sum hyperplane of R^4
H_MATRIX = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], dtype=np.int64
)

# orthonormal columns; A = U^T H
U_MATRIX = 0.5 * np.array(
    [[-1, 1, 1], [1, -1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float
)

_A_INV = np.linalg.inv(A_MATRIX.astype(float))


def _points(x, d: int = 4, chart: str = "homogeneous") -> np.ndarray:
    """x as floats of shape (..., d); ValueError naming the chart for another last axis."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != d:
        raise ValueError(f"{chart} points need {d} coordinates, got shape {x.shape}")
    return x


def homo_point(values) -> np.ndarray:
    """Build homogeneous coordinates from 4 reals, shape (..., 4).

    The input is re-projected onto the zero-sum hyperplane by subtracting
    the coordinate mean, so small drift from composed arithmetic cannot
    accumulate.
    """
    t = _points(values)
    return t - t.mean(axis=-1, keepdims=True)


def _rows(kk) -> np.ndarray:
    """One index (4,) or rows (N, 4) as int64 rows (N, 4) of integers that sum to
    zero and are congruent mod 4; ValueError naming another shape or the first bad row."""
    k = np.asarray(kk)
    if k.ndim not in (1, 2) or k.shape[-1] != 4:
        raise ValueError(f"frequency indices need 4 components, got shape {k.shape}")
    k = k.reshape(-1, 4)
    ki = np.asarray(k, dtype=np.int64)
    # nonzero where a rule fails (congruence, zero sum, integrality); in place
    bad = ki - ki[:, :1]
    bad %= 4
    bad |= ki.sum(axis=1, keepdims=True)
    if k.dtype.kind not in "iu":
        bad |= ki != k
    if bad.any():
        raise ValueError(f"{tuple(k[bad.any(1)][0].tolist())} is not a valid frequency index")
    return ki


def _one(k) -> np.ndarray:
    """k as an array of shape (4,), for an array routine to check; ValueError otherwise."""
    k = np.asarray(k)
    if k.shape != (4,):
        raise ValueError(f"a frequency index has shape (4,), got {k.shape}")
    return k


def hindex(values) -> np.ndarray:
    """One frequency index as int64 of shape (4,), checked as ``_rows`` checks rows."""
    return _rows(_one(values))[0]


def to_homogeneous(x) -> np.ndarray:
    """Map Cartesian (..., 3) to homogeneous (..., 4) via t = U x."""
    x = _points(x, 3, "Cartesian")
    return x @ U_MATRIX.T


def from_homogeneous(t) -> np.ndarray:
    """Map homogeneous (..., 4) to Cartesian (..., 3) via x = U^T t."""
    t = _points(t)
    return t @ U_MATRIX


def _degree(n, least: int = 1) -> int:
    """n as an int (NumPy integers too); TypeError for a non-integer, ValueError below least."""
    n = operator.index(n)
    if n < least:
        raise ValueError(f"degree must be >= {least}")
    return n


def _box(lo: int, hi: int) -> np.ndarray:
    """The int64 rows of [lo, hi]^3 in lexicographic order, (hi - lo + 1)^3 of them."""
    b = np.indices((hi - lo + 1,) * 3, dtype=np.int64).reshape(3, -1)
    return np.add(b, lo, out=b).T


def _box_slabs(lo: int, hi: int, rows: int):
    """``_box(lo, hi)`` in order, as slabs of whole planes of the first
    coordinate: max(1, rows // (hi - lo + 1)^2) planes each."""
    side = hi - lo + 1
    planes = max(1, rows // side**2)
    for a in range(lo, hi + 1, planes):
        m = min(planes, hi + 1 - a)
        yield np.indices((m, side, side), dtype=np.int64).reshape(3, -1).T + (a, lo, lo)


# the six pairs i < j of the four homogeneous slots, in lexicographic order
_PAIRS = np.triu_indices(4, 1)


def _spread(x: np.ndarray, initial=None) -> np.ndarray:
    """max - min over the last axis: the largest difference x_i - x_j; with
    initial, that of each row with one more slot holding initial."""
    return x.max(axis=-1, initial=initial) - x.min(axis=-1, initial=initial)


def _half_open(x: np.ndarray, s, initial=None) -> np.ndarray:
    """-s < x_i - x_j <= s for all i < j of 4 slots (3 and initial), one view at a time."""
    out = np.ones(x.shape[:-1], dtype=bool)
    for i, j in zip(*_PAIRS):  # initial, if given, is slot 3, so only j reaches it
        d = x[..., i] - (initial if j == x.shape[-1] else x[..., j])
        out &= (d > -s) & (d <= s)
    return out[()]  # a scalar for one point


def in_omega_H(t) -> np.ndarray:
    """Membership in the half-open fundamental domain.

    Exact floating point comparisons on purpose: the half-open convention
    -1 < t_i - t_j <= 1 tiles space without overlap, and callers that need
    tolerance should use in_closed_omega_H.  Node membership decisions must
    be made on integer indices, never on the floats produced here.
    """
    return _half_open(_points(t), 1.0)


def in_closed_omega_H(t, tol: float = 1e-12) -> np.ndarray:
    """Membership in the closure, |t_i - t_j| <= 1 within tol: max t - min t <= 1 + tol."""
    return _spread(_points(t)) <= 1.0 + tol


# Offsets v in {-1,0}^3: the reduction below first lands in A[0,1)^3, and
# Omega_H is covered by that cell's neighbors with nonpositive offsets.
_FOLD_SHIFTS = _box(-1, 0)


def fold_to_omega_H(t) -> np.ndarray:
    """Translate t by the lattice into the fundamental domain.

    Works through Cartesian coordinates: subtract floor(A^-1 x) to land in
    the unit cell A[0,1)^3, then test the 8 candidate translates by A v,
    v in {-1,0}^3.  Exactly one candidate passes the half-open membership
    test, which makes the fold idempotent and translation invariant.
    """
    t = homo_point(t)
    x = from_homogeneous(t)
    u = x @ _A_INV.T
    x0 = x - np.floor(u) @ A_MATRIX.T
    # candidates, shape (..., 8, 4)
    cand = x0[..., None, :] + (_FOLD_SHIFTS @ A_MATRIX.T).astype(float)
    tc = to_homogeneous(cand)
    hit = in_omega_H(tc)
    idx = np.argmax(hit, axis=-1)
    if not np.all(np.take_along_axis(hit, idx[..., None], axis=-1)):
        raise RuntimeError("fold failed to locate a fundamental-domain translate")
    out = np.take_along_axis(tc, idx[..., None, None], axis=-2)
    return homo_point(out[..., 0, :])


def _phases(kk: np.ndarray, t: np.ndarray, out) -> np.ndarray:
    """phi_k(t) for points t (..., 4) and frequency rows kk (K, 4) or one k, of
    shape t.shape[:-1] + (K,) or t.shape[:-1]: written into out and returned,
    or a new array when out is None."""
    e = np.multiply(0.5j * np.pi, t @ kk.astype(float).T, out=out)
    return np.exp(e, out=out)


def _expsum(kk: np.ndarray, t) -> np.ndarray:
    """phi_k(t) for points t (rows) and frequencies kk (columns) or one k."""
    return _phases(kk, _points(t), None)


# complex elements in any one array that a chunk of points forms
_CHUNK_ELEMENTS = 2**20

# complex phases in the one block an exponential sum reuses
_PHASE_BLOCK = 2**16


def _expsum_rows(kk: np.ndarray, w, t) -> np.ndarray:
    """sum_k w_k phi_k(t) over the frequency rows kk, with weights w (a scalar
    or one per row), at the points t (..., 4); the points go through one
    block of at most max(2^16, len(kk)) phases, written in place."""
    t = _points(t)
    flat, w = t.reshape(-1, 4), np.broadcast_to(w, len(kk)).astype(complex)
    step = max(1, _PHASE_BLOCK // max(1, len(kk)))
    block = np.empty((min(step, len(flat)), len(kk)), dtype=complex)
    out = np.empty(len(flat), dtype=complex)
    for i in range(0, len(flat), step):
        p = flat[i : i + step]
        np.matmul(_phases(kk, p, block[: len(p)]), w, out=out[i : i + step])
    return out.reshape(t.shape[:-1])


def phi(k, t) -> np.ndarray:
    """Exponential phi_k(t) = exp(i*pi/2 * k.t) for k in H, t (..., 4)."""
    return _expsum(hindex(k), t)
