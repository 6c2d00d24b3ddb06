"""Frequency and node index sets with their strata and weights.

Membership is decided here alone, on the (2n+1)^3 box of k'_i = (k_i - k_4)/4
in [-n, n]^3: as k_i - k_j = 4(k'_i - k'_j), k'_4 = 0, ``_mask`` takes H_n as
``_half_open`` on (k', 0) at scale n, and H_n* and H_n circ as rho(k') <= n
and < n, ``_rho`` being the spread of (k', 0); rho < n is rho <= n - 1, so
H_n circ is H*_{n-1}'s array for n > 1.  Two sets are enumerated, H_n* (one
lexsort) and the tetrahedral set; H_n, H_1 circ and the strictly interior
tetrahedral set are selections of those arrays that keep their order.

Strata and weights of whole node arrays are read off one routine,
boundary.boundary_slots, and a class size off a stratum key by ``_unkey``.
The weights are exact: the symmetric-rule weight c = 1/binom(|I|+|J|, |I|)
is held as its integer denominator (a Fraction for one node) and the
tetrahedral weight lambda is an integer; they convert to float only when a
quadrature sum is actually formed.

``_RULES`` is the one table of the paper's four node rules, each of the form
(1/4n^3) sum_j (a_j/q) f(j/4n) with integer a_j and q: it maps a rule name to
n -> (nodes, a, q).  ``hn`` is H_n with weight 1, ``hstar`` H_n* with
c_j = (12 / class size) / 12, ``lambda`` the tetrahedral set with lambda_j
and ``interior`` the strictly interior tetrahedral set with 24.  The inner
products, cubature rules and claims read their weights there; interpolants,
Lebesgue scans and kernel boxes read those of ``hn``, ``hstar`` and ``hcirc``
(H_n circ, a = 24) as floats a_k / (q 4n^3) at k' + n of a (2n+1)^3 box,
``_weight_box(rule, n)``.  The direct kernel sums, their oracle, form theirs
from class sizes.

The sets, weights and weight boxes are pure functions of the degree (and
rule), built once: each keeps the last _CACHED_DEGREES = 8 keys asked for
(least recently used out) and hands every caller the same read-only array;
a caller that needs to write takes a ``.copy()``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb

import numpy as np

from .boundary import boundary_slots
from .lattice import _box, _degree, _half_open, _one, _rows, _spread
from .symmetry import PERM_TABLE

TETRA_WEIGHTS = {"interior": 24, "face": 12, "edge1": 6, "edge2": 4, "vertex": 1}
TETRA_STRATA = {w: name for name, w in TETRA_WEIGHTS.items()}

# _BINOM[a + b, a] = binom(a + b, a) for the stratum sizes |I|, |J| <= 3
_BINOM = np.array([[comb(m, i) for i in range(5)] for m in range(5)], dtype=np.int64)


# degrees each per-degree set or weight array keeps, least recently used out
_CACHED_DEGREES = 8


def _per_degree(fn):
    """fn(*key, n), computed once per key and degree and returned read-only.

    n goes through _degree first, so 3 and np.int64(3) share one entry and
    a bad degree raises on every call without being cached.
    """

    @functools.lru_cache(maxsize=_CACHED_DEGREES)
    def cached(*key_n) -> np.ndarray:
        out = fn(*key_n)
        out.flags.writeable = False
        return out

    @functools.wraps(fn)
    def per_degree(*key_n):
        return cached(*key_n[:-1], _degree(key_n[-1]))

    per_degree.cache_info = cached.cache_info
    return per_degree


def _from_reduced(kp: np.ndarray) -> np.ndarray:
    """Map reduced rows (..., 3) back to frequency rows (..., 4)."""
    kp = np.asarray(kp, dtype=np.int64)
    s = kp.sum(axis=-1, keepdims=True)
    return np.concatenate([4 * kp - s, -s], axis=-1)


def to_reduced(k) -> np.ndarray:
    """Reduced coordinates ((k_i - k_4)/4 for i = 1..3) of indices (..., 4).

    Membership in H is trusted, not checked: the callers pass rows of the
    index sets, and ``lattice._rows`` on H_8* takes about 3.5 times as long
    as the subtraction itself.
    """
    k = np.asarray(k, dtype=np.int64)
    if k.ndim == 0 or k.shape[-1] != 4:
        raise ValueError(f"frequency indices need 4 components, got shape {k.shape}")
    return (k[..., :3] - k[..., 3:]) // 4


def _rho(n: int) -> np.ndarray:
    """rho(k') = (max k - min k) / 4, the spread of (k', 0), on the (2n+1)^3
    box of k' in [-n, n]^3 (n = 0 too): k is in H_m* iff rho(k') <= m."""
    return _spread(_box(-n, n), initial=0).reshape((2 * n + 1,) * 3)


def _mask(rule: str, n: int) -> np.ndarray:
    """k' in H_n (``hn``: ``_half_open`` on (k', 0) at n), H_n* (``hstar``: rho <= n)
    or H_n circ (``hcirc``: rho < n) on the (2n+1)^3 box of k' in [-n, n]^3."""
    if rule == "hn":
        return _half_open(_box(-n, n), n, initial=0).reshape((2 * n + 1,) * 3)
    return _rho(n) <= n if rule == "hstar" else _rho(n) < n


@_per_degree
def generate_Hn(n: int) -> np.ndarray:
    """The 4n^3 interpolation frequencies: -4n < k_i - k_j <= 4n, half open."""
    star = generate_Hn_star(n)
    return star[_half_open(star, 4 * n)]


@_per_degree
def generate_Hn_star(n: int) -> np.ndarray:
    """The symmetric node/frequency set: |k_i - k_j| <= 4n; (n+1)^4 - n^4 members."""
    kk = _from_reduced(np.argwhere(_mask("hstar", n)) - n)
    return kk[np.lexsort(kk.T[::-1])]


@_per_degree
def generate_Hn_circ(n: int) -> np.ndarray:
    """Strictly interior nodes, |k_i - k_j| < 4n: the array of H*_{n-1}, n > 1."""
    star = generate_Hn_star(max(n - 1, 1))
    return star if n > 1 else star[_spread(star) < 4]


def strata(kk, n: int) -> np.ndarray:
    """(|I|, |J|) of every row of kk, shape (N, 2); (0, 0) for interior nodes.

    Rows go through ``lattice._rows`` and must lie in H_n*; others raise ValueError.
    """
    I, J = boundary_slots(kk, n)
    return np.stack([I.sum(axis=1), J.sum(axis=1)], axis=1)


def stratum_keys(kk, n: int) -> np.ndarray:
    """One integer 4|I| + |J| per row of kk; ``_unkey`` reads (|I|, |J|) back.

    |J| <= 3, so keys sort as the (|I|, |J|) pairs do; 0 is interior.
    """
    s = strata(kk, n)
    return 4 * s[:, 0] + s[:, 1]


def _unkey(keys):
    """|I|, |J| and the class size binom(|I|+|J|, |I|) of stratum keys 4|I| + |J|."""
    I, J = np.divmod(keys, 4)
    return I, J, _BINOM[I + J, I]


def class_sizes(kk, n: int) -> np.ndarray:
    """binom(|I|+|J|, |I|) per row: the size of each node's congruence class.

    The symmetric-rule weight of a node is c = 1 / (its class size).
    """
    return _unkey(stratum_keys(kk, n))[2]


@_per_degree
def _star_keys(n: int) -> np.ndarray:
    """Stratum keys of H_n*, in ``generate_Hn_star`` order."""
    return stratum_keys(generate_Hn_star(n), n)


@_per_degree
def _star_sizes(n: int) -> np.ndarray:
    """Class sizes of H_n*, in ``generate_Hn_star`` order."""
    return _unkey(_star_keys(n))[2]


def _non_increasing(kk: np.ndarray) -> np.ndarray:
    """Checked index rows (..., 4), or ValueError unless every row is non-increasing."""
    if np.any(kk[..., 1:] > kk[..., :-1]):
        raise ValueError("tetrahedral index must be non-increasing")
    return kk


def lambdas(kk, n: int) -> np.ndarray:
    """Tetrahedral weights lambda of monotone rows of H_n*, as integers.

    lambda = |S4-orbit| * c: the orbit size, 24 over the number of
    permutations fixing the row (the product of the factorials of the
    entry multiplicities), divided by the class size.
    """
    kk = _non_increasing(_rows(kk))
    sizes = class_sizes(kk, n)
    fixing = (kk[:, PERM_TABLE] == kk[:, None, :]).all(axis=-1).sum(axis=1)
    return 24 // fixing // sizes


def stratum_of_index(k, n: int):
    """(|I|, |J|) of the node k/(4n); (0, 0) for interior nodes."""
    return tuple(strata(_one(k), n)[0].tolist())


def weight_c(k, n: int) -> Fraction:
    """Quadrature weight of a symmetric-rule node, 1 over binom(|I|+|J|, |I|)."""
    return Fraction(1, int(class_sizes(_one(k), n)[0]))


def stratum_counts(n: int) -> dict:
    """Map (|I|, |J|) -> number of nodes in that stratum of the star set."""
    keys, counts = np.unique(_star_keys(n), return_counts=True)
    I, J, _ = _unkey(keys)
    return dict(zip(zip(I.tolist(), J.tolist()), counts.tolist()))


def tetra_stratum(k, n: int) -> str:
    """Stratum of a monotone index within the tetrahedral node set.

    Interior, face, the two edge types and vertex have the distinct
    weights of TETRA_WEIGHTS, so the stratum is read off lambda.
    """
    return TETRA_STRATA[weight_lambda(k, n)]


def weight_lambda(k, n: int) -> int:
    """Tetrahedral weight lambda of one monotone index of H_n*, an integer."""
    return int(lambdas(_one(k), n)[0])


@_per_degree
def lambda_nodes(n: int) -> np.ndarray:
    """Tetrahedral index set: monotone members of the star set, binom(n+3,3) rows."""
    kp = _box(0, n)
    a, b, c = kp.T
    return _from_reduced(kp[(a >= b) & (b >= c)])


@_per_degree
def lambda_circ_nodes(n: int) -> np.ndarray:
    """Strictly interior tetrahedral indices, binom(n-1,3) rows (empty for n < 4): lambda = 24,
    a 24-member orbit (a > b > c > 0) in a one-member class (a < n)."""
    return lambda_nodes(n)[lambda_weights(n) == TETRA_WEIGHTS["interior"]]


@_per_degree
def lambda_weights(n: int) -> np.ndarray:
    """Integer weights lambda of the tetrahedral nodes, in ``lambda_nodes`` order."""
    return lambdas(lambda_nodes(n), n)


def generate_Lambda_n(n: int) -> list:
    """Tetrahedral indices with their stratum labels."""
    return [(tuple(k), TETRA_STRATA[w])
            for k, w in zip(lambda_nodes(n).tolist(), lambda_weights(n).tolist())]


# name -> n -> (nodes, a, q): the rule (1/4n^3) sum_j (a_j/q) f(j/4n); 12 is
# the least common multiple of the class sizes 1, 2, 3, 4 and 6
_RULES = {
    "hn": lambda n: (generate_Hn(n), 1, 1),
    "hstar": lambda n: (generate_Hn_star(n), 12 // _star_sizes(n), 12),
    "lambda": lambda n: (lambda_nodes(n), lambda_weights(n), 1),
    "interior": lambda n: (lambda_circ_nodes(n), 24, 1),
}


@_per_degree
def _weight_box(rule: str, n: int) -> np.ndarray:
    """Float weights a_k / (q 4n^3) at box[to_reduced(k) + n], 0 off the set:
    H_n with a = q = 1 (``hn``), H_n* with a = 12 // class size and q = 12
    (``hstar``) or H_n circ with a = 24, q = 1 (``hcirc``)."""
    box = _mask(rule, n) * ((24 if rule == "hcirc" else 1) / (4 * n**3))
    if rule == "hstar":  # H_n circ has one-member classes; H_n* adds the shell rho = n
        edge = _rho(n) == n
        box[edge] = 12 // class_sizes(_from_reduced(np.argwhere(edge) - n), n) / (12 * 4 * n**3)
    return box
