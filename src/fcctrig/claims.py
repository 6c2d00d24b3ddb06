"""The paper's checkable claims, one function per claim.

Each function takes a degree, plus probe points or a probe function where
the claim has them, and returns what it measured: an exact claim returns
how far its counts or rational sums are off (0 when it holds), the others
their largest absolute error.  Tolerances stay with the callers,
``fcc-trig verify`` and ``tests/test_acceptance.py``, so no change here can
loosen a check.  Node-sum claims take one inverse FFT of a rule's weights
(``indexsets._RULES``) binned on the node group (``interpolation._node_cells``);
dense sums are the test oracle.  No claim holds a whole set or grid that it
only reads: the frequencies of a cubature claim and the values of an
interpolant on its cell grid go through in blocks of ``lattice._PHASE_BLOCK``
rows or phases, or in ``TrigPoly._cell_slabs``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .indexsets import (
    _RULES,
    generate_Hn,
    generate_Hn_circ,
    generate_Hn_star,
    lambda_nodes,
    stratum_counts,
)
from . import kernels
from .interpolation import BUILDERS, _dual_cells, _freq_cells, _node_cells
from .lattice import _PHASE_BLOCK, _box_slabs, _phases, _points, _spread
from .symmetry import PERM_SIGNS, PERM_TABLE
from .trigbasis import _compact_rows


def _err(got, want) -> float:
    return float(np.abs(np.asarray(got) - want).max(initial=0.0))


def _rule(rule: str, n: int) -> np.ndarray:
    """(1/4n^3) sum_j (a_j/q) phi_k(j / 4n) of ``indexsets._RULES[rule]`` on
    every cell of k: a bincount, an inverse FFT."""
    nodes, a, q = _RULES[rule](n)
    cells = np.bincount(_node_cells(nodes, n), np.broadcast_to(a / q, len(nodes)), 4 * n**3)
    return np.fft.ifftn(cells.reshape(4 * n, n, n)).ravel()


def cardinalities(n: int) -> int:
    """Largest |count - formula| over |H_n| = 4n^3, |H_n*| = (n+1)^4 - n^4,
    |H_n circ| = n^4 - (n-1)^4 and the strata of H_n*, which hold
    binom(4, i) binom(4-i, j) (n-1)^(4-i-j) nodes with (|I|, |J|) = (i, j)."""
    got = [len(generate_Hn(n)), len(generate_Hn_star(n)), len(generate_Hn_circ(n))]
    want = [4 * n**3, (n + 1) ** 4 - n**4, n**4 - (n - 1) ** 4]
    counts = stratum_counts(n)
    for i, j in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)):
        got.append(counts.get((i, j), 0))
        want.append(comb(4, i) * comb(4 - i, j) * (n - 1) ** (4 - i - j))
    return max(abs(g - w) for g, w in zip(got, want))


def weight_sums(n: int) -> Fraction:
    """The sum of |sum_j a_j / q - 4n^3| in rational arithmetic over the rules
    ``hn``, ``hstar`` and ``lambda``: the weights 1 of H_n, c of H_n* and
    lambda of the tetrahedral nodes each add up to 4n^3."""
    total = Fraction(0)
    for rule in ("hn", "hstar", "lambda"):
        nodes, a, q = _RULES[rule](n)
        total += abs(Fraction(int(np.broadcast_to(a, len(nodes)).sum()), q) - 4 * n**3)
    return total


def orthonormality(n: int) -> float:
    """Max |G - I| over the Gram matrices of phi_k, k in H_n, under the node
    average over H_n and the weighted rule over H_n*; G[k, l] = rule at cell(l - k)."""
    if np.bincount(_freq_cells(generate_Hn(n), n)).max() > 1:
        return 1.0
    return max(_err(_rule(rule, n), np.arange(4 * n**3) == 0) for rule in ("hn", "hstar"))


def dodeca_cubature(n: int) -> float:
    """Max |rule - delta_k0| of the weighted rule over H_n* on phi_k, k in H_{2n-1}*.

    H_{2n-1}* goes by in slabs of k'_1 planes of its reduced box: k' is in it
    iff rho(k') = spread(k'_1, k'_2, k'_3, 0) <= 2n - 1 (``indexsets._rho``
    slab by slab, with no (4n - 1)^3 box), and its dual cell is read off k'."""
    rule, m, err = _rule("hstar", n), 2 * n - 1, 0.0
    for kp in _box_slabs(-m, m, _PHASE_BLOCK):
        kp = kp[_spread(kp, initial=0) <= m]
        err = max(err, _err(rule[_dual_cells(kp, n)], np.all(kp == 0, axis=1)))
    return err


def tetra_cubature(n: int) -> float:
    """Max |rule - delta_k0| of the tetrahedral rule on TC_k, the mean of
    phi_{k sigma} over the 24 permutations sigma, for k in Lambda_{2n-1},
    in blocks of at most 2^16 images."""
    rule, ks, rows, err = _rule("lambda", n), lambda_nodes(2 * n - 1), _PHASE_BLOCK // 24, 0.0
    for i in range(0, len(ks), rows):
        k = ks[i : i + rows]
        err = max(err, _err(rule[_freq_cells(k[:, PERM_TABLE], n)].mean(axis=1),
                            np.all(k == 0, axis=1)))
    return err


def compact_kernels(n: int, t) -> dict:
    """Max |compact form - direct sum| at the points t, per kernel; each direct sum runs once."""
    pairs = {
        "dirichlet": (kernels.dirichlet, kernels.dirichlet_direct),
        "dirichlet product": (kernels.dirichlet_product, kernels.dirichlet_direct),
        "edge stratum sum": (kernels.edge_sum, kernels.edge_sum_direct),
        "symmetric kernel": (kernels.phi_n_star, kernels.phi_n_star_direct),
    }
    refs = {ref: ref(n, t) for ref in dict.fromkeys(ref for _, ref in pairs.values())}
    return {name: _err(fast(n, t), refs[ref]) for name, (fast, ref) in pairs.items()}


# the weights of the orbit sums on the 24 images phi_{k sigma}, sigma a row of
# PERM_TABLE: TC_k is their mean, TS_k minus their signed mean (as sigma and
# its inverse have one sign)
_ORBIT_WEIGHTS = np.stack([np.ones(24), -PERM_SIGNS], axis=1) / 24.0


def tetra_basis(n: int, t) -> dict:
    """Max |compact form - orbit sum| at the points t: "cosine" over TC_k for
    every tetrahedral index k of degree n, "sine" over TS_k for those with
    four distinct entries (present from degree 3 on).  Per block of index
    rows, one ``_compact_rows`` call per form and the images phi_{k sigma}(t)
    against ``_ORBIT_WEIGHTS``; the images of a block are written in place
    into one reused buffer of at most max(2^16, 24 len(t)) numbers."""
    t = _points(t).reshape(-1, 4)
    ks = lambda_nodes(n)
    rows = max(1, _PHASE_BLOCK // (24 * max(1, len(t))))
    block = np.empty(len(t) * 24 * min(rows, len(ks)), dtype=complex)
    out = {"cosine": 0.0}
    for i in range(0, len(ks), rows):
        k = ks[i : i + rows]
        images = _phases(k[:, PERM_TABLE].reshape(-1, 4), t,
                         block[: len(t) * 24 * len(k)].reshape(len(t), 24 * len(k)))
        want = (images.reshape(-1, 24) @ _ORBIT_WEIGHTS).reshape(len(t), len(k), 2)
        out["cosine"] = max(out["cosine"], _err(_compact_rows(k, t, np.cos), want[..., 0]))
        distinct = np.all(k[:, 1:] < k[:, :-1], axis=1)
        if distinct.any():
            got = _compact_rows(k[distinct], t, np.sin)
            out["sine"] = max(out.get("sine", 0.0), _err(got, want[:, distinct, 1]))
    return out


def interpolation_condition(kind: str, n: int, f) -> float:
    """Max |I f - f| at the nodes of one operator, for real-valued f; 0.0 on
    an empty node set (``ln`` below degree 4).  For ``instar`` the target at
    a node is the sum of f over its congruence class, the nodes that share
    j[:3] mod 4n, the cell of the 4n grid where the interpolant is read."""
    interp, q = BUILDERS[kind](f, n), 4 * n
    want = np.asarray(f(interp.nodes / q), dtype=float)
    if kind == "instar":
        cls = _node_cells(interp.nodes, n)
        want = np.bincount(cls, weights=want)[cls]
    cell = np.ravel_multi_index(interp.nodes[:, :3].T, (q,) * 3, mode="wrap")
    got, start = np.empty(len(cell), dtype=complex), 0
    for slab in interp.poly._cell_slabs(q):
        part = (cell >= start) & (cell < start + slab.size)
        got[part] = slab.ravel()[cell[part] - start]
        start += slab.size
    return _err(got, want)
