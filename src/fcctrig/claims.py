"""The paper's checkable claims, one function per claim.

Each function takes a degree, plus probe points or a probe function where
the claim has them, and returns what it measured: an exact claim returns
how far its counts or rational sums are off (0 when it holds), the others
their largest absolute error.  Tolerances stay with the callers,
``fcc-trig verify`` and ``tests/test_acceptance.py``, so no change here can
loosen a check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .indexsets import (
    class_sizes,
    generate_Hn,
    generate_Hn_circ,
    generate_Hn_star,
    lambda_nodes,
    lambda_weights,
    stratum_counts,
)
from . import kernels
from .interpolation import BUILDERS, node_set
from .transforms import cubature_tetra
from .trigbasis import tc, tc_direct, ts, ts_direct


def _err(got, want) -> float:
    return float(np.abs(np.asarray(got) - want).max(initial=0.0))


def _phis(nodes: np.ndarray, n: int, freqs: np.ndarray) -> np.ndarray:
    """phi_k(j / 4n) for nodes j (rows) and frequencies k (columns)."""
    return kernels._expsum(freqs, nodes.astype(float) / (4.0 * n))


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
    """|sum c - 4n^3| + |sum lambda - 4n^3| in rational arithmetic, over the
    weights c of H_n* and lambda of the tetrahedral nodes."""
    sizes, counts = np.unique(class_sizes(generate_Hn_star(n), n), return_counts=True)
    csum = sum(Fraction(c, s) for s, c in zip(sizes.tolist(), counts.tolist()))
    return abs(csum - 4 * n**3) + abs(int(lambda_weights(n).sum()) - 4 * n**3)


def orthonormality(n: int) -> float:
    """Max |G - I| over the Gram matrices of phi_k, k in H_n, under the node
    average over H_n and under the weighted rule over H_n*."""
    hn, star = generate_Hn(n), generate_Hn_star(n)
    worst = 0.0
    for nodes, w in ((hn, 1.0), (star, 1.0 / class_sizes(star, n))):
        e = _phis(nodes, n, hn)
        gram = np.conj(e * np.reshape(w, (-1, 1))).T @ e / (4 * n**3)
        worst = max(worst, _err(gram, np.eye(len(hn))))
    return worst


def dodeca_cubature(n: int) -> float:
    """Max |rule - delta_k0| of the weighted rule over H_n* on phi_k, k in H_{2n-1}*."""
    star, big = generate_Hn_star(n), generate_Hn_star(2 * n - 1)
    vals = (1.0 / class_sizes(star, n)) @ _phis(star, n, big) / (4 * n**3)
    return _err(vals, np.all(big == 0, axis=1))


def tetra_cubature(n: int) -> float:
    """Max |rule - delta_k0| of ``cubature_tetra`` on TC_k, k in Lambda_{2n-1}."""
    return max(abs(cubature_tetra(lambda t: tc(k, t), n) - (not k.any()))
               for k in lambda_nodes(2 * n - 1))


def compact_kernels(n: int, t) -> dict:
    """Max |compact form - direct sum| at the points t, per kernel."""
    pairs = {
        "dirichlet": (kernels.dirichlet, kernels.dirichlet_direct),
        "dirichlet product": (kernels.dirichlet_product, kernels.dirichlet_direct),
        "edge stratum sum": (kernels.edge_sum, kernels.edge_sum_direct),
        "symmetric kernel": (kernels.phi_n_star, kernels.phi_n_star_direct),
    }
    return {name: _err(fast(n, t), ref(n, t)) for name, (fast, ref) in pairs.items()}


def tetra_basis(n: int, t) -> dict:
    """Max |compact form - orbit sum| at the points t: "cosine" over TC_k for
    every tetrahedral index k of degree n, "sine" over TS_k for those with
    four distinct entries (present from degree 3 on)."""
    ks = lambda_nodes(n)
    out = {"cosine": max(_err(tc(k, t), tc_direct(k, t)) for k in ks)}
    distinct = [k for k in ks if len(set(k.tolist())) == 4]
    if distinct:
        out["sine"] = max(_err(ts(k, t), ts_direct(k, t)) for k in distinct)
    return out


def interpolation_condition(kind: str, n: int, f) -> float:
    """Max |I f - f| at the nodes of one operator, for real-valued f; 0.0 on
    an empty node set (``ln`` below degree 4).  For ``instar`` the target at
    a node is the sum of f over its congruence class, the nodes that share
    j[:3] mod 4n."""
    nodes = node_set(kind, n)
    pts = nodes / (4.0 * n)
    want = np.asarray(f(pts), dtype=float)
    if kind == "instar":
        _, cls = np.unique(nodes[:, :3] % (4 * n), axis=0, return_inverse=True)
        want = np.bincount(cls, weights=want)[cls]
    return _err(BUILDERS[kind](f, n)(pts), want)
