"""The node-group route of the node-sum claims against the dense sums it
replaced, and checks that a broken rule or frequency set fails it."""

import tracemalloc

import numpy as np
import pytest

from fcctrig import claims, indexsets
from fcctrig.indexsets import (
    _star_sizes,
    generate_Hn,
    generate_Hn_star,
    lambda_nodes,
    lambda_weights,
)
from fcctrig.interpolation import _freq_cells, _node_cells


def dense_rule(nodes, w, n, freqs):
    """Oracle: (1/4n^3) sum_j w_j phi_k(j / 4n), one nodes x frequencies matrix."""
    e = np.exp(0.5j * np.pi * (nodes / (4.0 * n)) @ freqs.T.astype(float))
    return np.broadcast_to(w, len(nodes)).astype(float) @ e / (4 * n**3)


RULES = {
    "H_n": lambda n: (generate_Hn(n), 1.0),
    "H_n*": lambda n: (generate_Hn_star(n), 1.0 / _star_sizes(n)),
    "tetrahedral": lambda n: (lambda_nodes(n), lambda_weights(n)),
}


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rule_transform_matches_the_dense_sum_on_every_cell(rule, n):
    # H_n meets every cell once, so its frequencies read the whole transform
    nodes, w = RULES[rule](n)
    hn = generate_Hn(n)
    cells = _freq_cells(hn, n)
    assert np.array_equal(np.sort(cells), np.arange(4 * n**3))
    got = claims._rule(nodes, w, n)[cells]
    assert np.abs(got - dense_rule(nodes, w, n, hn)).max() < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_node_cells_are_the_congruence_classes(n):
    # nodes share a cell exactly when they share j[:3] mod 4n
    nodes = generate_Hn_star(n)
    _, cls = np.unique(nodes[:, :3] % (4 * n), axis=0, return_inverse=True)
    cells = _node_cells(nodes, n)
    pairs = np.unique(np.stack([cls.ravel(), cells]), axis=1)
    assert len(np.unique(pairs[0])) == len(np.unique(pairs[1])) == pairs.shape[1]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_orthonormality_fails_when_two_frequencies_share_a_cell(n, monkeypatch):
    hn = generate_Hn(n).copy()
    # k' + (n, 0, -n) keeps the cell: the same phase at every node
    hn[1] = hn[0] + [4 * n, 0, -4 * n, 0]
    assert _freq_cells(hn[0], n) == _freq_cells(hn[1], n)
    assert claims.orthonormality(n) < 1e-10
    monkeypatch.setattr(claims, "generate_Hn", lambda m: hn)
    assert claims.orthonormality(n) >= 1


@pytest.mark.parametrize("n", [1, 2, 4])
def test_cubature_fails_when_one_weight_grows_by_one(n, monkeypatch):
    sizes, lam = _star_sizes(n), lambda_weights(n)
    assert max(claims.dodeca_cubature(n), claims.tetra_cubature(n)) < 1e-10
    first = np.arange(len(sizes)) == 0
    monkeypatch.setattr(claims, "_star_sizes", lambda m: 1.0 / (1.0 / sizes + first))
    monkeypatch.setattr(claims, "lambda_weights", lambda m: lam + (np.arange(len(lam)) == 0))
    assert claims.dodeca_cubature(n) > 1e-10
    assert claims.tetra_cubature(n) > 1e-10


@pytest.mark.parametrize("claim", ["orthonormality", "dodeca_cubature", "tetra_cubature"])
def test_claim_memory_is_bounded(claim, monkeypatch):
    # the dense matrices of n = 16 asked for up to 16.8 GiB (dodeca_cubature,
    # H_31* x H_16*); the transform route peaks near 7, 42 and 10 MiB with
    # the node and frequency sets built cold, as here: eight other degrees
    # evict degree 16 and 31 from every per-degree cache
    monkeypatch.setenv("FCC_TRIG_THREADS", "1")
    for name in ("generate_Hn", "generate_Hn_star", "_star_keys", "_star_sizes",
                 "lambda_nodes", "lambda_weights"):
        for d in range(1, 9):
            getattr(indexsets, name)(d)
    tracemalloc.start()
    try:
        err = getattr(claims, claim)(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err < 1e-10
    assert peak <= 64 * 2**20, peak
