"""The node-group route of the node-sum claims against the dense sums it
replaced, the batched TC/TS claim against the per-index loop it replaced,
and checks that a broken rule, frequency set or compact form fails them."""

import tracemalloc
from math import comb

import numpy as np
import pytest

from fcctrig import claims, indexsets, interpolation, kernels, trigbasis
from fcctrig.indexsets import (
    _star_sizes,
    generate_Hn,
    generate_Hn_star,
    lambda_circ_nodes,
    lambda_nodes,
    lambda_weights,
)
from fcctrig.interpolation import _freq_cells, _node_cells
from fcctrig.lattice import _expsum, _phases
from fcctrig.symmetry import PERM_TABLE
from fcctrig.trigbasis import tc, tc_direct, ts, ts_direct


def dense_rule(nodes, w, n, freqs):
    """Oracle: (1/4n^3) sum_j w_j phi_k(j / 4n), one nodes x frequencies matrix."""
    e = np.exp(0.5j * np.pi * (nodes / (4.0 * n)) @ freqs.T.astype(float))
    return np.broadcast_to(w, len(nodes)).astype(float) @ e / (4 * n**3)


# the name of each rule in indexsets._RULES, and its nodes and float weights
# as the oracle forms them, on its own
RULES = {
    "H_n": ("hn", lambda n: (generate_Hn(n), 1.0)),
    "H_n*": ("hstar", lambda n: (generate_Hn_star(n), 1.0 / _star_sizes(n))),
    "tetrahedral": ("lambda", lambda n: (lambda_nodes(n), lambda_weights(n))),
    "interior": ("interior", lambda n: (lambda_circ_nodes(n), 24.0)),
}


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rule_transform_matches_the_dense_sum_on_every_cell(rule, n):
    # H_n meets every cell once, so its frequencies read the whole transform
    name, oracle = RULES[rule]
    nodes, w = oracle(n)
    hn = generate_Hn(n)
    cells = _freq_cells(hn, n)
    assert np.array_equal(np.sort(cells), np.arange(4 * n**3))
    got = claims._rule(name, n)[cells]
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


def grow_first_weight(rule, n, monkeypatch):
    """Make the first weight a_0 / q of one rule of the table grow by one."""
    nodes, a, q = indexsets._RULES[rule](n)
    grown = a + q * (np.arange(len(nodes)) == 0)
    monkeypatch.setitem(indexsets._RULES, rule, lambda m: (nodes, grown, q))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_cubature_fails_when_one_weight_grows_by_one(n, monkeypatch):
    assert max(claims.dodeca_cubature(n), claims.tetra_cubature(n)) < 1e-10
    grow_first_weight("hstar", n, monkeypatch)
    grow_first_weight("lambda", n, monkeypatch)
    assert claims.dodeca_cubature(n) > 1e-10
    assert claims.tetra_cubature(n) > 1e-10


# per rule, the node-sum claim that reads its weights
RULE_CLAIMS = {"hn": "orthonormality", "hstar": "dodeca_cubature", "lambda": "tetra_cubature"}


@pytest.mark.parametrize("rule", sorted(RULE_CLAIMS))
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_adding_q_to_one_integer_weight_fails_its_claims(rule, n, monkeypatch):
    claim = getattr(claims, RULE_CLAIMS[rule])
    assert claims.weight_sums(n) == 0
    assert claim(n) < 1e-10
    grow_first_weight(rule, n, monkeypatch)
    assert claims.weight_sums(n) == 1
    assert claim(n) > 1e-10


def test_compact_kernels_runs_each_direct_sum_once(monkeypatch):
    # "dirichlet" and "dirichlet product" share one direct oracle
    calls, direct = [], kernels.dirichlet_direct
    monkeypatch.setattr(kernels, "dirichlet_direct", lambda n, t: calls.append(n) or direct(n, t))
    t = np.random.default_rng(3).uniform(-1.0, 1.0, (10, 4))
    t -= t.mean(axis=1, keepdims=True)
    errs = claims.compact_kernels(3, t)
    assert calls == [3]
    assert errs["dirichlet"] < 1e-9 and errs["dirichlet product"] < 1e-9


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


def prebuilt(n):
    """Build the node and frequency sets and weights of degree n (and the
    tetrahedral set of 2n - 1), as verify finds them by the time it checks
    its claims."""
    for name in ("generate_Hn", "generate_Hn_star", "_star_keys", "_star_sizes",
                 "lambda_nodes", "lambda_weights", "lambda_circ_nodes"):
        getattr(indexsets, name)(n)
    lambda_nodes(2 * n - 1)
    for kind in ("in", "instar", "lnstar", "ln"):
        interpolation.node_set(kind, n)


def cos_probe(t):
    return np.cos(2.0 * np.pi * (t[..., 0] - t[..., 2]))


# the claims at verify's degree 32 and their bounds in MiB, sets prebuilt:
# they traced 188 (H_63* built inside), 77 and 68-71 MiB before they took
# their sets in blocks and their cell grids in slabs, and now 6.1, 6.6 and
# 45-51 MiB; the interpolant's own build is most of the last
CLAIMS_AT_32 = {
    "dodeca_cubature": (lambda: claims.dodeca_cubature(32), 16),
    "tetra_cubature": (lambda: claims.tetra_cubature(32), 16),
    **{f"interpolation_condition {kind}": (
        lambda kind=kind: claims.interpolation_condition(kind, 32, cos_probe), 60)
       for kind in ("in", "instar", "lnstar", "ln")},
}


@pytest.mark.parametrize("case", sorted(CLAIMS_AT_32))
def test_claim_memory_at_degree_32_is_bounded(case, monkeypatch):
    monkeypatch.setenv("FCC_TRIG_THREADS", "1")
    call, mib = CLAIMS_AT_32[case]
    prebuilt(32)
    tracemalloc.start()
    try:
        err = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err < 1e-9
    assert peak <= mib * 2**20, peak


def probe_points(m=50):
    """The seeded zero-sum points of ``fcc-trig verify``."""
    t = np.random.default_rng(20240901).uniform(-1.0, 1.0, size=(m, 4))
    return t - t.mean(axis=1, keepdims=True)


def loop_tetra_basis(n, t):
    """The per-index loop over tc/tc_direct and ts/ts_direct that the batched
    claim replaced."""
    ks = lambda_nodes(n)
    out = {"cosine": max(claims._err(tc(k, t), tc_direct(k, t)) for k in ks)}
    distinct = [k for k in ks if len(set(k.tolist())) == 4]
    if distinct:
        out["sine"] = max(claims._err(ts(k, t), ts_direct(k, t)) for k in distinct)
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_batched_tetra_basis_matches_the_per_index_loop(n):
    t = probe_points()
    got, want = claims.tetra_basis(n, t), loop_tetra_basis(n, t)
    assert got.keys() == want.keys() == ({"cosine", "sine"} if n >= 3 else {"cosine"})
    for key in got:
        assert abs(got[key] - want[key]) < 1e-13


@pytest.mark.parametrize("n", [1, 3, 6])
def test_orbit_weights_give_the_orbit_sums(n):
    # the mean of the 24 images phi_{k sigma} is tc_direct's mean over the
    # distinct orbit; minus their signed mean is ts_direct's -P- phi_k
    t = probe_points(20)
    for k in lambda_nodes(n):
        want = _expsum(k[PERM_TABLE], t) @ claims._ORBIT_WEIGHTS
        assert np.abs(want[:, 0] - tc_direct(k, t)).max() < 1e-13
        if len(set(k.tolist())) == 4:
            assert np.abs(want[:, 1] - ts_direct(k, t)).max() < 1e-13


def test_tetra_basis_fails_when_a_pairing_turns(monkeypatch):
    # v of the pairing (1, 3 | 4, 2) as t2 - t4, not t4 - t2: sin is odd, so
    # TS moves and the sine claim fails
    t = probe_points()
    assert max(claims.tetra_basis(4, t).values()) < 1e-9
    turned = trigbasis._PAIRINGS.copy()
    turned[:, 7] *= -1
    monkeypatch.setattr(trigbasis, "_PAIRINGS", turned)
    assert claims.tetra_basis(4, t)["sine"] > 1e-9


def test_tetra_basis_takes_blocks_of_at_most_2_16_images(monkeypatch):
    calls, rows, blocks = [], claims._compact_rows, []
    monkeypatch.setattr(claims, "_compact_rows",
                        lambda k, t, g: calls.append((len(k), g)) or rows(k, t, g))
    monkeypatch.setattr(claims, "_phases",
                        lambda kk, t, out: blocks.append(out) or _phases(kk, t, out))
    claims.tetra_basis(16, probe_points())
    chunks = [m for m, g in calls if g is np.cos]
    assert len(chunks) == len(blocks) == -(-comb(16 + 3, 3) // 54)
    assert sum(chunks) == comb(16 + 3, 3)
    assert max(chunks) * 24 * 50 == max(b.size for b in blocks) <= 2**16
    assert all(b.base is blocks[0].base for b in blocks)


@pytest.mark.parametrize("shape", [(4,), (2, 3, 4), (0, 4)])
def test_tetra_basis_takes_any_batch_of_points(shape):
    t = np.random.default_rng(29).uniform(-1, 1, size=shape)
    t -= t.mean(axis=-1, keepdims=True)
    got = claims.tetra_basis(3, t)
    assert got.keys() == {"cosine", "sine"}
    assert max(got.values()) < 1e-13
    if not t.size:
        assert got == {"cosine": 0.0, "sine": 0.0}


def test_tetra_basis_memory_is_bounded(monkeypatch):
    # the images go through one block of at most 2^16 complex numbers (1 MiB);
    # one unchunked block of the 6,545 x 24 x 50 images would be 120 MiB, and
    # chunks of 2^20 images peaked at 34.5 MiB; now 1.8 MiB
    monkeypatch.setenv("FCC_TRIG_THREADS", "1")
    t = probe_points()
    tracemalloc.start()
    try:
        errs = claims.tetra_basis(32, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(errs.values()) < 1e-9
    assert peak < 4 * 2**20, peak
