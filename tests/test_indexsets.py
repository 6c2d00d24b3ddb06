import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest

from fcctrig.indexsets import (
    _RULES,
    _star_sizes,
    _weight_box,
    class_sizes,
    generate_Hn,
    generate_Hn_circ,
    generate_Hn_star,
    generate_Lambda_n,
    lambda_circ_nodes,
    lambda_nodes,
    lambda_weights,
    lambdas,
    strata,
    stratum_counts,
    stratum_of_index,
    tetra_stratum,
    to_reduced,
    weight_c,
    weight_lambda,
)
from fcctrig.lattice import hindex
from fcctrig.symmetry import orbit


NS = [1, 2, 3, 4, 5, 6]


def brute_Hn(n):
    # oracle: scan a bounding box of reduced coordinates and apply the
    # defining half-open constraints to the ordered pairs i < j
    out = []
    r = range(-2 * n, 2 * n + 1)
    for a in r:
        for b in r:
            for c in r:
                s = a + b + c
                k = (4 * a - s, 4 * b - s, 4 * c - s, -s)
                if all(
                    -4 * n < k[i] - k[j] <= 4 * n
                    for i, j in combinations(range(4), 2)
                ):
                    out.append(k)
    return sorted(out)


def brute_Hn_star(n):
    out = []
    r = range(-2 * n, 2 * n + 1)
    for a in r:
        for b in r:
            for c in r:
                s = a + b + c
                k = (4 * a - s, 4 * b - s, 4 * c - s, -s)
                if all(
                    abs(k[i] - k[j]) <= 4 * n for i, j in combinations(range(4), 2)
                ):
                    out.append(k)
    return sorted(out)


@pytest.mark.parametrize("n", NS)
def test_Hn_against_brute_force(n):
    got = [tuple(int(v) for v in row) for row in generate_Hn(n)]
    assert sorted(got) == brute_Hn(n)
    assert len(got) == 4 * n**3


@pytest.mark.parametrize("n", NS)
def test_Hn_star_against_brute_force(n):
    got = [tuple(int(v) for v in row) for row in generate_Hn_star(n)]
    assert sorted(got) == brute_Hn_star(n)
    assert len(got) == (n + 1) ** 4 - n**4


@pytest.mark.parametrize("n", NS)
def test_Hn_circ_cardinality_and_strictness(n):
    circ = generate_Hn_circ(n)
    assert len(circ) == n**4 - (n - 1) ** 4
    for k in circ:
        assert np.abs(k[:, None] - k[None, :]).max() < 4 * n
    star = {tuple(int(v) for v in row) for row in generate_Hn_star(n)}
    assert {tuple(int(v) for v in row) for row in circ} <= star


@pytest.mark.parametrize("n", range(2, 13))
def test_Hn_circ_is_the_star_set_of_n_minus_one_byte_for_byte(n):
    # max k - min k < 4n is max k - min k <= 4(n - 1) on rows congruent mod 4,
    # and both sets come out in the same lexicographic order
    circ, star = generate_Hn_circ(n), generate_Hn_star(n - 1)
    assert circ.dtype == star.dtype and circ.shape == star.shape
    assert circ.tobytes() == star.tobytes()


@pytest.mark.parametrize("n", NS)
def test_all_outputs_are_valid_indices(n):
    for gen in (generate_Hn, generate_Hn_star, generate_Hn_circ, lambda_nodes):
        for k in gen(n):
            assert np.array_equal(hindex(k), k)


@pytest.mark.parametrize("n", NS)
def test_dodeca_stratum_counts(n):
    counts = stratum_counts(n)
    m = n - 1
    expected = {
        (i, j): factorial(4) // (
            factorial(i) * factorial(j) * factorial(4 - i - j)
        ) * m ** (4 - i - j)
        for (i, j) in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]
    }
    expected[(0, 0)] = n**4 - (n - 1) ** 4
    expected = {lab: c for lab, c in expected.items() if c > 0}
    assert counts == expected
    assert sum(counts.values()) == (n + 1) ** 4 - n**4


@pytest.mark.parametrize("n", NS)
def test_c_weights_sum_to_interpolation_count(n):
    total = sum(weight_c(k, n) for k in generate_Hn_star(n))
    assert total == Fraction(4 * n**3)


def test_c_weight_values():
    n = 2
    vals = {stratum_of_index(k, n): weight_c(k, n) for k in generate_Hn_star(n)}
    assert vals == {
        (0, 0): Fraction(1),
        (1, 1): Fraction(1, 2),
        (1, 2): Fraction(1, 3),
        (2, 1): Fraction(1, 3),
        (1, 3): Fraction(1, 4),
        (3, 1): Fraction(1, 4),
        (2, 2): Fraction(1, 6),
    }


@pytest.mark.parametrize("n", NS)
def test_lambda_cardinalities(n):
    assert len(lambda_nodes(n)) == comb(n + 3, 3)
    assert len(lambda_circ_nodes(n)) == comb(n - 1, 3)


def test_lambda_circ_empty_below_four():
    for n in (1, 2, 3):
        assert lambda_circ_nodes(n).shape == (0, 4)
    assert len(lambda_circ_nodes(4)) == 1
    assert tuple(int(v) for v in lambda_circ_nodes(4)[0]) == (6, 2, -2, -6)


@pytest.mark.parametrize("n", [0, -1])
def test_lambda_circ_rejects_degree_below_one(n):
    # like lambda_nodes and the other generators, not an empty set
    with pytest.raises(ValueError, match="degree must be >= 1"):
        lambda_circ_nodes(n)


@pytest.mark.parametrize(
    "gen", [generate_Hn, generate_Hn_star, generate_Hn_circ, lambda_nodes, lambda_circ_nodes]
)
def test_generators_take_integer_degrees_only(gen):
    # 2.5 used to give 65 rows of generate_Hn and 84 of generate_Hn_star
    for n in (2.5, 3.5):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            gen(n)
    assert np.array_equal(gen(np.int64(4)), gen(4))


@pytest.mark.parametrize(
    "call",
    [
        lambda n: weight_c((0, 0, 0, 0), n),
        lambda n: weight_lambda((0, 0, 0, 0), n),
        lambda n: stratum_counts(n),
        lambda n: generate_Lambda_n(n),
    ],
    ids=["weight_c", "weight_lambda", "stratum_counts", "generate_Lambda_n"],
)
def test_weights_take_integer_degrees_only(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(2.5)
    assert call(np.int64(3)) == call(3)


SETS = [generate_Hn, generate_Hn_star, generate_Hn_circ, lambda_nodes, lambda_circ_nodes]
PER_DEGREE = SETS + [lambda_weights, _star_sizes]


@pytest.mark.parametrize("fn", PER_DEGREE, ids=lambda fn: fn.__name__)
def test_per_degree_arrays_are_shared_and_read_only(fn):
    a = fn(5)
    assert fn(5) is a and fn(np.int64(5)) is a
    with pytest.raises(ValueError, match="read-only"):
        a[0] = 0
    # a bad degree is never cached: it raises on every call
    for bad, err in ((2.5, TypeError), (0, ValueError)):
        for _ in range(2):
            with pytest.raises(err):
                fn(bad)


@pytest.mark.parametrize("fn", PER_DEGREE, ids=lambda fn: fn.__name__)
def test_per_degree_cache_keeps_at_most_eight_degrees(fn):
    for n in range(1, 21):
        fn(n)
        assert fn.cache_info().currsize <= 8
    assert fn.cache_info().currsize == 8


@pytest.mark.parametrize("n", range(1, 13))
def test_memoized_sets_and_weights_equal_fresh_ones(n):
    fresh = {fn: fn.__wrapped__(n) for fn in SETS}
    fresh[lambda_weights] = lambdas(fresh[lambda_nodes], n)
    fresh[_star_sizes] = class_sizes(fresh[generate_Hn_star], n)
    for fn, want in fresh.items():
        got = fn(n)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), fn.__name__
        assert got.tobytes() == want.tobytes(), fn.__name__


@pytest.mark.parametrize("n", NS)
def test_lambda_nodes_are_monotone_star_representatives(n):
    star = {tuple(int(v) for v in row) for row in generate_Hn_star(n)}
    seen_orbits = set()
    for k in lambda_nodes(n):
        kt = tuple(int(v) for v in k)
        assert kt[0] >= kt[1] >= kt[2] >= kt[3]
        assert kt in star
        seen_orbits.add(tuple(orbit(kt)[0]))
    # monotone representatives cover every orbit of the star set exactly once
    star_orbits = {tuple(orbit(k)[0]) for k in star}
    assert seen_orbits == star_orbits
    assert len(seen_orbits) == len(lambda_nodes(n))


@pytest.mark.parametrize("n", NS)
def test_lambda_weight_sum(n):
    assert int(lambda_weights(n).sum()) == 4 * n**3


@pytest.mark.parametrize("n", NS)
def test_lambda_weight_equals_orbit_size_times_class_weight(n):
    # lambda_j = |orbit of j| * c_j: summing c over the star set orbit-by-orbit
    for k in lambda_nodes(n):
        kt = tuple(int(v) for v in k)
        lam = weight_lambda(kt, n)
        acc = Fraction(0)
        for m in orbit(kt):
            acc += weight_c(m, n)
        assert acc == Fraction(lam)


@pytest.mark.parametrize("n", NS)
def test_tetra_stratum_set_algebra_oracle(n):
    # oracle: count active defining equalities among {k1=k2, k2=k3, k3=k4,
    # k1=k4+4n}; 0 -> interior, 1 -> face, 2 -> edge, 3 -> vertex, with the
    # edge type read off from which pair is active
    for k in lambda_nodes(n):
        k1, k2, k3, k4 = (int(v) for v in k)
        conds = [k1 == k2, k2 == k3, k3 == k4, k1 == k4 + 4 * n]
        m = sum(conds)
        got = tetra_stratum(k, n)
        if m == 0:
            assert got == "interior"
        elif m == 1:
            assert got == "face"
        elif m == 3:
            assert got == "vertex"
        else:
            eq12, eq23, eq34, d = conds
            if (eq12 and eq34) or (eq23 and d):
                assert got == "edge1"
            else:
                assert got == "edge2"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tetra_stratum_census(n):
    labels = [lab for _, lab in generate_Lambda_n(n)]
    assert labels.count("vertex") == 4
    assert labels.count("edge1") == 2 * (n - 1)
    assert labels.count("edge2") == 4 * (n - 1)
    assert labels.count("interior") == comb(n - 1, 3)


@pytest.mark.parametrize("n", [2, 4])
def test_tetra_vertices(n):
    verts = {
        k for k, lab in generate_Lambda_n(n) if lab == "vertex"
    }
    assert verts == {
        (0, 0, 0, 0),
        (2 * n, 2 * n, -2 * n, -2 * n),
        (3 * n, -n, -n, -n),
        (n, n, n, -3 * n),
    }


def test_tetra_stratum_rejects():
    with pytest.raises(ValueError):
        tetra_stratum((0, 4, 0, -4), 2)  # not monotone
    with pytest.raises(ValueError):
        tetra_stratum((12, 0, 0, -12), 2)  # outside the degree-2 set


def test_array_routines_reject_any_bad_row():
    n = 2
    with pytest.raises(ValueError, match="outside"):
        strata(np.vstack([generate_Hn_star(n), [[12, 0, 0, -12]]]), n)
    with pytest.raises(ValueError, match="non-increasing"):
        lambdas(np.vstack([lambda_nodes(n), [[0, 4, 0, -4]]]), n)


def test_to_reduced_round_trip():
    n = 3
    for k in generate_Hn_star(n):
        kp = to_reduced(k)
        s = int(kp.sum())
        rebuilt = tuple(int(4 * v - s) for v in kp) + (-s,)
        assert rebuilt == tuple(int(v) for v in k)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_sizes_are_residue_multiplicities(n):
    # nodes k/(4n) and m/(4n) are congruent exactly when k[:3] = m[:3] mod 4n;
    # the 4n^3 residues are the grid the interpolants gather from
    kk = generate_Hn_star(n)
    res, inverse, counts = np.unique(
        kk[:, :3] % (4 * n), axis=0, return_inverse=True, return_counts=True
    )
    assert len(res) == 4 * n**3
    assert np.array_equal(class_sizes(kk, n), counts[inverse.reshape(-1)])


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# every set and weight-box build at n = 32, afresh past the per-degree memo
BUILDS = {
    "generate_Hn": lambda: generate_Hn.__wrapped__(32),
    "generate_Hn_star": lambda: generate_Hn_star.__wrapped__(32),
    "generate_Hn_circ": lambda: generate_Hn_circ.__wrapped__(32),
    "_weight_box-hn": lambda: _weight_box.__wrapped__("hn", 32),
    "_weight_box-hstar": lambda: _weight_box.__wrapped__("hstar", 32),
    "_weight_box-hcirc": lambda: _weight_box.__wrapped__("hcirc", 32),
}


@pytest.mark.parametrize("fn", BUILDS.values(), ids=BUILDS.keys())
def test_set_build_memory_is_bounded(fn, monkeypatch):
    # membership is decided on the 3-column box of k' and only the members
    # become 4-column rows: 12.6-14.7 MiB, against 22.9-25.1 MiB while each
    # build mapped the whole box to rows first and 42-46 MiB with six-wide
    # difference arrays
    monkeypatch.setenv("FCC_TRIG_THREADS", "1")
    peak = _traced_peak(fn)
    assert peak < 16 * 2**20, peak


def test_class_sizes_memory_is_bounded(monkeypatch):
    # the N x 4 x 4 difference tensor of the boundary slots peaked at 35.6 MiB
    monkeypatch.setenv("FCC_TRIG_THREADS", "1")
    kk = generate_Hn_star(32)
    peak = _traced_peak(lambda: class_sizes(kk, 32))
    assert peak < 12 * 2**20, peak


# the node set of every rule of the table
RULE_NODES = {"hn": generate_Hn, "hstar": generate_Hn_star, "lambda": lambda_nodes,
              "interior": lambda_circ_nodes}


@pytest.mark.parametrize("rule", sorted(RULE_NODES))
@pytest.mark.parametrize("n", range(1, 7))
def test_rules_are_integer_weights_on_the_node_sets_summing_to_4n3(rule, n):
    nodes, a, q = _RULES[rule](n)
    assert nodes is RULE_NODES[rule](n)
    a = np.broadcast_to(a, len(nodes))
    assert a.dtype.kind == "i" and isinstance(q, int)
    if rule != "interior":  # (1/4n^3) sum 24 over Lambda_n circ is 6 binom(n-1, 3) / n^3
        assert Fraction(int(a.sum()), q) == 4 * n**3
    else:
        assert a.sum() == 24 * comb(n - 1, 3)


@pytest.mark.parametrize("n", range(1, 13))
def test_hstar_weights_are_the_class_weights_bit_for_bit(n):
    nodes, a, q = _RULES["hstar"](n)
    assert q == 12 and np.array_equal(a * _star_sizes(n), np.full(len(nodes), 12))
    assert (a / q).tobytes() == (1.0 / _star_sizes(n)).tobytes()
    # the weight box, read at the rows, holds the class weights, and nothing else
    box = _weight_box("hstar", n)
    got = box[tuple((to_reduced(nodes) + n).T)]
    assert got.tobytes() == (1.0 / (4 * n**3 * _star_sizes(n))).tobytes()
    assert np.count_nonzero(box) == len(nodes)


@pytest.mark.parametrize("n", range(1, 13))
def test_rule_weights_of_the_other_rules_are_the_old_floats(n):
    # the weight boxes of H_n and H_n circ hold 1/4n^3 and 6/n^3 at their
    # rows, and nothing else
    for rule, rows, w in (("hn", generate_Hn(n), 1.0 / (4 * n**3)),
                          ("hcirc", generate_Hn_circ(n), 6.0 / n**3)):
        box = _weight_box(rule, n)
        assert box.shape == (2 * n + 1,) * 3
        assert np.all(box[tuple((to_reduced(rows) + n).T)] == w)
        assert np.count_nonzero(box) == len(rows)
