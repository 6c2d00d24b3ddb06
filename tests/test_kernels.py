import tracemalloc

import numpy as np
import pytest

from fcctrig import claims, indexsets, interpolation, transforms
from fcctrig.indexsets import _star_sizes, generate_Hn, generate_Hn_star, strata
from fcctrig.lattice import _expsum
from fcctrig.transforms import unit_cell_points
from fcctrig.kernels import (
    K_n,
    dirichlet,
    dirichlet_direct,
    dirichlet_product,
    edge_sum,
    edge_sum_direct,
    phi_n_fund,
    phi_n_star,
    phi_n_star_direct,
    sine_ratio,
    theta_n,
)


def rand_t(rng, m):
    t = rng.uniform(-1.5, 1.5, size=(m, 4))
    return t - t.mean(axis=1, keepdims=True)


def singular_probes(rng, m):
    # points with one coordinate within 1e-7 of an integer, rebalanced to
    # zero sum; these sit on the removable singularities of the sine ratios
    t = rng.uniform(-0.4, 0.4, size=(m, 4))
    t[:, 0] = rng.integers(-2, 3, size=m) + rng.uniform(-1e-7, 1e-7, size=m)
    return t - t.mean(axis=1, keepdims=True)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_sine_ratio_generic(m):
    rng = np.random.default_rng(10)
    x = rng.uniform(-4, 4, size=200)
    x = x[np.abs(np.sin(np.pi * x)) > 1e-3]
    ref = np.sin(m * np.pi * x) / np.sin(np.pi * x)
    assert np.abs(sine_ratio(m, x) - ref).max() < 1e-10


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_sine_ratio_at_integers(m):
    for a in range(-3, 4):
        want = m if (a * (m - 1)) % 2 == 0 else -m
        assert sine_ratio(m, float(a)) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("m", [2, 5])
def test_sine_ratio_near_large_integers(m):
    # the naive quotient loses digits here; the reduced form must not
    for a in (999.0, -1234.0):
        for eps in (1e-9, -3e-7, 2e-5):
            x = a + eps
            sgn = 1.0 if (int(a) * (m - 1)) % 2 == 0 else -1.0
            ref = sgn * np.sin(m * np.pi * eps) / np.sin(np.pi * eps)
            if abs(np.sin(np.pi * eps)) < 1e-8:
                ref = sgn * m
            assert abs(sine_ratio(m, x) - ref) < 1e-9


def test_K_n_is_geometric_sum():
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, size=100)
    for n in (1, 2, 4):
        ref = sum(np.exp(2j * np.pi * j * x) for j in range(n + 1))
        assert np.abs(K_n(n, x) - ref).max() < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dirichlet_three_routes_agree(n):
    rng = np.random.default_rng(12)
    t = np.vstack([rand_t(rng, 60), singular_probes(rng, 40)])
    direct = dirichlet_direct(n, t)
    assert np.abs(dirichlet(n, t) - direct).max() < 1e-9
    assert np.abs(dirichlet_product(n, t) - direct).max() < 1e-9
    # the direct sum of the real-symmetric set is real
    assert np.abs(direct.imag).max() < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dirichlet_peak_value(n):
    t0 = np.zeros(4)
    want = (n + 1) ** 4 - n**4
    assert dirichlet(n, t0) == pytest.approx(want, rel=1e-12)
    assert dirichlet_product(n, t0) == pytest.approx(want, rel=1e-12)


def test_dirichlet_zero_degree():
    rng = np.random.default_rng(13)
    t = rand_t(rng, 50)
    assert np.abs(dirichlet(0, t) - 1.0).max() < 1e-12


@pytest.mark.parametrize("n", [0, -1])
def test_phi_star_rejects_degree_below_one(n):
    # as phi_n_fund does; n = 0 used to give NaN from the 1/4n^3 factor, and
    # edge_sum(0, 0) gave -24 where edge_sum_direct raised
    t = np.zeros((2, 4))
    for kernel in (phi_n_star, phi_n_fund, phi_n_star_direct, edge_sum, edge_sum_direct):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            kernel(n, t)


@pytest.mark.parametrize("kernel", [phi_n_star, phi_n_fund, phi_n_star_direct, edge_sum,
                                    edge_sum_direct], ids=lambda fn: fn.__name__)
def test_kernels_take_integer_degrees_only(kernel):
    # edge_sum(2.5, 0) used to give 36
    t = rand_t(np.random.default_rng(18), 5)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        kernel(2.5, t)
    assert np.array_equal(kernel(np.int64(3), t), kernel(3, t))


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize("kernel", [K_n, theta_n, dirichlet, dirichlet_product],
                         ids=lambda fn: fn.__name__)
def test_compact_kernels_reject_negative_degrees(kernel, n):
    # dirichlet(-1, t) used to give -1.0, dirichlet_product(-1, t) -1,
    # theta_n(-1, t) 1.0 and K_n(-2, t) a nonzero value, where
    # dirichlet_direct(-1, t) raised
    with pytest.raises(ValueError, match="degree must be >= 0"):
        kernel(n, rand_t(np.random.default_rng(19), 5))


def test_theta_zero_degree_vanishes():
    rng = np.random.default_rng(14)
    t = rand_t(rng, 20)
    assert np.abs(theta_n(0, t)).max() == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_edge_sum_matches_direct(n):
    rng = np.random.default_rng(15)
    t = np.vstack([rand_t(rng, 60), singular_probes(rng, 40)])
    a = edge_sum(n, t)
    b = edge_sum_direct(n, t)
    assert np.abs(a - b).max() < 1e-9


def test_edge_sum_degree_one_is_zero():
    # the edge strata are empty at degree 1
    rng = np.random.default_rng(16)
    t = rand_t(rng, 30)
    assert np.abs(edge_sum_direct(1, t)).max() == 0.0
    assert np.abs(edge_sum(1, t)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_phi_star_compact_matches_weighted_sum(n):
    rng = np.random.default_rng(17)
    t = np.vstack([rand_t(rng, 60), singular_probes(rng, 40)])
    a = phi_n_star(n, t)
    b = phi_n_star_direct(n, t)
    assert np.abs(a - b).max() < 1e-12
    assert np.abs(b.imag).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_star_cardinal_on_nodes(n):
    # phi*((k - j)/(4n)) = 1 iff k and j are congruent, else 0
    star = generate_Hn_star(n)
    pts = (star[:, None, :] - star[None, :, :]).astype(float) / (4 * n)
    vals = phi_n_star(n, pts)
    cong = np.zeros((len(star), len(star)), dtype=bool)
    for i, k in enumerate(star):
        for j, m in enumerate(star):
            d = k - m
            cong[i, j] = np.all(d % (4 * n) == 0) and d.sum() == 0
    assert np.abs(vals - cong.astype(float)).max() < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_fund_cardinal_on_nodes(n):
    nodes = generate_Hn(n)
    pts = (nodes[:, None, :] - nodes[None, :, :]).astype(float) / (4 * n)
    vals = phi_n_fund(n, pts)
    assert np.abs(vals - np.eye(len(nodes))).max() < 1e-9


@pytest.mark.parametrize("n", [2, 4])
def test_kernels_are_lattice_periodic(n):
    from fcctrig.lattice import H_MATRIX

    rng = np.random.default_rng(18)
    t = rand_t(rng, 40)
    v = (rng.integers(-2, 3, size=(40, 3)) @ H_MATRIX.T).astype(float)
    for f in (lambda u: dirichlet(n, u), lambda u: phi_n_star(n, u)):
        assert np.abs(f(t + v) - f(t)).max() < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_kernels_are_permutation_invariant(n):
    from fcctrig.symmetry import PERM_TABLE

    rng = np.random.default_rng(19)
    t = rand_t(rng, 30)
    d0 = dirichlet(n, t)
    p0 = phi_n_star(n, t)
    for p in PERM_TABLE:
        tp = t[..., p]
        assert np.abs(dirichlet(n, tp) - d0).max() < 1e-10
        assert np.abs(phi_n_star(n, tp) - p0).max() < 1e-12


# the unchunked sums the direct kernels formed before they took chunks of points
UNCHUNKED = {
    dirichlet_direct: lambda n, t: _expsum(generate_Hn_star(n), t).sum(axis=-1),
    phi_n_fund: lambda n, t: _expsum(generate_Hn(n), t).sum(axis=-1) / (4 * n**3),
    edge_sum_direct: lambda n, t: _expsum(
        generate_Hn_star(n)[strata(generate_Hn_star(n), n).sum(axis=1) == 3], t).sum(axis=-1),
    phi_n_star_direct: lambda n, t: (
        _expsum(generate_Hn_star(n), t) * (1.0 / _star_sizes(n))).sum(axis=-1) / (4 * n**3),
}


@pytest.mark.parametrize("fn", UNCHUNKED, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_direct_kernels_equal_their_unchunked_sums(fn, n):
    t = rand_t(np.random.default_rng(60), 700).reshape(7, 100, 4)
    got, want = fn(n, t), UNCHUNKED[fn](n, t)
    assert got.shape == (7, 100)
    assert np.abs(got - want).max() < 1e-13 * max(1.0, np.abs(want).max())


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the direct sums at the sizes the dodecahedral benchmark and ``verify --n 32``
# ask for, with their bounds in MiB; unchunked they peaked near 186, 156 and
# 211 MiB, in chunks of 2^20 phases near 32 MiB each, and through one reused
# block of 2^16 phases near 1.7, 2.3 and 9.4 MiB (the last is compact_kernels'
# own compact forms at 50 points)
DIRECT_SUMS = {
    "phi_n_star_direct(8), 2,465 points": (
        lambda: phi_n_star_direct(8, generate_Hn_star(8) / 32.0), (8,), 4),
    "dirichlet_direct(4), 13,824 points": (
        lambda: dirichlet_direct(4, unit_cell_points(24)), (4,), 4),
    "compact_kernels(32), 50 points": (
        lambda: claims.compact_kernels(32, rand_t(np.random.default_rng(61), 50)), (32,), 16),
}


@pytest.mark.parametrize("case", sorted(DIRECT_SUMS))
def test_direct_sum_memory_is_bounded(case, monkeypatch):
    monkeypatch.setenv("FCC_TRIG_THREADS", "1")
    call, degrees, mib = DIRECT_SUMS[case]
    for n in degrees:  # the sets are built, as the benchmark and verify find them
        generate_Hn(n), generate_Hn_star(n), _star_sizes(n)
    peak = traced_peak(call)
    assert peak <= mib * 2**20, peak


# per rule of indexsets._RULES, the direct kernel that is its oracle and the
# interpolant built on it
ORACLES = {"hstar": (phi_n_star_direct, "interp_In_star"), "hn": (phi_n_fund, "interp_In")}


@pytest.mark.parametrize("rule", sorted(ORACLES))
def test_direct_kernels_do_not_read_the_rule_table(rule, monkeypatch):
    # weights scaled by 12/11, as a denominator q = 11 would, in the weight
    # box every module reads, move the interpolant, not its oracle
    kernel, builder = ORACLES[rule]
    n, t = 3, rand_t(np.random.default_rng(62), 20)
    f = lambda s: np.cos(2.0 * np.pi * s[..., 0])  # noqa: E731
    build = getattr(interpolation, builder)
    want, interp = kernel(n, t), build(f, n)(t)
    box = indexsets._weight_box

    def wrong(r, m):
        return box(r, m) * (12 / 11) if r == rule else box(r, m)

    for module in (indexsets, interpolation, transforms):
        monkeypatch.setattr(module, "_weight_box", wrong)
    assert np.array_equal(kernel(n, t), want)
    assert np.abs(build(f, n)(t) - interp).max() > 1e-3
