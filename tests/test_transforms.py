import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fcctrig.indexsets import (
    generate_Hn,
    generate_Hn_star,
    lambda_circ_nodes,
    lambda_nodes,
    lambda_weights,
    to_reduced,
    weight_lambda,
)
from fcctrig.interpolation import BUILDERS, dodeca_grid
from fcctrig.kernels import dirichlet, dirichlet_direct, theta_n
from fcctrig.lattice import phi
from fcctrig.transforms import (
    continuous_inner,
    cubature_dodeca,
    cubature_tetra,
    cubature_tetra_regular,
    fourier_coeffs,
    inner_n,
    inner_n_star,
    inner_tetra,
    inner_tetra_interior,
    lebesgue_Sn,
    one,
    TrigPoly,
    _KERNEL_BOXES,
    unit_cell_points,
)
from fcctrig.trigbasis import tc, tc_orthogonality_value, ts


def phi_f(k):
    kk = np.asarray(k, dtype=float)
    return lambda t: np.exp(0.5j * np.pi * (np.asarray(t) @ kk))


def pick(rng, arr, m):
    idx = rng.choice(len(arr), size=min(m, len(arr)), replace=False)
    return [tuple(int(v) for v in arr[i]) for i in idx]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inner_n_orthonormal_on_half_open_set(n):
    rng = np.random.default_rng(30)
    H = generate_Hn(n)
    for k in pick(rng, H, 6):
        for m in pick(rng, H, 6):
            got = inner_n(phi_f(k), phi_f(m), n)
            want = 1.0 if k == m else 0.0
            assert abs(got - want) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inner_n_star_orthonormal_on_half_open_set(n):
    # the weighted symmetric rule reproduces the same orthonormality
    rng = np.random.default_rng(31)
    H = generate_Hn(n)
    for k in pick(rng, H, 6):
        for m in pick(rng, H, 6):
            got = inner_n_star(phi_f(k), phi_f(m), n)
            want = 1.0 if k == m else 0.0
            assert abs(got - want) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cubature_dodeca_exact_to_degree(n):
    # the rule integrates every phi_k with k in the star set of 2n - 1
    # exactly: integral 1 at k = 0, otherwise 0
    rng = np.random.default_rng(32)
    big = generate_Hn_star(2 * n - 1)
    for k in pick(rng, big, 25) + [(0, 0, 0, 0)]:
        got = cubature_dodeca(phi_f(k), n)
        want = 1.0 if k == (0, 0, 0, 0) else 0.0
        assert abs(got - want) < 1e-10, k


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inner_n_aliasing_of_congruent_frequencies(n):
    # frequencies differing by 4n times a zero-sum integer vector share every
    # node value, so the discrete product sees them as equal
    rng = np.random.default_rng(36)
    shifts = [(1, 0, 0, -1), (1, -2, 1, 0), (2, -1, -1, 0)]
    for k in pick(rng, generate_Hn(n), 4):
        for v in shifts:
            m = tuple(k[i] + 4 * n * v[i] for i in range(4))
            assert abs(inner_n(phi_f(m), phi_f(k), n) - 1.0) < 1e-10
            assert abs(inner_n(phi_f(k), phi_f(m), n) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_cubature_dodeca_exactness_boundary(n):
    # one degree past the guarantee: this frequency is congruent to zero on
    # the node grid, so the rule returns 1 while the true integral is 0
    m = (4 * n, 0, 0, -4 * n)
    assert abs(cubature_dodeca(phi_f(m), n) - 1.0) < 1e-10


def test_inner_products_conjugate_symmetry():
    def f(t):
        t = np.asarray(t)
        return np.exp(2j * np.pi * t[..., 0]) + 0.4 * t[..., 1]

    def g(t):
        t = np.asarray(t)
        return np.cos(2 * np.pi * t[..., 2]) - 1.3j * t[..., 3]

    for ip, n in [
        (inner_n, 2),
        (inner_n_star, 2),
        (inner_tetra, 2),
        (inner_tetra_interior, 4),
    ]:
        assert abs(ip(f, g, n) - np.conj(ip(g, f, n))) < 1e-12


def test_partial_sum_is_kernel_convolution():
    # S_n f(t) equals the continuous pairing of f with the degree-n kernel
    # centered at t; both sides are evaluated with the same quadrature
    n, q = 2, 16

    def f(s):
        s = np.asarray(s)
        return np.exp(np.sin(2.0 * np.pi * s[..., 0])) * np.cos(
            2.0 * np.pi * (s[..., 1] - s[..., 2])
        )

    coeffs = fourier_coeffs(f, n, q)
    rng = np.random.default_rng(37)
    t = rng.uniform(-1.0, 1.0, size=(5, 4))
    t -= t.mean(axis=1, keepdims=True)
    for tv in t:
        direct = coeffs(tv)
        conv = continuous_inner(f, lambda s: dirichlet(n, tv - np.asarray(s)), q)
        assert abs(direct - conv) < 1e-9


@pytest.mark.parametrize("n, tol", [(2, 1e-2), (3, 1e-4), (4, 1e-6)])
def test_cubature_dodeca_converges_for_smooth_periodic(n, tol):
    # analytic and lattice-periodic but not a polynomial: the rule converges
    # spectrally to the continuous integral
    def f(t):
        return np.exp(np.sin(2.0 * np.pi * t[..., 0])) * np.cos(
            2.0 * np.pi * (t[..., 1] - t[..., 2])
        )

    ref = continuous_inner(f, one, 48)
    got = cubature_dodeca(f, n)
    assert abs(got - ref) < tol


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cubature_tetra_matches_symmetrized_dodeca(n):
    # for fully symmetric integrands the tetra rule equals the dodeca rule
    def f(t):
        return np.cos(2.0 * np.pi * t).sum(axis=-1) + 0.3 * np.cos(
            np.pi * t
        ).prod(axis=-1)

    a = cubature_tetra(f, n)
    b = cubature_dodeca(f, n)
    assert abs(a - b) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tc_discrete_orthogonality(n):
    # diagonal is 1/lambda_k: boundary indices of the tetrahedral set alias
    # with their congruent partners and the norm grows accordingly
    rng = np.random.default_rng(33)
    lam = lambda_nodes(n)
    for k in pick(rng, lam, 8):
        for m in pick(rng, lam, 8):
            got = inner_tetra(lambda t: tc(k, t), lambda t: tc(m, t), n)
            want = 1.0 / weight_lambda(k, n) if k == m else 0.0
            assert abs(got - want) < 1e-10


@pytest.mark.parametrize("n", [4, 5])
def test_ts_discrete_orthogonality(n):
    rng = np.random.default_rng(34)
    circ = lambda_circ_nodes(n)
    for k in pick(rng, circ, 6):
        for m in pick(rng, circ, 6):
            got = inner_tetra_interior(
                lambda t: ts(k, t), lambda t: ts(m, t), n
            )
            want = 1.0 / 24.0 if k == m else 0.0
            assert abs(got - want) < 1e-10


def test_inner_tetra_interior_empty_is_zero():
    assert inner_tetra_interior(one, one, 2) == 0j


@pytest.mark.parametrize("n", [0, -1])
def test_inner_tetra_interior_rejects_degree_below_one(n):
    # used to return 0j through an empty lambda_circ_nodes(n)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        inner_tetra_interior(one, one, n)


# every sum over samples of a user function, with the name of the sampled one
SUMS = {
    "inner_n": (lambda f: inner_n(f, one, 2), "f"),
    "inner_n_g": (lambda g: inner_n(one, g, 2), "g"),
    "inner_n_star": (lambda f: inner_n_star(f, one, 2), "f"),
    "inner_tetra": (lambda f: inner_tetra(f, one, 2), "f"),
    "inner_tetra_interior": (lambda f: inner_tetra_interior(f, one, 4), "f"),
    "cubature_dodeca": (lambda f: cubature_dodeca(f, 2), "f"),
    "cubature_tetra": (lambda f: cubature_tetra(f, 3), "f"),
    "cubature_tetra_regular": (lambda f: cubature_tetra_regular(f, 3), "f"),
    "continuous_inner": (lambda f: continuous_inner(f, one, 4), "f"),
    "continuous_inner_g": (lambda g: continuous_inner(one, g, 4), "g"),
}


@pytest.mark.parametrize("name", SUMS)
def test_sums_reject_values_of_the_wrong_shape(name):
    # cubature_dodeca of an (N, 1)-valued f used to return 65, and inner_n 32
    call, which = SUMS[name]
    want = rf"{which} returned shape \((\d+), 1\) .* expected \(\1,\)"
    with pytest.raises(ValueError, match=want):
        call(lambda t: np.ones(t.shape[:-1] + (1,)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", SUMS)
def test_sums_reject_non_finite_values(name, bad):
    # a NaN used to pass through cubature_tetra silently
    call, which = SUMS[name]

    def f(t):
        out = np.ones(t.shape[:-1])
        out[-1] = bad
        return out

    with pytest.raises(ValueError, match=rf"value of {which} at \(.* is not finite"):
        call(f)


def test_sums_keep_the_dtype_of_f():
    # real samples are summed as reals, bit for bit the plain weighted sum;
    # a cast to complex moves this value by 1 ulp
    def f(t):
        return np.cos(np.pi * t[..., 0]) + t[..., 1] ** 2

    idx = lambda_nodes(11)
    pts = idx / 44.0
    want = complex((f(pts) * lambda_weights(11).astype(float)).sum() / (4 * 11**3))
    assert cubature_tetra(f, 11) == want


# a real, a complex, an object (Fraction) and a scalar integrand
RULE_INTEGRANDS = {
    "real": lambda t: np.cos(np.pi * t[..., 0]) + t[..., 1] ** 2,
    "complex": lambda t: np.exp(1j * np.pi * (t[..., 0] - 3 * t[..., 2])) - 0.5j * t[..., 3],
    "fraction": lambda t: [Fraction(1, 3)] * len(t),
    "scalar": lambda t: -2.5,
}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("name", RULE_INTEGRANDS)
def test_cubature_is_the_inner_product_with_one(name, n):
    # the rules sum f's samples against the weights without sampling one: the
    # same weighted node sum, so the values are equal under ==
    f = RULE_INTEGRANDS[name]
    assert cubature_dodeca(f, n) == inner_n_star(f, one, n)
    assert cubature_tetra(f, n) == inner_tetra(f, one, n)


def test_sums_and_boxes_take_object_values():
    # Fractions or ints beyond int64 come back as an object array, which
    # the finiteness check cannot read until it is cast
    def f(t):
        return [Fraction(1, 4)] * len(t)

    assert cubature_tetra(f, 2) == pytest.approx(0.25, abs=1e-15)
    assert fourier_coeffs(f, 1).box[1, 1, 1] == pytest.approx(0.25, abs=1e-15)


def test_fourier_coeffs_takes_a_scalar_everywhere():
    # a scalar used to fail with "cannot reshape array of size 1"
    c = fourier_coeffs(lambda t: 2.5, 2)
    assert np.array_equal(c.box, fourier_coeffs(lambda t: np.full(t.shape[:-1], 2.5), 2).box)
    assert c.box[2, 2, 2] == pytest.approx(2.5, abs=1e-14)


def test_fourier_coeffs_rejects_values_of_the_wrong_shape():
    want = r"shape \(216, 1\) at the 6\^3 cell grid, expected \(216,\)"
    with pytest.raises(ValueError, match=want):
        fourier_coeffs(lambda t: np.ones(t.shape[:-1] + (1,)), 1, quad_order=6)
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        fourier_coeffs(lambda t: np.ones(3), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fourier_coeffs_rejects_non_finite_values(bad):
    # a NaN sample used to give NaN coefficients silently; the error names
    # the grid point, as the interpolant builders name the node
    pts = unit_cell_points(8)

    def f(t):
        out = np.ones(t.shape[:-1])
        out[5] = bad
        return out

    at = re.escape(str(tuple(pts[5].tolist())))
    with pytest.raises(ValueError, match=rf"value of f at {at} is not finite"):
        fourier_coeffs(f, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_cubature_tetra_regular_matches_homogeneous(n):
    # the same rule expressed in the two coordinate systems
    def f3(x):
        return np.sin(np.pi * x[..., 0]) + x[..., 1] * x[..., 2]

    def f4(t):
        x = t[..., :3] - t[..., 3:]
        return f3(x)

    a = cubature_tetra_regular(f3, n)
    b = cubature_tetra(f4, n)
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda: unit_cell_points(3.5),
        lambda: continuous_inner(one, one, 3.5),
        lambda: cubature_dodeca(one, 2.5),
        lambda: cubature_tetra(one, 2.5),
        lambda: fourier_coeffs(one, 2.5),
        lambda: fourier_coeffs(one, 2, quad_order=6.5),
        lambda: lebesgue_Sn(2.5, quad_order=8),
        lambda: lebesgue_Sn(2, quad_order=8.5),
    ],
    ids=["unit_cell_points", "continuous_inner", "cubature_dodeca", "cubature_tetra",
         "fourier_coeffs_n", "fourier_coeffs_q", "lebesgue_Sn_n", "lebesgue_Sn_q"],
)
def test_non_integer_degree_or_grid_is_rejected(call):
    # unit_cell_points(3.5) used to be a non-uniform 4^3 grid;
    # cubature_dodeca(one, 2.5) reported an index outside the closed node set
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


def test_numpy_integer_degree_and_grid_give_the_same_numbers():
    i = np.int64
    assert np.array_equal(unit_cell_points(i(5)), unit_cell_points(5))
    assert cubature_dodeca(one, i(3)) == cubature_dodeca(one, 3)
    assert lebesgue_Sn(i(2), quad_order=i(8)) == lebesgue_Sn(2, quad_order=8)
    assert np.array_equal(fourier_coeffs(one, i(2), i(6)).box, fourier_coeffs(one, 2, 6).box)


def test_unit_cell_points_shape_and_zero_sum():
    pts = unit_cell_points(5)
    assert pts.shape == (125, 4)
    assert np.abs(pts.sum(axis=1)).max() < 1e-12
    with pytest.raises(ValueError):
        unit_cell_points(1)


def test_continuous_inner_orthonormality():
    # the grid rule integrates phi_k phi_m-bar exactly once the order
    # clears the bandwidth
    ks = [(0, 0, 0, 0), (4, 0, 0, -4), (6, 2, -2, -6), (3, -1, -1, -1)]
    for k in ks:
        for m in ks:
            got = continuous_inner(phi_f(k), phi_f(m), 16)
            want = 1.0 if k == m else 0.0
            assert abs(got - want) < 1e-12


def test_continuous_tc_norm():
    for k in [(0, 0, 0, 0), (3, -1, -1, -1), (4, 4, -4, -4), (6, 2, -2, -6)]:
        got = continuous_inner(lambda t: tc(k, t), lambda t: tc(k, t), 16)
        assert abs(got - float(tc_orthogonality_value(k))) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_fourier_coeffs_recover_polynomial(n):
    rng = np.random.default_rng(35)
    kk = generate_Hn_star(n)
    coef = {
        tuple(int(v) for v in k): complex(*rng.standard_normal(2)) for k in kk
    }

    def f(t):
        acc = 0j
        for k, c in coef.items():
            acc = acc + c * phi(np.asarray(k), t)
        return acc

    got = fourier_coeffs(f, n)
    assert got.degree == n
    at = tuple((to_reduced(kk) + n).T)
    c = np.array(list(coef.values()))
    assert np.abs(got.box[at] - c).max() < 1e-10
    # and nothing outside the star set
    outside = np.ones(got.box.shape, dtype=bool)
    outside[at] = False
    assert not got.box[outside].any()
    # and the partial sum rebuilds the function
    t = rng.uniform(-0.5, 0.5, size=(40, 4))
    t -= t.mean(axis=1, keepdims=True)
    assert np.abs(got(t) - f(t)).max() < 1e-9
    # below 2n + 1 points per axis, frequencies congruent mod q alias: each
    # coefficient is the sum over its class of to_reduced(k) mod q
    q = 2 * n
    aliased = fourier_coeffs(f, n, quad_order=q).box[at]
    res = to_reduced(kk) % q
    for i, r in enumerate(res):
        want = c[(res == r).all(axis=1)].sum()
        assert abs(aliased[i] - want) < 1e-10


@pytest.mark.parametrize("n", [1, 3, 6])
def test_partial_sum_matches_dense_exponential_sum(n):
    # a polynomial is evaluated at zero-sum points only; off-hyperplane
    # points are rejected, and their projections give the dense sum
    rng = np.random.default_rng(60 + n)
    kk = generate_Hn_star(n)
    c = rng.standard_normal(len(kk)) + 1j * rng.standard_normal(len(kk))
    box = np.zeros((2 * n + 1,) * 3, dtype=complex)
    box[tuple((to_reduced(kk) + n).T)] = c
    poly = TrigPoly(box)
    t = rng.uniform(-2.0, 2.0, size=(3, 7, 4))
    with pytest.raises(ValueError, match="zero-sum"):
        poly(t)
    t -= t.mean(axis=-1, keepdims=True)
    want = np.exp(0.5j * np.pi * (t @ kk.T)) @ c
    got = poly(t)
    assert got.shape == (3, 7)
    assert np.abs(got - want).max() < 1e-12 * np.abs(c).sum()


def test_partial_sum_rejects_wrong_last_axis():
    c = fourier_coeffs(one, 1)
    with pytest.raises(ValueError, match="4 coordinates"):
        c(np.zeros((5, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_partial_sum_rejects_non_finite(bad):
    c = fourier_coeffs(one, 1)
    t = np.zeros((3, 4))
    t[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        c(t)


def test_trig_poly_rejects_a_malformed_box():
    # every cell of an odd cube is a frequency in H, so a malformed box is
    # the only way to give coefficients that are not a polynomial of H
    for shape in [(), (3,), (3, 3), (3, 3, 3, 1), (4, 4, 4), (3, 3, 5), (0, 0, 0)]:
        with pytest.raises(ValueError, match="cube with an odd side"):
            TrigPoly(np.zeros(shape))


def test_trig_poly_keeps_a_read_only_copy():
    box = np.zeros((3, 3, 3))
    poly = TrigPoly(box)
    box[1, 1, 1] = 5.0
    assert poly.box.dtype == complex
    assert poly.degree == 1
    assert poly(np.zeros(4)) == 0
    with pytest.raises(ValueError, match="read-only"):
        poly.box[1, 1, 1] = 1.0
    # a complex box is copied as well, and the caller's array stays writable
    box = np.zeros((3, 3, 3), dtype=complex)
    poly = TrigPoly(box)
    box[1, 1, 1] = 5.0
    assert poly(np.zeros(4)) == 0


def test_builders_keep_their_fresh_boxes(monkeypatch):
    # the builders make each box themselves, so their TrigPoly keeps it
    # without the constructor's copy (4.4 MB per box at n = 32)
    def copy(self):
        raise AssertionError("box copied")

    want = [build(one, 3)(np.zeros(4)) for build in BUILDERS.values()]
    monkeypatch.setattr(TrigPoly, "__post_init__", copy)
    assert [build(one, 3).poly(np.zeros(4)) for build in BUILDERS.values()] == want
    for poly in (fourier_coeffs(one, 2), BUILDERS["lnstar"](one, 2).poly):
        with pytest.raises(ValueError, match="read-only"):
            poly.box[0, 0, 0] = 1.0


def test_partial_sum_projection_idempotent():
    # S_n of a degree-n polynomial is the polynomial itself
    n = 2

    def f(t):
        return np.exp(np.sin(2.0 * np.pi * t[..., 0]) + np.cos(2.0 * np.pi * t[..., 3]))

    c1 = fourier_coeffs(f, n)
    c2 = fourier_coeffs(c1, n)
    assert np.abs(c1.box - c2.box).max() < 1e-10


def test_lebesgue_Sn_small():
    # a coarse rule keeps this cheap; the norm estimate exceeds 1 and grows
    # with the degree
    vals = [lebesgue_Sn(n, quad_order=16) for n in (1, 2, 3)]
    assert vals[0] > 1.0
    assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize(
    "n, quad", [(1, 8), (2, 8), (3, 8), (4, 6), (5, 7), (2, 3), (6, 4), (3, 2)]
)
def test_lebesgue_Sn_matches_direct_oracle(n, quad):
    # the mean over s of |D_n(t - s)| by explicit exponential sums, at t = 0
    # and at two other points of the s-grid, where the rule is the same
    # (translation invariance); odd q, q < 2n + 1 (frequencies alias on the
    # s-grid) and q = 2
    s = unit_cell_points(quad)
    got = lebesgue_Sn(n, quad_order=quad)
    for t in s[[0, 1, -1]]:
        want = float(np.abs(dirichlet_direct(n, t - s)).mean())
        assert abs(got - want) < 1e-12 * want


@pytest.mark.parametrize("rows", [1, 3])
def test_lebesgue_Sn_slabs_match_the_direct_oracle(rows, monkeypatch):
    # slabs of 1 and 3 rows u_0 (7 is not a multiple of 3) in place of one
    import fcctrig.transforms

    monkeypatch.setattr(fcctrig.transforms, "_CHUNK_ELEMENTS", rows * 7**2)
    s = unit_cell_points(7)
    want = float(np.abs(dirichlet_direct(3, -s)).mean())
    assert abs(lebesgue_Sn(3, quad_order=7) - want) < 1e-12 * want


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("n, q", [(3, 4), (2, 5), (1, 7), (4, 2)])
def test_cell_slabs_match_pointwise_evaluation(n, q, rows, monkeypatch):
    # q < 2n + 1 (frequencies alias on the grid), odd q and q = 2, in one
    # slab and in slabs of 1 and 3 rows u_0
    import fcctrig.transforms

    if rows is not None:
        monkeypatch.setattr(fcctrig.transforms, "_CHUNK_ELEMENTS", rows * max(q, 2 * n + 1) ** 2)
    rng = np.random.default_rng(n * 10 + q)
    poly = TrigPoly(rng.normal(size=(2 * n + 1,) * 3) + 1j * rng.normal(size=(2 * n + 1,) * 3))
    slabs = list(poly._cell_slabs(q))
    assert [len(s) for s in slabs[:-1]] == [rows or q] * (len(slabs) - 1)
    want = poly(unit_cell_points(q))
    assert np.abs(np.concatenate(slabs).ravel() - want).max() < 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dirichlet_and_theta_boxes(n):
    # D_n, the box lebesgue_Sn reads, is ones exactly at to_reduced(H_n*) + n.
    # theta_n = sum_{m < n} D_m with D_0 = 1; from n = 3 on some k' in its
    # box lie in no H_m*, m < n, and the count n - rho(k') goes negative
    want = np.zeros((2 * n + 1,) * 3, dtype=complex)
    want[tuple((to_reduced(generate_Hn_star(n)) + n).T)] = 1.0
    assert np.array_equal(_KERNEL_BOXES["dirichlet"](n).box, want)
    t = np.random.default_rng(n).uniform(-1.5, 1.5, size=(40, 4))
    t -= t.mean(axis=1, keepdims=True)
    got = _KERNEL_BOXES["theta"](n)(t)
    want = 1.0 + sum(dirichlet_direct(m, t) for m in range(1, n))
    tol = 1e-12 * max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() < tol
    assert np.abs(got - theta_n(n, t)).max() < tol



def test_lebesgue_Sn_grid_argument_is_deprecated_and_ignored():
    with pytest.warns(DeprecationWarning, match="grid_per_axis is ignored"):
        assert lebesgue_Sn(4, 3, 24) == lebesgue_Sn(4, quad_order=24)


@pytest.mark.parametrize("n", [0, -1])
def test_lebesgue_Sn_rejects_degree_below_one(n):
    with pytest.raises(ValueError, match="degree must be >= 1"):
        lebesgue_Sn(n, quad_order=8)


@pytest.mark.parametrize("n", [0, -1])
def test_fourier_coeffs_rejects_degree_below_one(n):
    # checked before the grid is sampled, as no set build checks it for it
    with pytest.raises(ValueError, match="degree must be >= 1"):
        fourier_coeffs(one, n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lebesgue_Sn(2, quad_order=64),
        lambda: lebesgue_Sn(16, quad_order=8),
        lambda: lebesgue_Sn(2, quad_order=256),
        lambda: fourier_coeffs(lambda t: np.exp(np.sin(2.0 * np.pi * t[..., 0])), 5),
        lambda: fourier_coeffs(lambda t: np.exp(np.sin(2.0 * np.pi * t[..., 0])), 8)(
            dodeca_grid(20)
        ),
    ],
    ids=["lebesgue_Sn", "lebesgue_Sn_wide_box", "lebesgue_Sn_q256", "fourier_coeffs",
         "partial_sum"],
)
def test_grid_sums_memory_is_bounded(call, monkeypatch):
    # scratch is bounded per chunk, not proportional to the grid: fourier_coeffs
    # and the partial sum would form points x frequencies matrices (about 284
    # and 602 MiB), and lebesgue_Sn at q = 256 one 256^3 array (256 MiB)
    # without its slabs of 16 rows u_0 (24 MiB measured).  In the wide-box
    # case 2n + 1 = 33 > q = 8, so the box side sizes the slab; one worker
    # keeps the peak independent of the CPU count
    monkeypatch.setenv("FCC_TRIG_THREADS", "1")
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * 2**20
