import tracemalloc

import numpy as np
import pytest

from fcctrig.boundary import congruent_orbit_index
from fcctrig.indexsets import (
    generate_Hn,
    generate_Hn_star,
    lambda_circ_nodes,
    lambda_nodes,
)
from fcctrig.interpolation import (
    BUILDERS,
    KINDS,
    Interpolant,
    dodeca_grid,
    ell_circ,
    ell_circ_ts_sum,
    ell_tri,
    ell_tri_tc_sum,
    from_node_values,
    interp_In,
    interp_In_star,
    interp_Ln,
    interp_Ln_star,
    lebesgue_interp,
    node_set,
    tetra_grid,
)
from fcctrig.kernels import K_n, dirichlet, dirichlet_product, phi_n_fund, phi_n_star, theta_n
from fcctrig.lattice import in_omega_H, phi
from fcctrig.symmetry import PERM_SIGNS, PERM_TABLE, project_minus
from fcctrig.transforms import fourier_coeffs
from fcctrig.trigbasis import tc, ts


def rand_t(rng, m):
    t = rng.uniform(-1.2, 1.2, size=(m, 4))
    return t - t.mean(axis=1, keepdims=True)


def smooth_probe(t):
    t = np.asarray(t)
    return np.exp(np.sin(2.0 * np.pi * t[..., 0])) + 0.5 * np.cos(
        2.0 * np.pi * (t[..., 1] - t[..., 2])
    )


def nonperiodic_probe(t):
    t = np.asarray(t)
    return np.exp(t[..., 0]) + 0.3 * t[..., 1] ** 2 - t[..., 2] * t[..., 3]


@pytest.mark.parametrize("n", [4, 5])
def test_ell_circ_matches_sine_expansion(n):
    rng = np.random.default_rng(40)
    t = rand_t(rng, 25)
    for j in lambda_circ_nodes(n):
        jt = tuple(int(v) for v in j)
        a = ell_circ(jt, n, t)
        b = ell_circ_ts_sum(jt, n, t)
        assert np.abs(a - b).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_ell_tri_matches_cosine_expansion(n):
    rng = np.random.default_rng(41)
    t = rand_t(rng, 25)
    for j in lambda_nodes(n):
        jt = tuple(int(v) for v in j)
        a = ell_tri(jt, n, t)
        b = ell_tri_tc_sum(jt, n, t)
        assert np.abs(a - b).max() < 1e-10


@pytest.mark.parametrize("n", [4, 5])
def test_ell_circ_cardinal_at_interior_nodes(n):
    nodes = lambda_circ_nodes(n)
    pts = nodes.astype(float) / (4.0 * n)
    for i, j in enumerate(nodes):
        vals = ell_circ(tuple(int(v) for v in j), n, pts)
        want = np.zeros(len(nodes))
        want[i] = 1.0
        assert np.abs(vals - want).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_ell_tri_cardinal_at_tetra_nodes(n):
    nodes = lambda_nodes(n)
    pts = nodes.astype(float) / (4.0 * n)
    for i, j in enumerate(nodes):
        vals = ell_tri(tuple(int(v) for v in j), n, pts)
        want = np.zeros(len(nodes))
        want[i] = 1.0
        assert np.abs(vals - want).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_antisymmetrizing_one_slot_suffices(n):
    # P-_t P-_s f(t-s) == P-_t f(t-s) when f is permutation-invariant;
    # this is what lets the sine-type kernel keep a single projector.
    rng = np.random.default_rng(47)
    t = rand_t(rng, 6)
    s = rand_t(rng, 6)
    for tv, sv in zip(t, s):
        one = project_minus(
            lambda tp: project_minus(lambda sp: dirichlet(n, tp - sp), sv), tv
        )
        two = project_minus(lambda tp: dirichlet(n, tp - sv), tv)
        assert abs(one - two) < 1e-10


def test_fundamental_functions_are_real():
    rng = np.random.default_rng(48)
    t = rand_t(rng, 30)
    assert np.isrealobj(ell_circ((4, 0, 0, -4), 4, t))
    assert np.isrealobj(ell_tri((3, -1, -1, -1), 2, t))
    assert np.abs(ell_circ_ts_sum((4, 0, 0, -4), 4, t).imag).max() < 1e-9
    assert np.abs(ell_tri_tc_sum((3, -1, -1, -1), 2, t).imag).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_interp_In_matches_arbitrary_data_at_nodes(n):
    rng = np.random.default_rng(42)
    nodes = node_set("in", n)
    data = {
        tuple(int(v) for v in k): complex(*rng.standard_normal(2)) for k in nodes
    }
    I = from_node_values("in", n, data)
    got = I(nodes.astype(float) / (4.0 * n))
    want = np.array([data[tuple(int(v) for v in k)] for k in nodes])
    assert np.abs(got - want).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_interp_In_reproduces_its_polynomial_space(n):
    rng = np.random.default_rng(43)
    kk = generate_Hn(n)
    coef = rng.standard_normal(len(kk)) + 1j * rng.standard_normal(len(kk))

    def f(t):
        acc = 0j
        for k, c in zip(kk, coef):
            acc = acc + c * phi(k, t)
        return acc

    I = interp_In(f, n)
    t = rand_t(rng, 20)
    assert np.abs(I(t) - f(t)).max() < 1e-9


def singular_probes(rng, m):
    t = rng.uniform(-0.4, 0.4, size=(m, 4))
    t[:, 0] = rng.integers(-2, 3, size=m) + rng.uniform(-1e-7, 1e-7, size=m)
    return t - t.mean(axis=1, keepdims=True)


def compact_fundamentals(kind, n, nodes, t):
    """ell_j(t) of every node from the compact kernels, shape (points, nodes)."""
    x = nodes.astype(float) / (4.0 * n)
    if kind == "in":
        return np.stack([phi_n_fund(n, t - xj) for xj in x], axis=-1)
    if kind == "instar":
        return np.stack([phi_n_star(n, t - xj) for xj in x], axis=-1)
    ell = ell_circ if kind == "ln" else ell_tri
    return np.stack([ell(tuple(int(v) for v in j), n, t) for j in nodes], axis=-1)


KIND_DEGREES = [
    (kind, n) for kind in ("in", "instar", "lnstar") for n in range(1, 6)
] + [("ln", n) for n in (4, 5, 6)]


@pytest.mark.parametrize("kind, n", KIND_DEGREES)
def test_interp_In_factorized_matches_kernel_sum(kind, n):
    # production evaluation of every kind is one FFT route over the weighted
    # frequency set; the compact fundamental-kernel sum is the oracle, on
    # random points, near-singular probes and the nodes themselves
    rng = np.random.default_rng(44)
    nodes = node_set(kind, n)
    vals = rng.standard_normal(len(nodes)) + 1j * rng.standard_normal(len(nodes))
    I = Interpolant(kind=kind, n=n, nodes=nodes, values=vals)
    t = np.vstack(
        [rand_t(rng, 30), singular_probes(rng, 10), nodes[:10].astype(float) / (4.0 * n)]
    )
    direct = compact_fundamentals(kind, n, nodes, t) @ vals
    assert np.abs(I(t) - direct).max() < 1e-12


@pytest.mark.parametrize(
    "kind, n, grid",
    [("in", 2, 4), ("instar", 2, 4), ("ln", 4, 5), ("lnstar", 2, 5)]
    # odd degrees: 4 is not a multiple of n, and the boundary frequencies
    # of H_n* share classes of the node group
    + [("in", 3, 5), ("in", 5, 4), ("instar", 3, 5), ("instar", 5, 4)]
    + [("ln", 5, 6), ("lnstar", 3, 5), ("lnstar", 5, 6)]
    # the degree the benchmark scans
    + [("instar", 8, 3), ("lnstar", 8, 5)],
)
def test_lebesgue_interp_matches_compact_abs_sum(kind, n, grid):
    pts = tetra_grid(grid) if kind in ("ln", "lnstar") else dodeca_grid(grid)
    ell = compact_fundamentals(kind, n, node_set(kind, n), pts)
    want = float(np.abs(ell).sum(axis=1).max())
    assert abs(lebesgue_interp(n, kind, grid_per_axis=grid) - want) < 1e-12 * want


@pytest.mark.parametrize(
    "build, n, grid",
    [
        (interp_In, 8, dodeca_grid(5)),
        (interp_Ln_star, 8, tetra_grid(7)),
        (interp_In, 16, dodeca_grid(20)),
    ],
    ids=["interp_In-grid0", "interp_Ln_star-grid1", "interp_In-16"],
)
def test_evaluation_memory_is_bounded(build, n, grid):
    # scratch is bounded per chunk, not proportional to nodes x frequencies
    # (the n = 8 cases needed 132 MB and 125 MB that way) or to the points
    # (interp_In at n = 16 on dodeca_grid(20) needs about 150 MiB unchunked)
    tracemalloc.start()
    try:
        build(smooth_probe, n)(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * 2**20


def test_evaluation_uses_the_coefficient_box(monkeypatch):
    # no kind falls back to the chunk pool of the Lebesgue scan
    import fcctrig._parallel
    import fcctrig.interpolation

    def boom(*args, **kwargs):
        raise AssertionError("per-point route used")

    for mod, name in [
        (fcctrig.interpolation, "map_chunks"),
        (fcctrig._parallel, "map_chunks"),
    ]:
        monkeypatch.setattr(mod, name, boom)
    t = dodeca_grid(4)
    for build in (interp_In, interp_In_star, interp_Ln, interp_Ln_star):
        assert np.all(np.isfinite(build(smooth_probe, 4)(t)))


def test_lebesgue_interp_memory_is_bounded(monkeypatch):
    # every array a chunk forms holds at most 2^20 complex numbers; about
    # 33 MiB and 52 MiB measured, against 96 MiB allowed
    monkeypatch.setenv("FCC_TRIG_THREADS", "1")
    for kind, grid in (("lnstar", 6), ("instar", 4)):
        tracemalloc.start()
        try:
            lebesgue_interp(16, kind, grid_per_axis=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96 * 2**20, (kind, peak)


def test_coefficient_box_is_built_once(monkeypatch):
    # the box is one fftn of the node values; later calls reuse it
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: calls.append(1) or fftn(*a, **k))
    I = interp_Ln_star(smooth_probe, 4)
    t = tetra_grid(3)
    first, second = I(t), I(t[:5])
    assert len(calls) == 1
    assert np.array_equal(first[:5], second)


@pytest.mark.parametrize("n", [2, 3])
def test_interp_In_star_node_behavior(n):
    # interior nodes interpolate; boundary nodes carry the plain sum of the
    # data over the congruence class, even for non-periodic data
    f = nonperiodic_probe
    I = interp_In_star(f, n)
    nodes = node_set("instar", n)
    got = I(nodes.astype(float) / (4.0 * n))
    want = np.array(
        [
            sum(
                f(np.array(s, dtype=float) / (4.0 * n))
                for s in congruent_orbit_index(k, n)
            )
            for k in nodes
        ]
    )
    assert np.abs(got - want).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("kind", KINDS)
def test_interpolant_output_lives_in_symmetric_space(kind, n):
    # every output is a polynomial with frequencies in the symmetric set, so
    # the degree-n partial sum reproduces it: box for box, and so at points
    I = BUILDERS[kind](smooth_probe, n)
    c = fourier_coeffs(I, n)
    assert c.degree == I.poly.degree == n
    assert np.abs(c.box - I.poly.box).max() < 1e-14
    rng = np.random.default_rng(45)
    t = rand_t(rng, 20)
    assert np.abs(c(t) - I(t)).max() < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_interp_In_star_reproduces_interior_fundamentals(n):
    # the invariant subspace of the symmetric operator: spans of fundamental
    # functions centered at interior nodes (data vanishing on the boundary
    # congruence classes is stable under the class-sum rule)
    from fcctrig.indexsets import generate_Hn_circ
    from fcctrig.kernels import phi_n_star

    rng = np.random.default_rng(46)
    inner = generate_Hn_circ(n)
    coef = rng.standard_normal(len(inner))

    def f(t):
        t = np.asarray(t, dtype=float)
        acc = 0.0
        for k, c in zip(inner, coef):
            acc = acc + c * phi_n_star(n, t - k.astype(float) / (4.0 * n))
        return acc

    I = interp_In_star(f, n)
    t = rand_t(rng, 20)
    assert np.abs(I(t) - f(t)).max() < 1e-9


@pytest.mark.parametrize("n", [4, 5])
def test_interp_Ln_reproduces_sine_span(n):
    rng = np.random.default_rng(47)
    circ = lambda_circ_nodes(n)
    coef = rng.standard_normal(len(circ))

    def f(t):
        acc = 0.0
        for k, c in zip(circ, coef):
            acc = acc + c * ts(tuple(int(v) for v in k), t)
        return acc

    I = interp_Ln(f, n)
    t = rand_t(rng, 15)
    assert np.abs(I(t) - f(t)).max() < 1e-9


@pytest.mark.parametrize("n", [4, 5])
def test_interp_Ln_matches_arbitrary_data_at_interior_nodes(n):
    rng = np.random.default_rng(48)
    nodes = node_set("ln", n)
    data = {tuple(int(v) for v in k): float(x) for k, x in zip(nodes, rng.standard_normal(len(nodes)))}
    I = from_node_values("ln", n, data)
    got = I(nodes.astype(float) / (4.0 * n))
    want = np.array([data[tuple(int(v) for v in k)] for k in nodes])
    assert np.abs(got - want).max() < 1e-9


def test_interp_Ln_zero_operator_below_degree_four():
    rng = np.random.default_rng(49)
    t = rand_t(rng, 10)
    for n in (2, 3):
        I = interp_Ln(smooth_probe, n)
        assert np.abs(I(t)).max() == 0.0
    with pytest.raises(ValueError):
        interp_Ln(smooth_probe, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_interp_Ln_star_reproduces_cosine_span(n):
    rng = np.random.default_rng(50)
    lam = lambda_nodes(n)
    coef = rng.standard_normal(len(lam))

    def f(t):
        acc = 0.0
        for k, c in zip(lam, coef):
            acc = acc + c * tc(tuple(int(v) for v in k), t)
        return acc

    I = interp_Ln_star(f, n)
    t = rand_t(rng, 15)
    assert np.abs(I(t) - f(t)).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_interp_Ln_star_matches_arbitrary_data_at_nodes(n):
    rng = np.random.default_rng(51)
    nodes = node_set("lnstar", n)
    data = {tuple(int(v) for v in k): float(x) for k, x in zip(nodes, rng.standard_normal(len(nodes)))}
    I = from_node_values("lnstar", n, data)
    got = I(nodes.astype(float) / (4.0 * n))
    want = np.array([data[tuple(int(v) for v in k)] for k in nodes])
    assert np.abs(got - want).max() < 1e-9


def test_interp_symmetry_of_tetrahedral_outputs():
    rng = np.random.default_rng(52)
    t = rand_t(rng, 10)
    n = 4
    C = interp_Ln_star(smooth_probe, n)
    S = interp_Ln(smooth_probe, n)
    c0, s0 = C(t), S(t)
    for p, sign in zip(PERM_TABLE, PERM_SIGNS):
        tp = t[..., p]
        assert np.abs(C(tp) - c0).max() < 1e-9
        assert np.abs(S(tp) - sign * s0).max() < 1e-9


def test_from_node_values_rejects_mismatched_keys():
    with pytest.raises(ValueError, match="node set"):
        from_node_values("in", 2, {(0, 0, 0, 0): 1.0})
    # extra keys are also a mismatch
    nodes = node_set("lnstar", 1)
    data = {tuple(int(v) for v in k): 0.0 for k in nodes}
    data[(99, 1, -1, -99)] = 1.0
    with pytest.raises(ValueError, match="node set"):
        from_node_values("lnstar", 1, data)


@pytest.mark.parametrize(
    "entry",
    [
        lambda: interp_Ln(smooth_probe, 1),
        lambda: lebesgue_interp(1, "ln", 2),
        lambda: from_node_values("ln", 1, {}),
    ],
    ids=["interp_Ln", "lebesgue_interp", "from_node_values"],
)
def test_sine_operator_rejects_degree_one(entry):
    # every entry point validates the degree the same way, in node_set
    with pytest.raises(ValueError, match="sine interpolation needs degree >= 2"):
        entry()


@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf)])
def test_from_node_values_rejects_non_finite_values(bad):
    nodes = node_set("lnstar", 2)
    data = {tuple(int(v) for v in k): 1.0 for k in nodes}
    key = tuple(int(v) for v in nodes[3])
    data[key] = bad
    with pytest.raises(ValueError, match=rf"node value at \({key[0]}, .* is not finite"):
        from_node_values("lnstar", 2, data)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tetra_grid(3.5),
        lambda: dodeca_grid(3.5),
        lambda: interp_Ln_star(smooth_probe, 2.5),
        lambda: node_set("ln", 2.5),
        lambda: lebesgue_interp(2, "in", 3.5),
        lambda: lebesgue_interp(2, "lnstar", 3.5),
        lambda: lebesgue_interp(2.5, "instar", 4),
        lambda: theta_n(2.5, np.zeros((1, 4))),
        lambda: K_n(2.5, np.zeros((1, 4))),
        lambda: dirichlet(2.5, np.zeros((1, 4))),
        lambda: dirichlet_product(2.5, np.zeros((1, 4))),
        lambda: ell_circ((6, 2, -2, -6), 2.5, np.zeros((1, 4))),
    ],
    ids=["tetra_grid", "dodeca_grid", "interp_Ln_star", "node_set", "lebesgue_in",
         "lebesgue_lnstar", "lebesgue_degree", "theta_n", "K_n", "dirichlet",
         "dirichlet_product", "ell_circ"],
)
def test_non_integer_degree_or_grid_is_rejected(call):
    # lebesgue_interp(2, "in", 3.5) used to return 4.1511 from a non-uniform
    # grid; dirichlet(2.5, 0) returned 111.0 and theta_n(1.5, 0) 5.0625
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


def test_numpy_integer_degree_and_grid_give_the_same_numbers():
    i = np.int64
    assert np.array_equal(tetra_grid(i(4)), tetra_grid(4))
    assert lebesgue_interp(i(2), "lnstar", i(4)) == lebesgue_interp(2, "lnstar", 4)
    t = tetra_grid(3)
    assert np.array_equal(interp_Ln_star(smooth_probe, i(3))(t), interp_Ln_star(smooth_probe, 3)(t))
    for kernel in (theta_n, K_n, dirichlet, dirichlet_product):
        assert np.array_equal(kernel(i(3), t), kernel(3, t))
    j = (6, 2, -2, -6)
    assert np.array_equal(ell_circ(j, i(4), t), ell_circ(j, 4, t))


def test_interpolants_compare_and_hash_by_identity():
    # == used to raise ValueError (ambiguous truth value of the arrays) and
    # hash TypeError (unhashable ndarray)
    a, b = interp_In(smooth_probe, 2), interp_In(smooth_probe, 2)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_build_keeps_the_dtype_of_f():
    # real samples stay real, at least float, and build the same bits as
    # their complex copies
    t = tetra_grid(4)
    real = interp_Ln_star(smooth_probe, 3)
    as_complex = interp_Ln_star(lambda s: smooth_probe(s) + 0j, 3)
    assert real.values.dtype == np.float64 and as_complex.values.dtype == np.complex128
    assert np.array_equal(real(t), as_complex(t))
    assert interp_In(lambda s: np.ones(s.shape[:-1], dtype=int), 2).values.dtype == np.float64


def test_build_takes_a_scalar_at_every_node():
    I = interp_Ln_star(lambda t: 2.5, 2)
    assert I.values.shape == (len(node_set("lnstar", 2)),)
    assert np.all(I.values == 2.5)
    t = tetra_grid(3)
    assert np.array_equal(I(t), interp_Ln_star(lambda t: np.full(t.shape[:-1], 2.5), 2)(t))


def test_build_rejects_values_of_the_wrong_shape():
    # a trailing axis used to build and then fail inside the first call
    with pytest.raises(ValueError, match=r"shape \(10, 1\).*expected \(10,\)"):
        interp_Ln_star(lambda t: np.ones(t.shape[:-1] + (1,)), 2)
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        interp_In(lambda t: np.ones(3), 2)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_build_rejects_non_finite_values(bad):
    # the same check as from_node_values, naming the node
    nodes = node_set("lnstar", 2)
    key = tuple(int(v) for v in nodes[3])

    def f(t):
        out = np.ones(t.shape[:-1])
        out[3] = bad
        return out

    with pytest.raises(ValueError, match=rf"node value at \({key[0]}, .* is not finite"):
        interp_Ln_star(f, 2)


def test_interpolant_call_shapes():
    I = interp_In_star(smooth_probe, 1)
    pt = np.array([0.1, 0.05, -0.05, -0.1])
    v = I(pt)
    assert np.shape(v) == ()
    batch = np.broadcast_to(pt, (2, 3, 4)).copy()
    vb = I(batch)
    assert vb.shape == (2, 3)
    assert np.abs(vb - v).max() < 1e-12


def test_interpolant_call_rejects_wrong_last_axis():
    I = interp_In_star(smooth_probe, 1)
    with pytest.raises(ValueError, match="4 coordinates"):
        I(np.zeros((5, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_interpolant_call_rejects_non_finite(bad):
    I = interp_Ln_star(smooth_probe, 2)
    pts = tetra_grid(2)
    pts[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        I(pts)


def test_interpolant_call_rejects_off_hyperplane():
    I = interp_In_star(lambda t: np.cos(np.asarray(t)[..., 0]), 2)
    t = np.array([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match="zero-sum"):
        I(t)
    # the projection onto the hyperplane is accepted, and so is rounding drift
    p = t - t.mean()
    assert np.isfinite(I(p))
    assert abs(I(p + 1e-12) - I(p)) < 1e-9


def test_tetra_grid_properties():
    g = 5
    pts = tetra_grid(g)
    # simplex count and membership in the closed tetrahedron
    assert len(pts) == (g + 1) * (g + 2) * (g + 3) // 6
    assert np.abs(pts.sum(axis=1)).max() < 1e-12
    assert (pts[:, 0] >= pts[:, 1] - 1e-12).all()
    assert (pts[:, 1] >= pts[:, 2] - 1e-12).all()
    assert (pts[:, 2] >= pts[:, 3] - 1e-12).all()
    assert (pts[:, 0] - pts[:, 3] <= 1.0 + 1e-12).all()
    # contains all four vertices
    verts = {
        (0.0, 0.0, 0.0, 0.0),
        (0.5, 0.5, -0.5, -0.5),
        (0.75, -0.25, -0.25, -0.25),
        (0.25, 0.25, 0.25, -0.75),
    }
    got = {tuple(np.round(p, 10)) for p in pts}
    assert verts <= got


def test_dodeca_grid_inside_domain():
    pts = dodeca_grid(6)
    assert pts.shape == (216, 4)
    assert in_omega_H(pts).all()


def test_lebesgue_estimates_exceed_one_on_node_hitting_grids():
    # grids that contain interpolation nodes bound the Lebesgue function
    # below by the cardinal value 1
    assert lebesgue_interp(4, "ln", grid_per_axis=4) >= 1.0 - 1e-9
    assert lebesgue_interp(2, "lnstar", grid_per_axis=2) >= 1.0 - 1e-9
    assert lebesgue_interp(2, "in", grid_per_axis=7) >= 1.0 - 1e-9
    assert lebesgue_interp(2, "instar", grid_per_axis=7) > 1.0
    assert lebesgue_interp(3, "ln", grid_per_axis=5) == 0.0
