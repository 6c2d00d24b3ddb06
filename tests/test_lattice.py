import itertools

import numpy as np
import pytest

import fcctrig.lattice
from fcctrig.indexsets import generate_Hn_star
from fcctrig.lattice import (
    A_MATRIX,
    H_MATRIX,
    U_MATRIX,
    _box,
    _box_slabs,
    _expsum,
    _expsum_rows,
    _phases,
    fold_to_omega_H,
    from_homogeneous,
    hindex,
    homo_point,
    in_closed_omega_H,
    in_omega_H,
    phi,
    to_homogeneous,
)


def rand_t(rng, m):
    t = rng.uniform(-1.5, 1.5, size=(m, 4))
    return t - t.mean(axis=1, keepdims=True)


def rand_lattice_vec(rng, m):
    # integer zero-sum quadruples
    z = rng.integers(-3, 4, size=(m, 3))
    return z @ H_MATRIX.T


def rand_hindex(rng):
    kp = rng.integers(-5, 6, size=3)
    s = int(kp.sum())
    return np.array([4 * kp[0] - s, 4 * kp[1] - s, 4 * kp[2] - s, -s], dtype=np.int64)


def test_constants_exact():
    assert np.array_equal(U_MATRIX.T @ U_MATRIX, np.eye(3))
    assert np.array_equal(U_MATRIX.T @ H_MATRIX, A_MATRIX.astype(float))
    assert round(abs(np.linalg.det(A_MATRIX.astype(float)))) == 2


def test_coordinate_round_trip():
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 3, size=(100, 3))
    assert np.abs(from_homogeneous(to_homogeneous(x)) - x).max() < 1e-12
    t = rand_t(rng, 100)
    assert np.abs(to_homogeneous(from_homogeneous(t)) - t).max() < 1e-12


def test_homo_point_zero_sum():
    t = homo_point([0.3, 0.5, -0.1, 0.1])
    assert abs(t.sum()) < 1e-15
    with pytest.raises(ValueError):
        homo_point([1.0, 2.0, 3.0])


def test_in_omega_half_open():
    assert in_omega_H(np.zeros(4))
    # t1 - t2 = 1 is kept, t1 - t2 = -1 is not
    assert in_omega_H(np.array([0.5, -0.5, 0.0, 0.0]))
    assert not in_omega_H(np.array([-0.5, 0.5, 0.0, 0.0]))
    assert in_closed_omega_H(np.array([-0.5, 0.5, 0.0, 0.0]))
    assert not in_closed_omega_H(np.array([1.0, -1.5, 0.25, 0.25]))


def test_domain_tests_match_the_pair_loop():
    # the loop over i < j that the difference test replaced, as reference;
    # eighths put many differences exactly on -1 and 1
    rng = np.random.default_rng(3)
    t = np.concatenate([rand_t(rng, 500), homo_point(rng.integers(-8, 9, (2000, 4)) / 8.0)])
    t = t.reshape(50, 50, 4)
    half_open = np.ones(t.shape[:-1], dtype=bool)
    closed = {tol: np.ones(t.shape[:-1], dtype=bool) for tol in (1e-12, 1e-9)}
    for i in range(4):
        for j in range(i + 1, 4):
            d = t[..., i] - t[..., j]
            half_open &= (d > -1.0) & (d <= 1.0)
            for tol, ok in closed.items():
                ok &= np.abs(d) <= 1.0 + tol
    assert 0 < half_open.sum() < half_open.size
    assert np.array_equal(in_omega_H(t), half_open)
    for tol, ok in closed.items():
        assert np.array_equal(in_closed_omega_H(t, tol), ok)


def test_domain_tests_on_differences_of_exactly_one():
    # slot a at 1/2 and slot b at -1/2: t_a - t_b = 1 exactly and every other
    # difference is 1/2 or 0, so only the half-open test tells the pairs apart
    pts, want = np.zeros((12, 4)), []
    for row, (a, b) in zip(pts, itertools.permutations(range(4), 2)):
        row[a], row[b] = 0.5, -0.5
        want.append(a < b)
    assert in_omega_H(pts).tolist() == want
    assert in_closed_omega_H(pts).all()
    assert not in_closed_omega_H(1.5 * pts).any()
    # one point at a time gives a scalar with the same answer
    assert [in_omega_H(t) for t in pts] == want
    assert np.shape(in_omega_H(pts[0])) == np.shape(in_closed_omega_H(pts[0])) == ()


def _straddling(s, rng):
    # rows whose max - min is exactly s, slots shuffled: -0.5 and s - 0.5
    # take the extremes, both exact for s near 1, so fl(max - min) = s
    rows = np.empty((8, 4))
    rows[:, :2] = (s - 0.5, -0.5)
    rows[:, 2:] = rng.uniform(-0.5, s - 0.5, (8, 2))
    return rng.permuted(rows, axis=1)


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
def test_closed_domain_is_the_pairwise_test(tol):
    # |t_i - t_j| <= 1 + tol for every pair is max t - min t <= 1 + tol;
    # spreads of exactly 1 and 1 + 1e-12, and one ulp to either side
    rng = np.random.default_rng(11)
    spreads = [np.nextafter(s, s + side) for s in (1.0, 1.0 + 1e-12) for side in (-1, 0, 1)]
    special = [[np.nan, 0, 0, 0], [0.5, np.nan, -0.5, 0], [np.inf, 0, 0, -np.inf],
               [np.inf, 0, 0, 0], [0, -np.inf, 0, 0], [np.inf] * 4, [-np.inf] * 4, [np.nan] * 4]
    t = np.concatenate([rand_t(rng, 20000), *(_straddling(s, rng) for s in spreads), special])
    with np.errstate(invalid="ignore"):
        d = [t[:, i] - t[:, j] for i, j in itertools.combinations(range(4), 2)]
        want = (np.abs(d) <= 1.0 + tol).all(axis=0)
        got = in_closed_omega_H(t, tol)
    assert np.array_equal(got, want)
    assert not got[-len(special):].any()
    # below, at and above 1, then 1 + 1e-12: each group all in or all out
    edges = want[20000:20048].reshape(6, 8)
    assert (edges == edges[:, :1]).all()
    assert edges[:, 0].tolist() == [True, True, tol > 0, tol > 0, tol >= 1e-12, tol > 1e-12]


def test_fold_lands_in_domain_and_is_idempotent():
    rng = np.random.default_rng(1)
    t = 5.0 * rand_t(rng, 500)
    ft = fold_to_omega_H(t)
    assert in_omega_H(ft).all()
    assert np.abs(fold_to_omega_H(ft) - ft).max() < 1e-10
    # the fold moves by a lattice vector
    diff = t - ft
    assert np.abs(diff - np.round(diff)).max() < 1e-9
    assert np.abs(diff.sum(axis=1)).max() < 1e-9


def test_fold_translation_invariant():
    rng = np.random.default_rng(2)
    t = rand_t(rng, 200)
    v = rand_lattice_vec(rng, 200)
    a = fold_to_omega_H(t + v)
    b = fold_to_omega_H(t)
    assert np.abs(a - b).max() < 1e-10


def test_phi_constant_for_zero_index():
    rng = np.random.default_rng(3)
    t = rand_t(rng, 50)
    assert np.abs(phi(np.zeros(4, dtype=int), t) - 1.0).max() < 1e-15


def test_phi_periodic_and_multiplicative():
    rng = np.random.default_rng(4)
    t = rand_t(rng, 100)
    v = rand_lattice_vec(rng, 100)
    for _ in range(10):
        k = rand_hindex(rng)
        m = rand_hindex(rng)
        assert np.abs(phi(k, t + v) - phi(k, t)).max() < 1e-10
        assert np.abs(phi(k, t) * phi(m, t) - phi(k + m, t)).max() < 1e-12


@pytest.mark.parametrize(
    "bad",
    [
        [1, 2, 3],  # wrong length
        [1, -1, 1, -1],  # not congruent mod 4
        [4, -4, 4, 0],  # nonzero sum
        [0.5, -0.5, 0.5, -0.5],  # not integer
    ],
)
def test_hindex_rejects(bad):
    with pytest.raises(ValueError):
        hindex(bad)
    with pytest.raises(ValueError):
        hindex(np.asarray(bad))


def test_hindex_names_the_bad_index_in_plain_integers():
    with pytest.raises(ValueError, match=r"^\(1, -1, 1, -1\) is not a valid frequency index$"):
        hindex([1, -1, 1, -1])


def test_hindex_accepts():
    assert np.array_equal(hindex([4, 0, 0, -4]), np.array([4, 0, 0, -4]))
    assert np.array_equal(hindex(np.array([3, -1, -1, -1])), [3, -1, -1, -1])


@pytest.mark.parametrize("chunk", [1, 7, 100, 200, 2**16, 2**20])
@pytest.mark.parametrize("shape", [(4,), (0, 4), (5, 4), (2, 3, 4)])
def test_expsum_rows_is_the_dense_weighted_sum_in_any_chunks(chunk, shape, monkeypatch):
    # blocks change only BLAS's blocking, by about 1e-17 relative; H_2* has
    # 65 rows, so a block of 200 phases holds 3 points and 2^16 all of them
    rng = np.random.default_rng(7)
    t = rng.uniform(-1.0, 1.0, size=shape)
    t -= t.mean(axis=-1, keepdims=True)
    kk = generate_Hn_star(2)
    w = rng.standard_normal(len(kk))
    want = (_expsum(kk, t) * w).sum(axis=-1)
    monkeypatch.setattr(fcctrig.lattice, "_PHASE_BLOCK", chunk)
    got = _expsum_rows(kk, w, t)
    assert got.shape == shape[:-1]
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(w).sum()
    assert np.array_equal(_expsum_rows(kk, 1.0, t), _expsum_rows(kk, np.ones(len(kk)), t))


def test_expsum_rows_reuses_one_block_of_at_most_2_16_phases(monkeypatch):
    blocks = []

    def spy(kk, t, out):
        blocks.append(out)
        return _phases(kk, t, out)

    monkeypatch.setattr(fcctrig.lattice, "_phases", spy)
    kk = generate_Hn_star(8)  # 2,465 rows: 26 points a block
    t = np.zeros((1000, 4))
    assert np.allclose(_expsum_rows(kk, 1.0, t), len(kk))
    assert len(blocks) == -(-1000 // 26)
    assert max(b.size for b in blocks) == 26 * 2465 <= 2**16
    assert all(b.base is blocks[0].base for b in blocks)


def test_phases_write_the_exponentials_in_place():
    rng = np.random.default_rng(8)
    kk, t = generate_Hn_star(2), rand_t(rng, 9)
    out = np.empty((9, len(kk)), dtype=complex)
    assert _phases(kk, t, out) is out
    assert np.array_equal(out, np.exp(0.5j * np.pi * (t @ kk.T.astype(float))))
    assert np.array_equal(_expsum(kk, t), out)


@pytest.mark.parametrize("lo, hi", [(0, 0), (-2, 3), (-5, 5)])
@pytest.mark.parametrize("rows", [1, 36, 100, 10**6])
def test_box_slabs_are_the_box_in_whole_planes(lo, hi, rows):
    side = hi - lo + 1
    slabs = list(_box_slabs(lo, hi, rows))
    assert np.array_equal(np.concatenate(slabs), _box(lo, hi))
    assert all(len(s) % side**2 == 0 for s in slabs)
    assert max(len(s) for s in slabs) == max(1, min(side, rows // side**2)) * side**2
