from fractions import Fraction

import numpy as np
import pytest

from fcctrig import trigbasis
from fcctrig.indexsets import lambda_circ_nodes, lambda_nodes
from fcctrig.symmetry import PERM_SIGNS, PERM_TABLE, orbit_size
from fcctrig.trigbasis import (
    _compact_rows,
    tc,
    tc_direct,
    tc_orthogonality_value,
    ts,
    ts_direct,
)


def rand_t(rng, m):
    t = rng.uniform(-1.5, 1.5, size=(m, 4))
    return t - t.mean(axis=1, keepdims=True)


def monotone_indices(n):
    return [tuple(int(v) for v in k) for k in lambda_nodes(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tc_matches_orbit_mean(n):
    rng = np.random.default_rng(20)
    t = rand_t(rng, 60)
    for k in monotone_indices(n):
        assert np.abs(tc(k, t) - tc_direct(k, t)).max() < 1e-11


@pytest.mark.parametrize("n", [4, 5])
def test_ts_matches_antisymmetrization(n):
    rng = np.random.default_rng(21)
    t = rand_t(rng, 60)
    for k in lambda_circ_nodes(n):
        kt = tuple(int(v) for v in k)
        assert np.abs(ts(kt, t) - ts_direct(kt, t)).max() < 1e-11


def test_tc_zero_index_is_one():
    rng = np.random.default_rng(22)
    t = rand_t(rng, 30)
    assert np.abs(tc((0, 0, 0, 0), t) - 1.0).max() < 1e-12


def test_tc_symmetric_ts_antisymmetric():
    rng = np.random.default_rng(23)
    t = rand_t(rng, 30)
    k_c = (8, 4, 0, -12)
    k_s = (9, 1, -3, -7)
    base_c = tc(k_c, t)
    base_s = ts(k_s, t)
    for p, sign in zip(PERM_TABLE, PERM_SIGNS):
        tp = t[..., p]
        assert np.abs(tc(k_c, tp) - base_c).max() < 1e-11
        assert np.abs(ts(k_s, tp) - sign * base_s).max() < 1e-11


def test_ts_vanishes_on_reflection_walls():
    # fixed points of a transposition lie on a reflection wall, where every
    # alternating function vanishes
    rng = np.random.default_rng(24)
    t = rand_t(rng, 30)
    t[:, 1] = t[:, 0]
    t -= t.mean(axis=1, keepdims=True)
    assert np.abs(ts((9, 1, -3, -7), t)).max() < 1e-11


def test_ts_rejects_repeated_entries():
    with pytest.raises(ValueError):
        ts((4, 4, -4, -4), np.zeros(4))
    with pytest.raises(ValueError):
        ts_direct((4, 4, -4, -4), np.zeros(4))


def test_rejects_unsorted_index():
    with pytest.raises(ValueError):
        tc((0, 4, 0, -4), np.zeros(4))
    with pytest.raises(ValueError):
        ts((2, 6, -2, -6), np.zeros(4))


@pytest.mark.parametrize(
    "k, want",
    [
        ((0, 0, 0, 0), Fraction(1, 1)),
        ((3, -1, -1, -1), Fraction(1, 4)),
        ((4, 4, -4, -4), Fraction(1, 6)),
        ((5, 1, 1, -7), Fraction(1, 12)),
        ((6, 2, -2, -6), Fraction(1, 24)),
    ],
)
def test_tc_orthogonality_value(k, want):
    assert tc_orthogonality_value(k) == want
    assert want == Fraction(1, orbit_size(k))


@pytest.mark.parametrize("c", [0.3, -1.7, 6.25])
def test_tc_ts_ignore_a_shift_like_the_orbit_sums(c):
    # phi_k with k in H ignores t + c (1, 1, 1, 1); the compact form did not
    # while s was t_a + t_b: at the point below, shifted by 0.3, TC_(8,4,-4,-8)
    # read -0.0980 against 0.1330, and TS_(12,4,-4,-12) had the wrong sign
    rng = np.random.default_rng(26)
    t = np.vstack([[0.1, 0.2, -0.05, -0.25], rand_t(rng, 40)]) + c
    for k in monotone_indices(5):
        assert np.abs(tc(k, t) - tc_direct(k, t)).max() < 1e-12
    for k in lambda_circ_nodes(6):
        assert np.abs(ts(k, t) - ts_direct(k, t)).max() < 1e-12


@pytest.mark.parametrize("shape", [(4,), (2, 3, 4), (0, 4)])
def test_tc_ts_take_the_shape_of_t(shape):
    t = np.random.default_rng(27).uniform(-1, 1, size=shape)
    t -= t.mean(axis=-1, keepdims=True)
    for f, k in ((tc, (8, 4, -4, -8)), (ts, (12, 4, -4, -12))):
        v = f(k, t)
        assert np.shape(v) == shape[:-1]
        # one point gives a NumPy scalar, as phi does
        assert type(v) is (np.complex128 if shape == (4,) else np.ndarray)


def test_rows_form_is_tc_and_ts_per_column():
    rng = np.random.default_rng(28)
    t = rand_t(rng, 15).reshape(3, 5, 4)
    ks = lambda_nodes(8)
    got = _compact_rows(ks, t, np.cos)
    assert got.shape == (3, 5, len(ks))
    for j, k in enumerate(ks):
        assert np.abs(got[..., j] - tc(k, t)).max() < 1e-14
    ks = lambda_circ_nodes(8)
    got = _compact_rows(ks, t, np.sin)
    for j, k in enumerate(ks):
        assert np.abs(got[..., j] - ts(k, t)).max() < 1e-14


def test_pairings_give_s_u_v_of_each_pairing():
    t = np.array([1.0, 10.0, 100.0, 1000.0])
    s, u, v = (t @ trigbasis._PAIRINGS).reshape(3, 3)
    assert s.tolist() == [(11 - 1100) / 2, (101 - 1010) / 2, (1001 - 110) / 2]
    assert u.tolist() == [1 - 10, 1 - 100, 1 - 1000]
    # the printed cyclic orientation t3 - t4, t4 - t2, t2 - t3
    assert v.tolist() == [100 - 1000, 1000 - 10, 10 - 100]
