import numpy as np
import pytest

from fcctrig.boundary import (
    boundary_slots,
    classify,
    classify_index,
    congruent_orbit,
    congruent_orbit_index,
)
from fcctrig.indexsets import _from_reduced, class_sizes, generate_Hn_star
from fcctrig.lattice import _box, _rows, fold_to_omega_H, phi

OUTSIDE = "index outside the closed node set for this degree"


def slots_by_pairs(kk, n):
    # the N x 4 x 4 difference form the row extremes replaced, kept as their oracle
    kk = _rows(kk)
    d = kk[:, :, None] - kk[:, None, :]
    if np.any(np.abs(d) > 4 * n):
        raise ValueError(OUTSIDE)
    hit = d == 4 * n
    return hit.any(axis=2), hit.any(axis=1)


def test_classify_interior():
    assert classify([0.0, 0.0, 0.0, 0.0]) == (frozenset(), frozenset())
    assert classify([0.2, 0.1, -0.1, -0.2]) == (frozenset(), frozenset())


def test_classify_face_edge_vertex():
    # one active difference: a face
    assert classify([0.5, -0.5, 0.1, -0.1]) == (frozenset({1}), frozenset({2}))
    # (2,1) edge: t1 = t2 = t3 + 1
    assert classify([0.4, 0.4, -0.6, -0.2]) == (frozenset({1, 2}), frozenset({3}))
    # (1,2) edge
    assert classify([0.6, -0.4, -0.4, 0.2]) == (frozenset({1}), frozenset({2, 3}))
    # (2,2) vertex t = (1/2, 1/2, -1/2, -1/2)
    assert classify([0.5, 0.5, -0.5, -0.5]) == (frozenset({1, 2}), frozenset({3, 4}))
    # (1,3) vertex t = (3/4, -1/4, -1/4, -1/4)
    assert classify([0.75, -0.25, -0.25, -0.25]) == (
        frozenset({1}),
        frozenset({2, 3, 4}),
    )


def test_classify_rejects_outside():
    with pytest.raises(ValueError):
        classify([1.5, -0.5, -0.5, -0.5])


def test_classify_index_matches_float():
    n = 3
    for k in generate_Hn_star(n):
        I, J = classify_index(k, n)
        If, Jf = classify(np.asarray(k, dtype=float) / (4 * n))
        assert (I, J) == (If, Jf)


def test_classify_index_rejects_outside():
    with pytest.raises(ValueError):
        classify_index([8, 0, 0, -8], 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_boundary_slots_equal_the_pair_form(n):
    # every row of the reduced (2n+3)^3 box within H_n*, then each row of
    # spread 4n + 4, which both forms reject with the same message
    kk = _from_reduced(_box(-n - 1, n + 1))
    spread = kk.max(axis=1) - kk.min(axis=1)
    inside = kk[spread <= 4 * n]
    assert len(inside) == (n + 1) ** 4 - n**4
    got, want = boundary_slots(inside, n), slots_by_pairs(inside, n)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert got[0].any() and not got[0].all()
    beyond = kk[spread == 4 * n + 4]
    assert len(beyond)
    for row in beyond:
        for form in (boundary_slots, slots_by_pairs):
            with pytest.raises(ValueError, match=f"^{OUTSIDE}$"):
                form(row, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_congruent_orbit_index_properties(n):
    for k in generate_Hn_star(n):
        orb = congruent_orbit_index(k, n)
        assert len(orb) == class_sizes(k, n)[0]
        assert orb[0] == tuple(int(v) for v in k)
        # congruent partners differ by 4n times a zero-sum integer vector
        for m in orb:
            d = np.asarray(m) - np.asarray(k)
            assert np.all(d % (4 * n) == 0)
            assert d.sum() == 0


def test_congruent_orbit_folds_to_same_point():
    # every partner of t is t modulo the period lattice
    n = 4
    for k in generate_Hn_star(n):
        t = np.asarray(k, dtype=float) / (4 * n)
        for s in congruent_orbit(t):
            assert np.abs(fold_to_omega_H(s) - fold_to_omega_H(t)).max() < 1e-9


@pytest.mark.parametrize(
    "point",
    [
        [0.5, -0.5, 0.1, -0.1],
        [0.4, 0.4, -0.6, -0.2],
        [0.5, 0.5, -0.5, -0.5],
        [0.75, -0.25, -0.25, -0.25],
    ],
)
def test_phi_constant_on_congruence_class(point):
    # lattice-periodic exponentials cannot tell congruent partners apart
    orb = congruent_orbit(point)
    for k in ([4, 0, 0, -4], [3, -1, -1, -1], [6, 2, -2, -6]):
        vals = [phi(np.asarray(k), np.asarray(s)) for s in orb]
        assert max(abs(v - vals[0]) for v in vals) < 1e-9


def test_congruent_orbit_merges_images_closer_than_1e_10():
    # the (2, 2) vertex a hair off: its 24 slot permutations are 6 partners
    t = np.array([0.5, 0.5, -0.5, -0.5]) + np.array([1, -1, 1, -1]) * 1e-13
    orb = congruent_orbit(t)
    assert len(orb) == 6
    assert np.abs(orb[0] - t).max() < 1e-15


@pytest.mark.parametrize("eps", [1e-13, 3e-11, 3e-10, 4.5e-10])
def test_congruent_orbit_counts_partners_wherever_classify_accepts(eps):
    # classify accepts t_i - t_j = 1 within CLASSIFY_TOL = 1e-9, so at 4.5e-10
    # the pairs (1, 4) and (2, 3) are off by 9e-10 and still on the vertex;
    # images were merged within 1e-10 only, which gave 24 partners at 3e-10
    t = np.array([0.5, 0.5, -0.5, -0.5]) + np.array([1, -1, 1, -1]) * eps
    assert classify(t) == (frozenset({1, 2}), frozenset({3, 4}))
    assert len(congruent_orbit(t)) == 6


def test_congruent_orbit_interior_is_singleton():
    orb = congruent_orbit([0.1, 0.05, -0.05, -0.1])
    assert len(orb) == 1
