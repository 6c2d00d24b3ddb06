import numpy as np
import pytest

from fcctrig.symmetry import (
    G_MINUS,
    G_PLUS,
    PERM_SIGNS,
    PERM_TABLE,
    orbit,
    orbit_size,
    project_minus,
    project_plus,
)

ROWS = {tuple(p) for p in PERM_TABLE.tolist()}


def _sign(p) -> float:
    """Parity computed independently of the table: det of the permutation matrix."""
    return round(np.linalg.det(np.eye(4)[p]))


def test_group_roster():
    assert PERM_TABLE.shape == (24, 4) and PERM_TABLE.dtype == np.int64
    assert PERM_SIGNS.shape == (24,) and PERM_SIGNS.dtype == np.float64
    assert len(ROWS) == 24
    assert all(sorted(p) == [0, 1, 2, 3] for p in ROWS)
    assert PERM_TABLE[0].tolist() == [0, 1, 2, 3]
    assert np.array_equal(G_PLUS, PERM_TABLE[:12])
    assert np.array_equal(G_MINUS, PERM_TABLE[12:])
    for table in (PERM_TABLE, PERM_SIGNS, G_PLUS, G_MINUS):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_group_axioms():
    # closure: acting by a then by b is acting by the row a[b]
    for a in PERM_TABLE:
        for b in PERM_TABLE:
            assert tuple(a[b].tolist()) in ROWS
        assert tuple(np.argsort(a).tolist()) in ROWS
        assert np.array_equal(a[np.argsort(a)], PERM_TABLE[0])


def test_parity_is_a_homomorphism():
    sign = dict(zip(map(tuple, PERM_TABLE.tolist()), PERM_SIGNS))
    for a in PERM_TABLE:
        for b in PERM_TABLE:
            ab = tuple(a[b].tolist())
            assert sign[ab] == sign[tuple(a.tolist())] * sign[tuple(b.tolist())]


def test_signs_are_parities():
    assert PERM_SIGNS.tolist() == [_sign(p) for p in PERM_TABLE]
    assert PERM_SIGNS.sum() == 0
    # within each parity class the rows keep itertools.permutations order
    for block in (G_PLUS, G_MINUS):
        keys = [tuple(p) for p in block.tolist()]
        assert keys == sorted(keys)


def test_transposition_and_apply():
    # the six transpositions are the odd rows that fix two slots; applied
    # as t[..., row] they swap the other two coordinates
    t = np.array([10.0, 20.0, 30.0, 40.0])
    swaps = [p for p in PERM_TABLE if (p != np.arange(4)).sum() == 2]
    assert len(swaps) == 6
    for p in swaps:
        assert PERM_SIGNS[(PERM_TABLE == p).all(axis=1)].tolist() == [-1.0]
        i, j = np.flatnonzero(p != np.arange(4))
        want = t.copy()
        want[[i, j]] = want[[j, i]]
        assert t[p].tolist() == want.tolist()


def test_action_composes_contravariantly():
    # t acted by a, then by b, equals t acted by the composed row a[b]
    rng = np.random.default_rng(1)
    t = rng.standard_normal((5, 4))
    for a in PERM_TABLE[:6]:
        for b in PERM_TABLE[10:16]:
            assert np.array_equal(t[..., a][..., b], t[..., a[b]])
    imgs = t[..., PERM_TABLE]
    assert imgs.shape == (5, 24, 4)
    for i, p in enumerate(PERM_TABLE):
        assert np.array_equal(imgs[:, i], t[:, p])


def test_orbit_sizes():
    assert orbit_size((0, 0, 0, 0)) == 1
    assert orbit_size((1, 1, -1, -1)) == 6
    assert orbit_size((3, -1, -1, -1)) == 4
    assert orbit_size((2, 1, 1, -4)) == 12
    assert orbit_size((3, 2, -1, -4)) == 24
    for k in [(0, 0, 0, 0), (2, 1, 1, -4), (3, 2, -1, -4)]:
        orb = orbit(k)
        assert len(orb) == orbit_size(k)
        assert len(set(orb)) == len(orb)
        assert all(type(v) is int for m in orb for v in m)


@pytest.mark.parametrize("bad", [[[4, 0], [0, -4]], [1.5, 0, 0, -1.5]])
def test_orbit_needs_four_integers(bad):
    # these used to give 12 tuples and a silently truncated orbit
    for call in (orbit, orbit_size):
        with pytest.raises(ValueError, match="4 integer entries"):
            call(bad)


def test_permuted_index_stays_valid():
    k = np.array([6, 2, -2, -6])
    for kk in k[PERM_TABLE]:
        assert kk.sum() == 0
        assert np.all(kk % 4 == kk[0] % 4)


def test_projectors():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((50, 4))

    def f(u):
        return np.sin(u[..., 0]) + 2.0 * np.cos(u[..., 1] * u[..., 2]) + u[..., 3] ** 3

    sym = project_plus(f, t)
    alt = project_minus(f, t)
    # P+ is invariant and P- alternates under every permutation
    for p, s in zip(PERM_TABLE, PERM_SIGNS):
        tp = t[..., p]
        assert np.abs(project_plus(f, tp) - sym).max() < 1e-12
        assert np.abs(project_minus(f, tp) - s * alt).max() < 1e-12
    # plus and minus parts are complementary projections of the group mean
    both = project_plus(f, t) + project_minus(f, t)
    even_part = sum(f(t[..., p]) for p in G_PLUS) / 12.0
    assert np.abs(both - even_part).max() < 1e-12
    # applied twice, each projection is itself
    assert np.abs(project_plus(lambda u: project_plus(f, u), t) - sym).max() < 1e-12
    assert np.abs(project_minus(lambda u: project_minus(f, u), t) - alt).max() < 1e-12
