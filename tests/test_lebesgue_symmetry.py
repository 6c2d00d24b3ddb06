"""The symmetries of the Lebesgue function that ``lebesgue_interp`` scans by.

Lambda = sum_j |ell_j| of every kind is invariant under translations by
zero-sum integer vectors and under t -> -t rho (rho reverses the four
coordinates); that of every kind but ``in`` is S4-invariant as well.  The
scan evaluates one grid point per class under these maps, so its maximum
is the grid maximum only while they hold.
"""

import numpy as np
import pytest

from fcctrig.indexsets import _from_reduced, _weight_box
from fcctrig.interpolation import (
    KINDS,
    _KINDS,
    _lebesgue_function,
    _representatives,
    dodeca_grid,
    node_set,
    tetra_grid,
)
from fcctrig.symmetry import PERM_TABLE


def seeded_points(seed, m=40):
    t = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(m, 4))
    return t - t.mean(axis=1, keepdims=True)


def close(a, b):
    return np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(a).max())


# ln has no nodes below degree 4, so its Lambda vanishes at n = 3
KIND_DEGREES = [(kind, n) for kind in KINDS for n in ((4, 5) if kind == "ln" else (3, 5))]


@pytest.mark.parametrize("kind, n", KIND_DEGREES)
def test_lebesgue_function_keeps_its_symmetries(kind, n):
    rng = np.random.default_rng(10 * KINDS.index(kind) + n)
    t = seeded_points(70 + n)
    lam = _lebesgue_function(n, kind, t)
    assert lam.max() > 0.5
    h = rng.integers(-3, 4, size=(len(t), 4))
    h[:, 3] = -h[:, :3].sum(axis=1)
    assert close(lam, _lebesgue_function(n, kind, t + h))
    assert close(lam, _lebesgue_function(n, kind, -t[:, ::-1]))
    if _KINDS[kind].s4:
        sigma = PERM_TABLE[rng.integers(1, 24, size=len(t))]
        assert close(lam, _lebesgue_function(n, kind, np.take_along_axis(t, sigma, axis=1)))


def test_lebesgue_function_of_in_is_not_s4_invariant():
    # H_n is half open, so its node set is not closed under S4
    assert not _KINDS["in"].s4
    t = seeded_points(73)
    lam = _lebesgue_function(3, "in", t)
    swapped = _lebesgue_function(3, "in", t[:, [1, 0, 2, 3]])
    assert np.abs(lam - swapped).max() > 1e-2


@pytest.mark.parametrize(
    "kind, n", [(kind, n) for kind in KINDS for n in range(1 + (kind == "ln"), 9)]
)
def test_node_and_frequency_sets_are_closed_under_minus_reversal(kind, n):
    # -S rho = S exactly, with equal weights at k and -k rho; the frequency
    # side is the nonzero entries of the kind's weight box
    spec = _KINDS[kind]
    box = _weight_box(spec.rule, n)
    for rows, weights in ((node_set(kind, n), spec.factor(n)),
                          (_from_reduced(np.argwhere(box) - n), box[box != 0])):
        w = np.broadcast_to(weights, len(rows))
        table = dict(zip(map(tuple, rows.tolist()), w.tolist()))
        flipped = dict(zip(map(tuple, (-rows[:, ::-1]).tolist()), w.tolist()))
        assert flipped == table


@pytest.mark.parametrize("kind, grid, count", [("lnstar", tetra_grid(6), 50),
                                               ("instar", dodeca_grid(4), 8)])
def test_representative_counts(kind, grid, count):
    rep, cls = _representatives(grid, _KINDS[kind].s4)
    assert len(rep) == count
    assert cls.shape == (len(grid),)
    assert np.array_equal(cls[rep], np.arange(count))


@pytest.mark.parametrize("kind, n, grid", [("in", 3, 5), ("instar", 3, 5), ("instar", 4, 8),
                                           ("ln", 5, 6), ("lnstar", 3, 6), ("lnstar", 4, 8)])
def test_every_grid_point_has_its_representatives_value(kind, n, grid):
    spec = _KINDS[kind]
    pts = spec.grid(grid)
    rep, cls = _representatives(pts, spec.s4)
    assert len(rep) < len(pts)
    lam = _lebesgue_function(n, kind, pts)
    assert close(lam, lam[rep][cls])
