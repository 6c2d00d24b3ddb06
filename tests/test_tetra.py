import numpy as np
import pytest

from fcctrig.indexsets import lambda_nodes, to_reduced
from fcctrig.interpolation import interp_Ln_star, regular_interpolate, tetra_grid
from fcctrig.lattice import from_homogeneous, to_homogeneous
from fcctrig.tetra import (
    TETRA_TOL,
    in_tetra_H,
    point_h_to_regular,
    point_regular_to_h,
)


@pytest.mark.parametrize("shape", [(2,), (5, 4), ()])
def test_point_regular_to_h_needs_three_coordinates(shape):
    # a 2-coordinate x used to fail later, asking for 4 coordinates
    with pytest.raises(ValueError, match="regular points need 3 coordinates"):
        point_regular_to_h(np.zeros(shape))
    with pytest.raises(ValueError, match="regular points need 3 coordinates"):
        regular_interpolate(lambda x: x[..., 0], 2, np.zeros(shape))


def test_point_maps_round_trip():
    rng = np.random.default_rng(60)
    t = rng.uniform(-1, 1, size=(50, 4))
    t -= t.mean(axis=1, keepdims=True)
    assert np.abs(point_regular_to_h(point_h_to_regular(t)) - t).max() < 1e-12
    x = rng.uniform(0, 1, size=(50, 3))
    assert np.abs(point_h_to_regular(point_regular_to_h(x)) - x).max() < 1e-12


def in_regular(x):
    """Membership in the regular chart, through its map to the homogeneous one."""
    return in_tetra_H(point_regular_to_h(x))


def in_cartesian(x):
    """Membership in the Cartesian chart, through its map to the homogeneous one."""
    return in_tetra_H(to_homogeneous(x))


def test_membership_consistency_across_charts():
    rng = np.random.default_rng(61)
    x = rng.uniform(-0.3, 1.3, size=(500, 3))
    t = point_regular_to_h(x)
    # the corner simplex 0 <= x3 <= x2 <= x1 <= 1, written out
    corner = ((x[:, 2] >= -TETRA_TOL) & (x[:, 1] >= x[:, 2] - TETRA_TOL)
              & (x[:, 0] >= x[:, 1] - TETRA_TOL) & (x[:, 0] <= 1.0 + TETRA_TOL))
    assert np.array_equal(in_regular(x), corner)
    assert np.array_equal(in_tetra_H(t), corner)
    # the Cartesian region is the projection of the homogeneous simplex,
    # cut out by 0 <= x3 +- x2 <= 1 and 0 <= x2 +- x1 <= 1
    c = from_homogeneous(t)
    cut = np.stack([c[:, 2] - c[:, 1], c[:, 2] + c[:, 1], c[:, 1] - c[:, 0], c[:, 1] + c[:, 0]])
    inside = ((cut >= -TETRA_TOL) & (cut <= 1.0 + TETRA_TOL)).all(axis=0)
    assert np.array_equal(in_cartesian(c), inside)
    assert np.array_equal(in_cartesian(c), in_tetra_H(t))


@pytest.mark.parametrize(
    "call, shape",
    [(in_tetra_H, (5, 3)), (in_tetra_H, (5, 5)), (in_tetra_H, ()),
     (point_h_to_regular, (5, 1)), (point_h_to_regular, (5, 3)), (point_h_to_regular, ()),
     (in_regular, (5, 4)), (in_cartesian, (5, 4))],
)
def test_membership_and_chart_maps_check_the_last_axis(call, shape):
    # in_tetra_H used to raise IndexError on (5, 3), point_h_to_regular to
    # return shape (5, 0) on (5, 1), and the regular and Cartesian tests to
    # accept 4 columns
    with pytest.raises(ValueError, match="coordinates"):
        call(np.zeros(shape))


def test_tetra_grid_is_inside():
    pts = tetra_grid(6)
    assert in_tetra_H(pts).all()
    assert in_regular(point_h_to_regular(pts)).all()


def test_node_points_inside_regular_simplex():
    n = 3
    xs = to_reduced(lambda_nodes(n)).astype(float) / n
    assert in_regular(xs).all()
    assert (xs >= 0).all() and (xs <= 1).all()


def test_cartesian_region_vertices():
    verts = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.5],
            [-0.5, 0.5, 0.5],
        ]
    )
    assert in_cartesian(verts).all()
    outside = np.array([[0.6, 0.5, 0.5], [0.0, 0.0, 1.1], [0.0, -0.1, 0.0]])
    assert not in_cartesian(outside).any()


def test_regular_interpolate_matches_homogeneous_route():
    n = 3

    def f3(x):
        return np.cos(np.pi * x[..., 0]) + x[..., 1] * (1.0 - x[..., 2])

    rng = np.random.default_rng(62)
    x = rng.uniform(0, 1, size=(40, 3))
    x = x[in_regular(x)]
    got = regular_interpolate(f3, n, x)

    def f4(t):
        return f3(point_h_to_regular(t))

    I = interp_Ln_star(f4, n)
    want = I(point_regular_to_h(x))
    assert np.abs(got - want).max() < 1e-12


def test_regular_interpolate_hits_node_data():
    n = 2

    def f3(x):
        return np.sin(x[..., 0] + 2.0 * x[..., 1]) + x[..., 2]

    xs = to_reduced(lambda_nodes(n)).astype(float) / n
    got = regular_interpolate(f3, n, xs)
    assert np.abs(got - f3(xs)).max() < 1e-9
