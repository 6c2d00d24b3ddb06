"""Maps between the homogeneous tetrahedron and its R^3 realizations.

Three coordinatizations of the same simplex show up:

* homogeneous: 0 <= t1-t2, t2-t3, t3-t4 and t1-t4 <= 1 (zero-sum t);
* regular (corner) coordinates: 0 <= x3 <= x2 <= x1 <= 1, reached by
  x_i = t_i - t_4, node indices j become (k1,k2,k3)/n with
  0 <= k3 <= k2 <= k1 <= n, (k1,k2,k3) = ``indexsets.to_reduced(j)``;
* Cartesian: the image of the homogeneous simplex under the lattice
  projection, cut out by 0 <= x3 +- x2 <= 1 and 0 <= x2 +- x1 <= 1.

The interpolation and cubature operators live on the homogeneous form;
this module moves points to and from the other two.  Membership has one
test, ``in_tetra_H``; a point of another chart goes through that chart's
map first: ``in_tetra_H(point_regular_to_h(x))`` for regular points and
``in_tetra_H(lattice.to_homogeneous(x))`` for Cartesian ones.  Every map
checks its points with ``lattice._points``, so points of the wrong chart
raise a ValueError naming the chart the map expected.
"""

from __future__ import annotations

import numpy as np

from .lattice import _points

# slack of the closed membership tests, for points built by float arithmetic
TETRA_TOL = 1e-12


def point_h_to_regular(t) -> np.ndarray:
    """x_i = t_i - t_4 maps the homogeneous simplex onto 0 <= x3 <= x2 <= x1 <= 1."""
    t = _points(t)
    return t[..., :3] - t[..., 3:]


def point_regular_to_h(x) -> np.ndarray:
    """Homogenize regular coordinates (..., 3): append t_4 = -(x1+x2+x3)/4."""
    x = _points(x, 3, "regular")
    t4 = -x.sum(axis=-1, keepdims=True) / 4.0
    return np.concatenate([x + t4, t4], axis=-1)


def in_tetra_H(t) -> np.ndarray:
    """Closed homogeneous simplex membership of points (..., 4)."""
    t = _points(t)
    g1 = t[..., 0] - t[..., 1]
    g2 = t[..., 1] - t[..., 2]
    g3 = t[..., 2] - t[..., 3]
    top = t[..., 0] - t[..., 3]
    return (g1 >= -TETRA_TOL) & (g2 >= -TETRA_TOL) & (g3 >= -TETRA_TOL) & (top <= 1.0 + TETRA_TOL)
