"""Interpolation error and Lebesgue-constant scans.

Interpolates a smooth periodic function with the symmetric-node operator
and the tetrahedral cosine operator, reports max errors on evaluation
grids, then prints small Lebesgue-function scans for all four kinds.
"""

import math

import numpy as np

from fcctrig.boundary import congruent_orbit_index
from fcctrig.interpolation import (
    dodeca_grid,
    interp_In,
    interp_In_star,
    interp_Ln_star,
    lebesgue_interp,
    node_set,
    tetra_grid,
)


def f(t):
    t = np.asarray(t)
    return np.exp(np.sin(2.0 * np.pi * t[..., 0]))


print("half-open node interpolation of exp(sin 2pi t1), dodeca grid 11^3")
grid = dodeca_grid(11)
for n in (2, 4, 8):
    I = interp_In(f, n)
    err = np.abs(I(grid) - f(grid)).max()
    print(f"  n={n:2d}: max error {err:.4e}")

# the symmetric-node operator is not a pointwise interpolant: interior
# nodes reproduce f, boundary nodes the sum over the congruence class
n = 4
S = interp_In_star(f, n)
nodes = node_set("instar", n)
pts = nodes.astype(float) / (4.0 * n)
vals = S(pts)
int_err, cls_err = 0.0, 0.0
for k, p, v in zip(nodes, pts, vals):
    orb = congruent_orbit_index(k, n)
    want = sum(f(np.array(s, dtype=float) / (4.0 * n)) for s in orb)
    if len(orb) == 1:
        int_err = max(int_err, abs(v - f(p)))
    cls_err = max(cls_err, abs(v - want))
print(f"\nsymmetric-node operator at degree {n}: interior node error "
      f"{int_err:.2e}, class-sum error over all nodes {cls_err:.2e}")

# f is not invariant under the permutations, so the symmetric extension of
# f from the tetrahedron has kinks across its faces: the error only halves
# with each doubling of n
print("\ncosine interpolation on the tetrahedron, simplex grid 20")
tgrid = tetra_grid(20)
for n in (2, 4, 8, 16, 32):
    C = interp_Ln_star(f, n)
    err = np.abs(C(tgrid) - f(tgrid)).max()
    print(f"  n={n:2d}: max error {err:.4e}")

print("\nLebesgue estimates (coarse grids; lower bounds of the norms)")
print("kind     n  estimate  estimate/(log n)^3")
for kind, grid_size in (("in", 7), ("instar", 7), ("ln", 6), ("lnstar", 6)):
    for n in (2, 4, 8):
        est = lebesgue_interp(n, kind, grid_per_axis=grid_size)
        ratio = est / math.log(n) ** 3
        print(f"{kind:7s} {n:2d}  {est:8.3f}  {ratio:10.3f}")
