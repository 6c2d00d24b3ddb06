"""Discrete Fourier analysis on the face-centered cubic lattice.

Exact discrete inner products and cubature on the rhombic dodecahedron,
generalized cosine/sine bases on the tetrahedral fundamental domain of the
coordinate-permutation symmetry, and the matching interpolation operators
with Lebesgue-constant benchmarks.
"""

from .boundary import classify, classify_index, congruent_orbit, congruent_orbit_index
from .indexsets import (
    generate_Hn,
    generate_Hn_circ,
    generate_Hn_star,
    generate_Lambda_n,
    lambda_circ_nodes,
    lambda_nodes,
    lambda_weights,
    stratum_counts,
    stratum_of_index,
    tetra_stratum,
    to_reduced,
    weight_c,
    weight_lambda,
)
from .interpolation import (
    Interpolant,
    ell_circ,
    ell_tri,
    from_node_values,
    interp_In,
    interp_In_star,
    interp_Ln,
    interp_Ln_star,
    lebesgue_interp,
    node_set,
    regular_interpolate,
)
from .kernels import (
    K_n,
    dirichlet,
    dirichlet_direct,
    dirichlet_product,
    phi_n_fund,
    phi_n_star,
    phi_n_star_direct,
    sine_ratio,
    theta_n,
)
from .lattice import (
    A_MATRIX,
    H_MATRIX,
    U_MATRIX,
    fold_to_omega_H,
    from_homogeneous,
    hindex,
    homo_point,
    in_closed_omega_H,
    in_omega_H,
    phi,
    to_homogeneous,
)
from .symmetry import G_MINUS, G_PLUS, orbit, project_minus, project_plus
from .tetra import in_tetra_H, point_h_to_regular, point_regular_to_h
from .transforms import (
    TrigPoly,
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
)
from .trigbasis import tc, tc_direct, tc_orthogonality_value, ts, ts_direct

__version__ = "0.1.0"
