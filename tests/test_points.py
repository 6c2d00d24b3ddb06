"""Every entry point that takes points checks their last axis the same way:
through ``lattice._points``, with a ValueError that names the chart."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import fcctrig
from fcctrig import boundary, claims, interpolation, kernels, lattice, symmetry, tetra
from fcctrig import transforms, trigbasis

K, KS = [3, -1, -1, -1], [6, 2, -2, -6]  # a monotone and a strictly decreasing index

# "module.name" -> (call on points, the chart's coordinate count, its name)
POINT_TAKERS = {
    "lattice.homo_point": (lattice.homo_point, 4, "homogeneous"),
    "lattice.to_homogeneous": (lattice.to_homogeneous, 3, "Cartesian"),
    "lattice.from_homogeneous": (lattice.from_homogeneous, 4, "homogeneous"),
    "lattice.in_omega_H": (lattice.in_omega_H, 4, "homogeneous"),
    "lattice.in_closed_omega_H": (lattice.in_closed_omega_H, 4, "homogeneous"),
    "lattice.fold_to_omega_H": (lattice.fold_to_omega_H, 4, "homogeneous"),
    "lattice.phi": (lambda t: lattice.phi(K, t), 4, "homogeneous"),
    "kernels.theta_n": (lambda t: kernels.theta_n(2, t), 4, "homogeneous"),
    "kernels.dirichlet": (lambda t: kernels.dirichlet(2, t), 4, "homogeneous"),
    "kernels.dirichlet_product": (lambda t: kernels.dirichlet_product(2, t), 4, "homogeneous"),
    "kernels.dirichlet_direct": (lambda t: kernels.dirichlet_direct(2, t), 4, "homogeneous"),
    "kernels.phi_n_fund": (lambda t: kernels.phi_n_fund(2, t), 4, "homogeneous"),
    "kernels.edge_sum": (lambda t: kernels.edge_sum(2, t), 4, "homogeneous"),
    "kernels.edge_sum_direct": (lambda t: kernels.edge_sum_direct(2, t), 4, "homogeneous"),
    "kernels.phi_n_star": (lambda t: kernels.phi_n_star(2, t), 4, "homogeneous"),
    "kernels.phi_n_star_direct": (lambda t: kernels.phi_n_star_direct(2, t), 4, "homogeneous"),
    "trigbasis.tc": (lambda t: trigbasis.tc(K, t), 4, "homogeneous"),
    "trigbasis.ts": (lambda t: trigbasis.ts(KS, t), 4, "homogeneous"),
    "trigbasis.tc_direct": (lambda t: trigbasis.tc_direct(K, t), 4, "homogeneous"),
    "trigbasis.ts_direct": (lambda t: trigbasis.ts_direct(KS, t), 4, "homogeneous"),
    "symmetry.project_plus": (
        lambda t: symmetry.project_plus(lambda s: s[..., 0], t), 4, "homogeneous"),
    "symmetry.project_minus": (
        lambda t: symmetry.project_minus(lambda s: s[..., 0], t), 4, "homogeneous"),
    "interpolation.ell_circ": (lambda t: interpolation.ell_circ(KS, 4, t), 4, "homogeneous"),
    "interpolation.ell_circ_ts_sum": (
        lambda t: interpolation.ell_circ_ts_sum(KS, 4, t), 4, "homogeneous"),
    "interpolation.ell_tri": (lambda t: interpolation.ell_tri(KS, 4, t), 4, "homogeneous"),
    "interpolation.ell_tri_tc_sum": (
        lambda t: interpolation.ell_tri_tc_sum(KS, 4, t), 4, "homogeneous"),
    "interpolation.Interpolant.__call__": (
        lambda t: interpolation.interp_In_star(transforms.one, 1)(t), 4, "homogeneous"),
    "transforms.TrigPoly.__call__": (
        lambda t: transforms.fourier_coeffs(transforms.one, 1)(t), 4, "homogeneous"),
    "tetra.point_h_to_regular": (tetra.point_h_to_regular, 4, "homogeneous"),
    "tetra.point_regular_to_h": (tetra.point_regular_to_h, 3, "regular"),
    "tetra.in_tetra_H": (tetra.in_tetra_H, 4, "homogeneous"),
    "interpolation.regular_interpolate": (
        lambda x: interpolation.regular_interpolate(lambda y: y[..., 0], 2, x), 3, "regular"),
    "boundary.classify": (boundary.classify, 4, "homogeneous"),
    "boundary.congruent_orbit": (boundary.congruent_orbit, 4, "homogeneous"),
    "claims.compact_kernels": (lambda t: claims.compact_kernels(2, t), 4, "homogeneous"),
    "claims.tetra_basis": (lambda t: claims.tetra_basis(2, t), 4, "homogeneous"),
}

# public functions with a parameter t that take something other than points
NOT_POINT_TAKERS = {
    "kernels.K_n": "takes single coordinates t_j, not points",
    "transforms.one": "shape-agnostic: cubature_tetra_regular calls it on regular points",
}


@pytest.mark.parametrize("name", sorted(POINT_TAKERS))
@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_last_axis_names_the_chart(name, delta):
    call, d, chart = POINT_TAKERS[name]
    shape = (5, d + delta)
    with pytest.raises(ValueError, match=rf"{chart} points need {d} coordinates, got shape"):
        call(np.zeros(shape))


def _functions_taking_t():
    """ "module.name" of every public function, and "module.Class.method" of
    every method, in the package that has a parameter named t."""
    out = set()
    for info in pkgutil.iter_modules(fcctrig.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"fcctrig.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = {name: obj}
            if inspect.isclass(obj):
                members = {f"{name}.{m}": f for m, f in vars(obj).items() if inspect.isfunction(f)}
            for qual, f in members.items():
                if inspect.isfunction(f) and "t" in inspect.signature(f).parameters:
                    out.add(f"{info.name}.{qual}")
    return out


def test_every_point_taker_is_in_the_table():
    found = _functions_taking_t()
    assert {"kernels.theta_n", "transforms.TrigPoly.__call__", "kernels.K_n"} <= found
    assert found - set(POINT_TAKERS) - set(NOT_POINT_TAKERS) == set()
