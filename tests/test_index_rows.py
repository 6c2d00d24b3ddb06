"""Every entry point that takes frequency indices checks them the same way:
through ``lattice._rows``, or ``lattice.hindex`` for one index, with a
ValueError for a row of the wrong shape or outside H."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import fcctrig
from fcctrig import boundary, indexsets, interpolation, lattice, trigbasis

T = np.zeros(4)

# malformed index rows: each of these used to give a value or a raw NumPy error
BAD_ROWS = {
    "not congruent mod 4": [[1, 0, 0, -1]],
    "nonzero sum": [[4, 0, 0, 0]],
    "not integer": [[4.7, 0, 0, -4.7]],
    "shape (2, 2)": [[4, 0], [0, -4]],
    "three columns": [[4, 0, -4]],
}
SHAPES = ("shape (2, 2)", "three columns")

# "module.name" -> (call on index rows, the BAD_ROWS it must reject); the
# one-index forms get the first row
ROW_TAKERS = {
    "boundary.boundary_slots": (lambda kk: boundary.boundary_slots(kk, 2), BAD_ROWS),
    "indexsets.strata": (lambda kk: indexsets.strata(kk, 2), BAD_ROWS),
    "indexsets.stratum_keys": (lambda kk: indexsets.stratum_keys(kk, 2), BAD_ROWS),
    "indexsets.class_sizes": (lambda kk: indexsets.class_sizes(kk, 2), BAD_ROWS),
    "indexsets.lambdas": (lambda kk: indexsets.lambdas(kk, 2), BAD_ROWS),
    "indexsets.to_reduced": (indexsets.to_reduced, SHAPES),
    "boundary.classify_index": (lambda kk: boundary.classify_index(kk[0], 2), BAD_ROWS),
    "boundary.congruent_orbit_index": (
        lambda kk: boundary.congruent_orbit_index(kk[0], 2), BAD_ROWS),
    "indexsets.stratum_of_index": (lambda kk: indexsets.stratum_of_index(kk[0], 2), BAD_ROWS),
    "indexsets.weight_c": (lambda kk: indexsets.weight_c(kk[0], 2), BAD_ROWS),
    "indexsets.weight_lambda": (lambda kk: indexsets.weight_lambda(kk[0], 2), BAD_ROWS),
    "indexsets.tetra_stratum": (lambda kk: indexsets.tetra_stratum(kk[0], 2), BAD_ROWS),
    "lattice.phi": (lambda kk: lattice.phi(kk[0], T), BAD_ROWS),
    "trigbasis.tc": (lambda kk: trigbasis.tc(kk[0], T), BAD_ROWS),
    "trigbasis.ts": (lambda kk: trigbasis.ts(kk[0], T), BAD_ROWS),
    "trigbasis.tc_direct": (lambda kk: trigbasis.tc_direct(kk[0], T), BAD_ROWS),
    "trigbasis.ts_direct": (lambda kk: trigbasis.ts_direct(kk[0], T), BAD_ROWS),
    "trigbasis.tc_orthogonality_value": (
        lambda kk: trigbasis.tc_orthogonality_value(kk[0]), BAD_ROWS),
    "interpolation.ell_circ": (lambda kk: interpolation.ell_circ(kk[0], 4, T), BAD_ROWS),
    "interpolation.ell_circ_ts_sum": (
        lambda kk: interpolation.ell_circ_ts_sum(kk[0], 4, T), BAD_ROWS),
    "interpolation.ell_tri": (lambda kk: interpolation.ell_tri(kk[0], 4, T), BAD_ROWS),
    "interpolation.ell_tri_tc_sum": (
        lambda kk: interpolation.ell_tri_tc_sum(kk[0], 4, T), BAD_ROWS),
}

# "module.name" -> call at degree n on the valid row (0, 0, 0, 0), for every
# ROW_TAKERS entry with a degree parameter n
ZERO = np.zeros((1, 4), dtype=np.int64)
DEGREE_TAKERS = {
    "boundary.boundary_slots": lambda n: boundary.boundary_slots(ZERO, n),
    "indexsets.strata": lambda n: indexsets.strata(ZERO, n),
    "indexsets.stratum_keys": lambda n: indexsets.stratum_keys(ZERO, n),
    "indexsets.class_sizes": lambda n: indexsets.class_sizes(ZERO, n),
    "indexsets.lambdas": lambda n: indexsets.lambdas(ZERO, n),
    "boundary.classify_index": lambda n: boundary.classify_index(ZERO[0], n),
    "boundary.congruent_orbit_index": lambda n: boundary.congruent_orbit_index(ZERO[0], n),
    "indexsets.stratum_of_index": lambda n: indexsets.stratum_of_index(ZERO[0], n),
    "indexsets.weight_c": lambda n: indexsets.weight_c(ZERO[0], n),
    "indexsets.weight_lambda": lambda n: indexsets.weight_lambda(ZERO[0], n),
    "indexsets.tetra_stratum": lambda n: indexsets.tetra_stratum(ZERO[0], n),
    "interpolation.ell_circ": lambda n: interpolation.ell_circ(ZERO[0], n, T),
    "interpolation.ell_circ_ts_sum": lambda n: interpolation.ell_circ_ts_sum(ZERO[0], n, T),
    "interpolation.ell_tri": lambda n: interpolation.ell_tri(ZERO[0], n, T),
    "interpolation.ell_tri_tc_sum": lambda n: interpolation.ell_tri_tc_sum(ZERO[0], n, T),
}

# public functions with a parameter k, kk or j that do not check membership in H
NOT_ROW_TAKERS = {
    "symmetry.orbit": "S4 acts on any integer quadruple; test_symmetry covers its check",
    "symmetry.orbit_size": "the length of symmetry.orbit, which checks its input",
}

CASES = [(name, case) for name in sorted(ROW_TAKERS) for case in ROW_TAKERS[name][1]]


@pytest.mark.parametrize("name,case", CASES)
def test_malformed_rows_are_rejected(name, case):
    call, _ = ROW_TAKERS[name]
    # the message of lattice._rows or hindex, not a raw NumPy error
    with pytest.raises(ValueError, match="frequency ind"):
        call(np.array(BAD_ROWS[case]))


def test_rows_errors_name_the_shape_or_the_first_bad_row():
    shape = r"^frequency indices need 4 components, got shape \(2, 2\)$"
    with pytest.raises(ValueError, match=shape):
        lattice._rows(BAD_ROWS["shape (2, 2)"])
    good = indexsets.generate_Hn_star(2)
    bad = np.vstack([good, BAD_ROWS["not integer"], BAD_ROWS["nonzero sum"]])
    with pytest.raises(ValueError, match=r"^\(4\.7, 0\.0, 0\.0, -4\.7\) is not a valid"):
        lattice._rows(bad)
    rows = lattice._rows(good.tolist())
    assert rows.dtype == np.int64 and np.array_equal(rows, good)


def _functions_taking_indices():
    """ "module.name" of every public function in the package that has a
    parameter named k, kk or j."""
    out = set()
    for info in pkgutil.iter_modules(fcctrig.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"fcctrig.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            params = set(inspect.signature(obj).parameters) if inspect.isfunction(obj) else set()
            if {"k", "kk", "j"} & params:
                out.add(f"{info.name}.{name}")
    return out


def test_every_index_taker_is_in_the_table():
    found = _functions_taking_indices()
    assert {"indexsets.lambdas", "boundary.classify_index", "symmetry.orbit"} <= found
    assert found - set(ROW_TAKERS) - set(NOT_ROW_TAKERS) == set()


def _takes_a_degree(name):
    module, func = name.split(".")
    return "n" in inspect.signature(getattr(fcctrig, module).__dict__[func]).parameters


def test_every_row_taker_with_a_degree_is_in_the_degree_table():
    assert {name for name in ROW_TAKERS if _takes_a_degree(name)} == set(DEGREE_TAKERS)


@pytest.mark.parametrize("name", sorted(DEGREE_TAKERS))
def test_row_takers_check_the_degree(name):
    # n = 0 used to give labels, strata or a raw IndexError, n = -1 a
    # message about the row, and ell_circ a ZeroDivisionError or -0.0
    call = DEGREE_TAKERS[name]
    call(4)
    for n in (0, -1):
        with pytest.raises(ValueError, match=r"^degree must be >= 1$"):
            call(n)
    with pytest.raises(TypeError):
        call(2.0)
