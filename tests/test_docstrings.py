"""Every public callable and class of the package says what it is."""

import inspect

import pytest

import fcctrig

PUBLIC = sorted(
    name
    for name, obj in vars(fcctrig).items()
    if not name.startswith("_") and not inspect.ismodule(obj) and callable(obj)
)


def test_public_names_are_found():
    assert {"TrigPoly", "Interpolant", "fourier_coeffs", "lambda_weights"} <= set(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_a_docstring(name):
    doc = getattr(fcctrig, name).__doc__
    assert doc and doc.strip(), f"fcctrig.{name} has no docstring"
    # a dataclass without one gets its signature as __doc__
    assert not doc.startswith(f"{name}("), f"fcctrig.{name} has no docstring"
