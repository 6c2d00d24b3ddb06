"""The Lebesgue scan's plan at one (kind, n) and the values it gives.

The pins are ``float.hex`` of ``lebesgue_interp`` from the complex
transform on the whole node group, recorded before the real kinds moved to
the real half-group transform.  ``in`` keeps that route and its bits; the
real kinds stay within 1e-13 * max(1, Lambda): on ``ln`` at n = 5 and 7,
grid 3, every grid point lies on the boundary, where Lambda is rounding
noise (about 3e-15) and the two routes differ by about 1e-16 absolute.
"""

import pytest

from fcctrig.interpolation import _lebesgue_plan, lebesgue_interp

PINS = [
    ("in", 1, 3, "0x1.f5e1c032bb5f5p+0"),
    ("in", 2, 4, "0x1.07c3b666fb66dp+2"),
    ("in", 3, 5, "0x1.7d7817329a5acp+2"),
    ("in", 5, 4, "0x1.148c12429a368p+3"),
    ("in", 8, 4, "0x1.000000000006bp+0"),
    ("instar", 1, 3, "0x1.37ffffffffffep+2"),
    ("instar", 2, 4, "0x1.8000000000000p+2"),
    ("instar", 3, 5, "0x1.da88dc8fc4996p+2"),
    ("instar", 5, 4, "0x1.0047453b2bff2p+3"),
    ("instar", 8, 3, "0x1.486faed381ec7p+3"),
    # the benchmark's dodeca scan
    ("instar", 8, 4, "0x1.800000000000ep+2"),
    ("ln", 2, 4, "0x0.0p+0"),
    ("ln", 4, 5, "0x1.65c55827df1d5p-1"),
    ("ln", 5, 3, "0x1.ae88f96877790p-49"),
    ("ln", 5, 6, "0x1.50854f2c3d222p+0"),
    ("ln", 7, 3, "0x1.0a95658104877p-47"),
    ("ln", 8, 6, "0x1.6790b6ee00c8ep+1"),
    ("lnstar", 1, 4, "0x1.0000000000001p+0"),
    ("lnstar", 2, 5, "0x1.9e79b657d34f6p+0"),
    ("lnstar", 3, 5, "0x1.25c1fb247a026p+1"),
    ("lnstar", 5, 6, "0x1.45b930aed5eb3p+2"),
    ("lnstar", 8, 5, "0x1.4073e97a66653p+2"),
    # the benchmark's tetra scan
    ("lnstar", 8, 6, "0x1.842c170ac4e78p+2"),
]


@pytest.mark.parametrize("kind, n, grid, pin", PINS)
def test_lebesgue_interp_keeps_its_pinned_values(kind, n, grid, pin):
    got, want = lebesgue_interp(n, kind, grid), float.fromhex(pin)
    if kind == "in":
        assert got.hex() == pin
    else:
        assert abs(got - want) <= 1e-13 * max(1.0, want)


def test_real_kernels_take_the_half_group():
    for kind in ("in", "instar", "ln", "lnstar"):
        plan = _lebesgue_plan(kind, 3)
        assert plan.real == (kind != "in")
        assert plan.cells == (7 if plan.real else 12) * 9
