"""float.hex pins of the claims that stream their sets and grids.

The cubature claims, the batched TC/TS claim and the interpolation
conditions measure their largest error over whole frequency sets, index
sets and node sets; going through blocks, slabs or chunks must not move a
bit of it.  The pins were recorded before the claims took their sets in
blocks, with NumPy 2.4.6 on x86-64.  The cubature claims are integer
weights and one FFT each.  The interpolation probe is a polynomial in t,
so its samples are exact; ``tetra_basis`` takes NumPy's cos, sin and exp
at the seeded points of ``fcc-trig verify``.
"""

import numpy as np
import pytest

from fcctrig import claims

KINDS = ("in", "instar", "lnstar", "ln")  # ln has no degree 1

DODECA_CUBATURE = {
    1: "0x1.0000000000000p-55",
    2: "0x1.0000000000000p-58",
    3: "0x1.2f684bda12f68p-60",
    4: "0x1.0000000000000p-61",
    5: "0x1.0624dd2f1a9fdp-62",
    8: "0x1.0000000000000p-64",
    16: "0x1.0000000000000p-67",
    32: "0x1.0000000000000p-70",
}

TETRA_CUBATURE = {
    1: "0x0.0p+0",
    2: "0x1.e2b7dddfefa66p-58",
    3: "0x1.0000000000000p-52",
    4: "0x1.1e3779b97f4a8p-56",
    5: "0x1.b27247aff148cp-55",
    8: "0x1.94c583ada5b53p-55",
    16: "0x1.5555555555555p-54",
    32: "0x1.9555555555555p-54",
}

# (cosine, sine) per degree; no sine below degree 3
TETRA_BASIS = {
    1: ("0x1.04760c95db310p-51",),
    2: ("0x1.c301fc9701054p-51",),
    3: ("0x1.700ddc1f0cc81p-50", "0x1.d00091cee61f5p-51"),
    4: ("0x1.16b7ef5a35fb1p-49", "0x1.d00091cee61f5p-51"),
    5: ("0x1.60009959dd802p-49", "0x1.20008a29f11adp-50"),
    8: ("0x1.8003583abb26cp-48", "0x1.d9d226d43c0d7p-49"),
    16: ("0x1.f80001cded8d8p-47", "0x1.0b431cf55f0f3p-47"),
    32: ("0x1.0d80007996cc1p-45", "0x1.818002a1895f5p-46"),
}

# per degree, one pin per kind of KINDS
INTERPOLATION_CONDITION = {
    1: ("0x1.6a09e667f3bcdp-53", "0x1.ee2c2d963a10cp-58", "0x1.0017d6558f549p-53"),
    2: ("0x1.55c2992d999ccp-52", "0x1.002d047461c04p-51", "0x1.0005e5b447087p-52", "0x0.0p+0"),
    3: ("0x1.429315a11898ep-50", "0x1.02123b0e15790p-50", "0x1.0ab80a00c0507p-51", "0x0.0p+0"),
    4: ("0x1.1451937b0e741p-50", "0x1.80508e96595bcp-50", "0x1.8d85e94c1e3bap-51", "0x1.3fd6aac2f702ap-52"),
    5: ("0x1.04bde20c092bfp-50", "0x1.811a1b4dc8258p-50", "0x1.2c10abdb6fd8bp-50", "0x1.00375d0a30648p-50"),
    8: ("0x1.51a74c3803202p-49", "0x1.201236b17c399p-49", "0x1.40037e125d135p-50", "0x1.c0dc89d12b95cp-50"),
    16: ("0x1.11c6683201fc6p-48", "0x1.20c74d0f064adp-48", "0x1.a4cc8c5ba89e8p-50", "0x1.c02dc9e54a246p-49"),
    32: ("0x1.086691ee29b69p-47", "0x1.0845ecb6333b4p-47", "0x1.4004a7fe5371ep-49", "0x1.e003713e01a22p-48"),
}



def real_probe(t):
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    return 0.75 + t1 - 2.0 * t2 * t2 + 3.0 * t1 * t3 - 0.5 * t3 * t3 * t3


def verify_points():
    t = np.random.default_rng(20240901).uniform(-1.0, 1.0, size=(50, 4))
    return t - t.mean(axis=1, keepdims=True)


@pytest.mark.parametrize("n", sorted(DODECA_CUBATURE))
def test_cubature_claims_are_pinned(n):
    assert float(claims.dodeca_cubature(n)).hex() == DODECA_CUBATURE[n]
    assert float(claims.tetra_cubature(n)).hex() == TETRA_CUBATURE[n]


@pytest.mark.parametrize("n", sorted(TETRA_BASIS))
def test_tetra_basis_is_pinned(n):
    got = claims.tetra_basis(n, verify_points())
    assert tuple(float(v).hex() for v in got.values()) == TETRA_BASIS[n]


@pytest.mark.parametrize("n", sorted(INTERPOLATION_CONDITION))
def test_interpolation_conditions_are_pinned(n):
    kinds = KINDS[: 3 if n == 1 else 4]
    got = [claims.interpolation_condition(kind, n, real_probe) for kind in kinds]
    assert tuple(float(v).hex() for v in got) == INTERPOLATION_CONDITION[n]
