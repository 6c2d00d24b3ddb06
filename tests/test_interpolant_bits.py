"""Byte pins of the interpolant coefficient boxes and their values.

For each kind and each probe f, one digest covers, degree by degree, the
dtype, shape and raw bytes of ``poly.box`` and of the interpolant on
``tetra_grid(5)``, so a change in the last bit of any coefficient or value
shows up here.  The probes are polynomials in t, so sampling them is exact
IEEE arithmetic and the pins do not depend on the math library's sin or exp.
"""

import hashlib

import numpy as np
import pytest

from fcctrig.interpolation import BUILDERS, tetra_grid


def real_probe(t):
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    return 0.75 + t1 - 2.0 * t2 * t2 + 3.0 * t1 * t3 - 0.5 * t3 * t3 * t3


def complex_probe(t):
    return real_probe(t) + 1j * (t[..., 1] - 1.25 * t[..., 3] * t[..., 0] + 0.125)


PROBES = {"real": real_probe, "complex": complex_probe}
DEGREES = (1, 2, 3, 4, 5, 8)

DIGESTS = {
    "in/real": "a807fb8b9598e14295bff1417c488cb413bc4ffd97abec53ad5db2ad742456d6",
    "in/complex": "0dd44835ebee5b97286cfbcecda4440ed9fa684d68afff6c6cf25e74549b85e7",
    "instar/real": "6e2817afb4258af96b2e69b0dd20c8dbed425f02b634c01ce773a5cfacf79c2e",
    "instar/complex": "c3d9712a91a70987c1608da89cff154815e9bd9e7184cd99a419992de39c473b",
    "ln/real": "993da03d1a226793ab1ebd1050e2bae6c04bcf78a3af54c0578a31bcbd502fcf",
    "ln/complex": "53108fa7f6dda79c6a4f7638ce0da8dafd1c065e5739dcbd4b56808f6919d164",
    "lnstar/real": "2c163b5e46b20f2e15a85fe857e5d7a5e8faf37ffe40e1cc6a0a9e96a975e661",
    "lnstar/complex": "1eb8605f11ecba3710a66d115ecac3573705bf9f7dc647ac698256284a697bde",
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _arrays(kind, f):
    grid = tetra_grid(5)
    for n in DEGREES:
        if kind == "ln" and n < 2:
            continue
        interp = BUILDERS[kind](f, n)
        yield interp.poly.box
        yield interp(grid)


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("kind", BUILDERS)
def test_interpolant_bytes_are_pinned(kind, probe):
    assert _digest(_arrays(kind, PROBES[probe])) == DIGESTS[f"{kind}/{probe}"]
