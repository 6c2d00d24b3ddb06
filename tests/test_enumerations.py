"""Byte pins of every enumeration: the node and frequency sets, the
evaluation grids and the fold shifts.

Each digest covers the dtype, shape and raw bytes of every array of its
family in turn, so a change of order, dtype or a last bit in any member
shows up here.
"""

import hashlib

import numpy as np
import pytest

from fcctrig import lattice
from fcctrig.indexsets import (
    generate_Hn,
    generate_Hn_circ,
    generate_Hn_star,
    lambda_circ_nodes,
    lambda_nodes,
)
from fcctrig.interpolation import tetra_grid
from fcctrig.transforms import unit_cell_points

FAMILIES = {
    "generate_Hn": (generate_Hn, range(1, 13)),
    "generate_Hn_star": (generate_Hn_star, range(1, 13)),
    "generate_Hn_circ": (generate_Hn_circ, range(1, 13)),
    "lambda_nodes": (lambda_nodes, range(1, 13)),
    "lambda_circ_nodes": (lambda_circ_nodes, range(1, 13)),
    "tetra_grid": (tetra_grid, range(1, 21)),
    "unit_cell_points": (unit_cell_points, range(2, 21)),
    "fold_shifts": (lambda _: lattice._FOLD_SHIFTS, range(1)),
}

DIGESTS = {
    "generate_Hn": "1dc2b97dcf4bd43cfb7e9c96fa378822832afe48d3ca32929cc49aabfbc1773f",
    "generate_Hn_star": "e331c2d1d9e737611d57edb127d584cbf09fb0e4b18b50fcb4b23bceae9a5a8f",
    "generate_Hn_circ": "cc8b1d34a091ccfb4e6728d34b572ad03fd4befbe1145237cc443ebd83884d41",
    "lambda_nodes": "833644b72b38b9dd85f806c534ad760b4cf56883eb45f940f050b86ec6953bda",
    "lambda_circ_nodes": "6127836209e528298e7dac93dd2e500f8223231a671cda727b478bed263a8fed",
    "tetra_grid": "d5fc67def512857df912f3cb3d4677e603af26da881e98a2c98a364a0c1d36c4",
    "unit_cell_points": "447996d286608f6628dd77fd346b9b9f4a07094e88cb3b032d02c5f555f835b4",
    "fold_shifts": "828106230bb798921fb277e7dac3a0140c2367efcfaa47dd223125445b69c060",
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", FAMILIES)
def test_enumeration_bytes_are_pinned(name):
    gen, args = FAMILIES[name]
    assert _digest(gen(a) for a in args) == DIGESTS[name]
