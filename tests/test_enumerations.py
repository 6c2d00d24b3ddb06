"""Byte pins of every enumeration: the node and frequency sets, the
evaluation grids, the fold shifts, and the boxes the frequency side reads
off the sets: the weight boxes of H_n, H_n* and H_n circ and the
coefficient boxes of theta_n and D_n.

Each digest covers the dtype, shape and raw bytes of every array of its
family in turn, so a change of order, dtype or a last bit in any member
shows up here.
"""

import hashlib

import numpy as np
import pytest

from fcctrig import lattice
from fcctrig.indexsets import (
    _weight_box,
    generate_Hn,
    generate_Hn_circ,
    generate_Hn_star,
    lambda_circ_nodes,
    lambda_nodes,
)
from fcctrig.interpolation import tetra_grid
from fcctrig.transforms import _KERNEL_BOXES, unit_cell_points

FAMILIES = {
    "generate_Hn": (generate_Hn, range(1, 13)),
    "generate_Hn_star": (generate_Hn_star, range(1, 13)),
    "generate_Hn_circ": (generate_Hn_circ, range(1, 13)),
    "lambda_nodes": (lambda_nodes, range(1, 13)),
    "lambda_circ_nodes": (lambda_circ_nodes, range(1, 13)),
    "tetra_grid": (tetra_grid, range(1, 21)),
    "unit_cell_points": (unit_cell_points, range(2, 21)),
    "fold_shifts": (lambda _: lattice._FOLD_SHIFTS, range(1)),
    "weight_box/hn": (lambda n: _weight_box("hn", n), range(1, 13)),
    "weight_box/hstar": (lambda n: _weight_box("hstar", n), range(1, 13)),
    "weight_box/hcirc": (lambda n: _weight_box("hcirc", n), range(1, 13)),
    "kernel_box/theta": (lambda n: _KERNEL_BOXES["theta"](n).box, range(1, 13)),
    "kernel_box/dirichlet": (lambda n: _KERNEL_BOXES["dirichlet"](n).box, range(1, 13)),
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
    "weight_box/hn": "60c946fa3e442a1606ffbbb1099c348b252248104aaba8801a754acea214cd24",
    "weight_box/hstar": "9a1b5b3c411e3e4703aeffd73b3acbed2d01c669c25ebc69e40acd7049a9b58a",
    "weight_box/hcirc": "f4f65ced94d754a0e5c32353d2034005345b69d93193724cbed3f825f04bed41",
    "kernel_box/theta": "1eb6c84ff42b5489404c9bb8bbff8a091f4632d73ad5ecf437ce1d20c3aaf5d9",
    "kernel_box/dirichlet": "2d06d7ee7791dfd78526fc32b095a7c032f4f2f0531b2b3f41fdff5d17e76a9f",
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
