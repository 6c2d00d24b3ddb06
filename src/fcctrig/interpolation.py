"""The four interpolation operators and their Lebesgue constants.

An interpolant is its kind, its degree n and its node values: the nodes
are ``node_set(kind, n)``, and it is a kernel sum over them (no linear
solve exists or is needed, the operators are diagonal in node space).
Every fundamental function is a weighted exponential sum over a frequency
set K, averaged over images j sigma of its node j under S4:
ell_j(t) = a_j mean_sigma s_sigma sum_k w_k phi_k(t - j sigma / 4n).

==========  ====================  ========  ========  ============  ========
kind        nodes j               K         w_k       s_sigma       a_j
==========  ====================  ========  ========  ============  ========
``in``      H_n (half open)       H_n       1/4n^3    no images     1
``instar``  H_n* (closed)         H_n*      c_k/4n^3  no images     1
``ln``      tetrahedral interior  H_n circ  6/n^3     24, signed    1
``lnstar``  tetrahedral           H_n*      c_k/4n^3  24, unsigned  lambda_j
==========  ====================  ========  ========  ============  ========

with c_k = 1/(class size of k).  K and its w_k are one (2n+1)^3 box of
``indexsets._weight_box``, w_k at k' + n and 0 off K: the rule ``hn`` for
``in``, ``hstar`` for ``instar`` and ``lnstar``, ``hcirc`` for ``ln``.  So
``in`` and ``instar`` use Phi_n and Phi_n*, ``lnstar`` is
lambda_j P+ Phi_n*, and ``ln`` is (6/n^3) P- of the
theta difference theta_n - theta_{n-1}, the Dirichlet kernel of
H_{n-1}* = H_n circ.  ``instar`` interpolates only at interior nodes; at
a boundary node it produces the plain sum of f over the node's
congruence class, so boundary values are matched only by data that
vanishes there.  Its output is still a polynomial with frequencies in the
symmetric set, which is what the tetrahedral operators need.  ``ln`` has
no nodes at all below degree 4 (the strictly interior tetrahedral set is
empty) and is then the zero operator.

Evaluation route.  For zero-sum t, phi_k(t) = exp(2 pi i k'.y) with k' =
to_reduced(k) in [-n, n]^3 and y = t[:3], so an interpolant is, as a
Fourier partial sum is, one ``transforms.TrigPoly``: a (2n+1)^3 box of
coefficients.  ``Interpolant.poly`` adds a_j f_j at j[:3] mod 4n and
takes the 3-D FFT F of that only where it is read: one axis at a time,
last axis first as fftn does, on the lines that hold a node, each pass
keeping the residues of [-n, n], so F lands on the (2n+1)^3 box without a
(4n)^3 cube.  It sets c_k = w_k mean_sigma s_sigma F[(k sigma)'] on the
weight box, and the box position of (k sigma)' is linear in k', so all
images are one gather, in blocks of 2^12 entries, added image by image in
PERM_TABLE order: the bits of fftn and of one gather per image.
``lebesgue_interp`` needs each |ell_j|, so it needs the kernel
sum_k w_k phi_k(p - y) at every node image y, per grid point p.  The
images fill the node group Z_4n x Z_n x Z_n, 4n^3 cells or 1/16 of the
(4n)^3 torus grid: the frequencies are added into their classes of that
group and one transform of size 4n x n x n per point gives the kernel on
all of it, in chunks of at most 2^20 elements per array.  For ``in`` it
is a complex FFT; the other kernels are real (K and the weights are
closed under k -> -k), so their phases are Hermitian on the group, are
formed only on its half c_0 <= 2n, and go through one real inverse FFT.
The fixed part of the scan at one (kind, n), its plan (frequency classes
and phase rows, node-image cells, signs, factors), is built once per
call and shared by all its chunks.  The
Lebesgue function is invariant under translations by zero-sum integer
vectors, under t -> -t rho (rho reverses the coordinates) and, for all kinds but
``in``, under S4, so the scan evaluates it at one grid point per class
of those maps and takes the maximum over those points.  The
compact forms (``ell_tri``, ``ell_circ``, ``phi_n_star``, ``theta_n``)
and the sums ``ell_*_sum`` are the paper's identities and the oracles
both routes are tested against.  ``regular_interpolate`` drives
``lnstar`` through the regular-simplex chart of ``tetra``.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._parallel import map_chunks
from .indexsets import (
    _RULES,
    _weight_box,
    generate_Hn,
    generate_Hn_star,
    lambda_circ_nodes,
    lambda_nodes,
    lambda_weights,
    to_reduced,
    weight_lambda,
)
from .kernels import phi_n_star, theta_n
from .lattice import _CHUNK_ELEMENTS, _box, _degree, _points, fold_to_omega_H, hindex
from .symmetry import PERM_SIGNS, PERM_TABLE
from .tetra import point_h_to_regular, point_regular_to_h
from .transforms import TrigPoly, _sample, unit_cell_points
from .trigbasis import _compact_rows

def node_set(kind: str, n: int) -> np.ndarray:
    """The operator's nodes; ValueError for an unknown kind or a degree it lacks."""
    if kind not in _KINDS:
        raise ValueError(f"unknown interpolation kind {kind!r}")
    if kind == "ln" and operator.index(n) < 2:
        raise ValueError("sine interpolation needs degree >= 2")
    return _KINDS[kind].nodes(n)


# ---------------------------------------------------------------------------
# fundamental functions, compact forms


def ell_circ(j, n: int, t) -> np.ndarray:
    """Sine-type fundamental function, compact form.

    (6/n^3) times the antisymmetrization in t of the theta difference
    shifted to the node j/(4n).
    """
    j, n = hindex(j), _degree(n)
    t = _points(t)
    imgs = t[..., PERM_TABLE] - j.astype(float) / (4.0 * n)
    vals = theta_n(n, imgs) - theta_n(n - 1, imgs)
    return (vals * PERM_SIGNS).sum(axis=-1) * (6.0 / n**3) / 24.0


def _basis_sum(rule: str, g, a_j, j: np.ndarray, n: int, t) -> np.ndarray:
    """a_j (1/4n^3) sum_k (a_k/q) g_k(t) conj(g_k(j / 4n)) over the rows k of
    ``indexsets._RULES[rule]``, g_k the compact TC_k (g = cos) or TS_k (g =
    sin): one ``_compact_rows`` call per argument; shape t.shape[:-1]."""
    ks, a, q = _RULES[rule](n)
    node = np.conj(_compact_rows(ks, j / (4.0 * n), g))
    return _compact_rows(ks, _points(t), g) @ (a / q * node) * (a_j / (4.0 * n**3))


def ell_circ_ts_sum(j, n: int, t) -> np.ndarray:
    """Oracle: (144/n^3) sum over interior indices of TS_k(t) conj(TS_k(node)),
    that is 24 times the ``interior`` rule's sum."""
    return _basis_sum("interior", np.sin, 24, hindex(j), _degree(n), t)


def ell_tri(j, n: int, t) -> np.ndarray:
    """Cosine-type fundamental function: lambda_j P+ Phi_n*(t - node)."""
    j = hindex(j)
    lam = weight_lambda(j, n)
    t = _points(t)
    imgs = t[..., PERM_TABLE] - j.astype(float) / (4.0 * n)
    return lam * phi_n_star(n, imgs).mean(axis=-1)


def ell_tri_tc_sum(j, n: int, t) -> np.ndarray:
    """Oracle: (lambda_j/4n^3) sum over the tetrahedral set of
    lambda_k TC_k(t) conj(TC_k(node))."""
    j = hindex(j)
    return _basis_sum("lambda", np.cos, weight_lambda(j, n), j, n, t)


# ---------------------------------------------------------------------------
# evaluation grids


def tetra_grid(grid_per_axis: int) -> np.ndarray:
    """Homogeneous points covering the closed tetrahedron.

    Barycentric-style sweep of the three consecutive coordinate gaps over
    i + j + k <= grid_per_axis; includes all faces and vertices.
    """
    g = grid_per_axis
    if operator.index(g) < 1:
        raise ValueError("grid must have at least 1 step per axis")
    u = _box(0, g)
    u = u[u.sum(axis=1) <= g] / g
    t4 = -(u[:, 0] + 2.0 * u[:, 1] + 3.0 * u[:, 2]) / 4.0
    t1 = t4 + u.sum(axis=1)
    t2 = t4 + u[:, 1] + u[:, 2]
    t3 = t4 + u[:, 2]
    return np.stack([t1, t2, t3, t4], axis=-1)


def dodeca_grid(grid_per_axis: int) -> np.ndarray:
    """Unit-cell sampling folded into the fundamental dodecahedron."""
    if grid_per_axis < 2:
        raise ValueError(f"grid must have at least 2 points per axis, got {grid_per_axis}")
    return fold_to_omega_H(unit_cell_points(grid_per_axis))


# ---------------------------------------------------------------------------
# the four kinds, one table row each


# One row of the module docstring's table: node set of n, the weight box
# rule of K and w_k, signs s_sigma of the first len(signs) rows of PERM_TABLE
# (identity first), node factors a_j of n (a scalar or one per node), the
# evaluation grid, and s4: whether K and w_k are closed under S4 and k -> -k
# (all but the half-open H_n), so the Lebesgue function is S4-invariant and
# the kernel real.
_Kind = namedtuple("_Kind", "nodes rule signs factor grid s4")


_KINDS = {
    "in": _Kind(generate_Hn, "hn", np.ones(1), lambda n: 1.0, dodeca_grid, False),
    "instar": _Kind(generate_Hn_star, "hstar", np.ones(1), lambda n: 1.0, dodeca_grid, True),
    "ln": _Kind(lambda_circ_nodes, "hcirc", PERM_SIGNS, lambda n: 1.0, tetra_grid, True),
    "lnstar": _Kind(lambda_nodes, "hstar", np.ones(24), lambda_weights, tetra_grid, True),
}
KINDS = tuple(_KINDS)

# ---------------------------------------------------------------------------
# interpolants


@dataclass(frozen=True, eq=False)
class Interpolant:
    """The operator ``kind`` of degree n with one value per node of
    ``node_set(kind, n)``; calling it evaluates the kernel sum.

    Construction is where the values are checked: an unknown kind or a
    degree the kind lacks is a ValueError (a non-integer degree a
    TypeError), and so are values of another shape than (len(nodes),) and
    values that are not finite.  A scalar is taken at every node, as the
    builders take one from f.  The values are kept as a read-only copy in
    their dtype but at least float (complex for an object array, e.g. of
    Fractions).  The first call builds ``poly`` and keeps it.  == and hash
    are by identity."""

    kind: str
    n: int
    values: np.ndarray

    def __post_init__(self):
        nodes, where = self.nodes, f"the {self.kind!r} nodes of degree {self.n}"
        values = np.array(_sample(lambda _: self.values, nodes, where, nodes,
                                  name="node values have"))
        values.flags.writeable = False
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "values", values)

    @property
    def nodes(self) -> np.ndarray:
        """``node_set(kind, n)``: the memoized read-only node array."""
        return node_set(self.kind, self.n)

    def __call__(self, t) -> np.ndarray:
        """Evaluate at zero-sum points (..., 4); errors as in ``TrigPoly.__call__``."""
        return self.poly(t)

    @cached_property
    def poly(self) -> TrigPoly:
        """The interpolant as its (2n+1)^3 coefficient box (module docstring)."""
        spec, n, d = _KINDS[self.kind], self.n, 2 * self.n + 1
        F = _node_fft(self.nodes[:, :3], self.values * spec.factor(n), n)
        # phi_k(j sigma) = phi_{k sigma^-1}(j), and sigma -> sigma^-1 maps the
        # summed images onto themselves and keeps s_sigma.  (k sigma)'_i =
        # k'_{sigma(i)} - k'_{sigma(4)} with k'_4 = 0, so the box position of
        # every image is linear in k': row sigma of image_strides puts stride
        # i at slot sigma(i) and minus their sum at sigma(4).  Row 0, the
        # identity, places c_k.
        perms, strides = PERM_TABLE[: len(spec.signs)], d ** np.arange(2, -1, -1)
        image_strides = np.zeros((len(perms), 4), dtype=np.int64)
        image_strides[np.arange(len(perms))[:, None], perms] = [*strides, -strides.sum()]
        wbox = _weight_box(spec.rule, n)
        kp, w = np.argwhere(wbox) - n, wbox[wbox != 0]
        c = np.zeros(d**3, dtype=complex)
        # blocks of 2^12 image entries (96 KiB of positions and terms) stay in
        # cache; blocks of 2^20 were no faster and doubled the traced peak
        # at n = 32
        step = max(1, 2**12 // len(perms))
        for i in range(0, len(kp), step):
            at = image_strides[:, :3] @ kp[i : i + step].T
            at += n * strides.sum()
            terms = F[at]
            terms *= spec.signs[:, None]
            # added image by image from 0, as sum() adds them: as floats the
            # summed axis is never numpy's inner one, which it adds pairwise
            ci = np.add.reduce(terms.view(float), axis=0).view(complex)
            c[at[0]] = ci * w[i : i + step] / len(perms)
        return TrigPoly._own(c.reshape(d, d, d))


def _node_fft(j: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The fftn F of values added at the rows j mod 4n of a (4n)^3 cube, read
    at k' mod 4n for k' in [-n, n]^3 and returned as the flat (2n+1)^3 box.

    fftn's passes run as fftn runs them, last axis first, but only on the
    lines that hold a value, and each pass keeps the residues of [-n, n]:
    the same sums, without the cube.  Every pass hands numpy an even
    number of lines (a zero line, residue n + 1), as the cube's passes do:
    numpy's FFT runs lines in pairs, and an odd last one loads another
    code path, about 0.1 MB of resident text.
    """
    size, d = 4 * n, 2 * n + 1
    keep, j = np.arange(-n, n + 2) % size, j % size
    key = j[:, 0] * size + j[:, 1]
    lines = np.flatnonzero(np.bincount(key, minlength=size * size))
    F = np.zeros((len(lines) + len(lines) % 2, size), dtype=complex)
    np.add.at(F, (np.searchsorted(lines, key), j[:, 2]), values)
    planes = np.flatnonzero(np.bincount(lines // size, minlength=size))
    G = np.zeros((len(planes), size, d + 1), dtype=complex)
    at = np.searchsorted(planes, lines // size)
    G[at, lines % size] = np.fft.fft(F, out=F)[: len(lines), keep]
    F = np.zeros((size, d + 1, d + 1), dtype=complex)
    F[planes] = np.fft.fft(G, axis=1, out=G)[:, keep]
    return np.fft.fft(F, axis=0, out=F)[keep[:d], :d, :d].ravel()


def _build(kind: str, n: int, f) -> Interpolant:
    """f sampled at the nodes, checked by the ``Interpolant`` it builds."""
    return Interpolant(kind, n, f(node_set(kind, n) / (4.0 * n)))


def interp_In(f, n: int) -> Interpolant:
    """Interpolation on the half-open node set; exact at all 4n^3 nodes."""
    return _build("in", n, f)


def interp_In_star(f, n: int) -> Interpolant:
    """Symmetric-node interpolation; boundary nodes get congruence-class sums."""
    return _build("instar", n, f)


def interp_Ln(f, n: int) -> Interpolant:
    """Sine interpolation at strictly interior tetrahedral nodes."""
    return _build("ln", n, f)


def interp_Ln_star(f, n: int) -> Interpolant:
    """Cosine interpolation at all tetrahedral nodes."""
    return _build("lnstar", n, f)


def regular_interpolate(f3, n: int, x) -> np.ndarray:
    """Cosine interpolation driven entirely in regular coordinates.

    f3 is sampled at the nodes (k1,k2,k3)/n; x may be a single point or an
    array (..., 3).
    """
    interp = interp_Ln_star(lambda t: f3(point_h_to_regular(t)), n)
    return interp(point_regular_to_h(x))


BUILDERS = {"in": interp_In, "instar": interp_In_star, "ln": interp_Ln, "lnstar": interp_Ln_star}


def from_node_values(kind: str, n: int, values: dict) -> Interpolant:
    """Build an interpolant from a {index tuple: value} table.

    The key set must match the operator's node set exactly; a mismatch
    reports the expected set and both counts.  A value that is not finite
    is rejected with its node.
    """
    nodes = node_set(kind, n)
    want = [tuple(int(v) for v in k) for k in nodes]
    got = set(values.keys())
    if got != set(want):
        raise ValueError(
            f"node values do not match the {kind!r} node set for degree {n}: "
            f"expected {len(want)} nodes, got {len(got)}"
        )
    return Interpolant(kind, n, [values[k] for k in want])


# ---------------------------------------------------------------------------
# Lebesgue constants


def lebesgue_interp(n: int, kind: str, grid_per_axis: int = 25) -> float:
    """Grid maximum of the Lebesgue function of one operator.

    The scan runs over the closed tetrahedron for the tetrahedral kinds
    and over the dodecahedron for the others; the result is a lower
    estimate of the operator norm.  It is the maximum over the grid's
    points only, so it depends on the grid: ``tetra_grid`` and
    ``dodeca_grid`` sample at spacing ``1 / grid_per_axis``, and a grid of
    fixed size neither nests across degrees nor lines up with the node
    spacing ``1 / (4n)``.  A grid whose points are all nodes returns the
    trivial floor, e.g. 1.0 for ``lnstar`` and 6.0 for ``instar`` at n = 8
    on grid 8.

    Lambda = sum_j |ell_j| takes one value on each class of points under
    its symmetries, so it is evaluated at one grid point per class
    (``_representatives``) and the maximum is taken over those.  Every
    kind's Lambda is invariant under translations by zero-sum integer
    vectors, the periods of every phi_k, and under t -> -t rho, rho
    reversing the coordinates: the node and frequency sets S satisfy
    -S rho = S and the weights agree on both.  ``instar``, ``ln`` and
    ``lnstar`` are S4-invariant as well, since their node sets and
    weights are; ``in`` is not, its H_n is half open.
    ``dodeca_grid(4)`` has 64 points in 8 classes under all three, and
    ``tetra_grid(6)`` 84 points in 50.  On one thread of a 2-CPU Xeon,
    ``fcc-trig lebesgue --n 16`` (grid 25, wall time with interpreter
    start, median of 6) takes 0.7 s for ``instar`` (455 classes of
    15,625 points), 8.7 s for ``in`` (8,215 classes), 1.4 s for
    ``lnstar`` (1,729 classes of 3,276 points) and 1.3 s for ``ln``.
    """
    node_set(kind, n)  # an unknown kind or a degree it lacks, before the grid
    spec = _KINDS[kind]
    pts = spec.grid(grid_per_axis)
    rep, _ = _representatives(pts, spec.s4)
    return float(_lebesgue_function(n, kind, pts[rep]).max())


def _representatives(pts: np.ndarray, s4: bool) -> tuple[np.ndarray, np.ndarray]:
    """The first point of every class of pts under translations by zero-sum
    integer vectors, t -> -t rho and, when s4, S4; and the class of every
    point, indexing the first array.

    A class is keyed by the fold of t into Omega_H, sorted descending for
    S4, rounded to 2^-30.  -Omega_H rho is Omega_H with the same half-open
    faces, so the key of -t rho is the key of t reversed and negated, and
    the lexicographically smaller of the two is the class key.  Equal keys are one class; a
    class whose keys round apart is scanned twice, which costs one point.
    """
    t = fold_to_omega_H(pts)
    if s4:
        t = -np.sort(-t, axis=-1)
    key = np.rint(t * 2.0**30).astype(np.int64)
    flip = -key[:, ::-1]
    diff = flip - key
    first = diff[np.arange(len(key)), (diff != 0).argmax(axis=1)]
    key[first < 0] = flip[first < 0]
    _, rep, cls = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return rep, cls.ravel()  # numpy 2.0.0 returns the classes as a column


def _node_cells(j: np.ndarray, n: int) -> np.ndarray:
    """Flat cells (j_3, (j_1 - j_3)/4, (j_2 - j_3)/4) of nodes j (..., 4) in the
    node group Z_4n x Z_n x Z_n: two nodes share one iff they share j[:3] mod 4n."""
    d = (j[..., :2] - j[..., 2:3]) // 4
    return np.ravel_multi_index((j[..., 2], d[..., 0], d[..., 1]), (4 * n, n, n), mode="wrap")


def _freq_cells(k: np.ndarray, n: int) -> np.ndarray:
    """Flat dual cells of frequencies k (..., 4): phi_k(j / 4n) is the character
    of k's cell at j's cell."""
    return _dual_cells(to_reduced(k), n)


def _dual_cells(kp: np.ndarray, n: int) -> np.ndarray:
    """Flat dual cells (k'_1 + k'_2 + k'_3, k'_1, k'_2) of reduced frequencies kp (..., 3)."""
    return np.ravel_multi_index((kp.sum(-1), kp[..., 0], kp[..., 1]), (4 * n, n, n), mode="wrap")


# The scan's fixed part at one (kind, n): the phase rows of the first
# `cells` cells of the node group (the whole group, or for a real kernel
# the half c_0 <= 2n) followed by one block per collision rank, the `adds`
# that fold those blocks into their cells, the weight values, the group cell
# of every node image (images, nodes), the image signs and node factors.
_Plan = namedtuple("_Plan", "n cells rows adds wvals at signs factor real")


def _lebesgue_plan(kind: str, n: int) -> _Plan:
    """The scan's plan for ``kind`` at degree n."""
    nodes, spec = node_set(kind, n), _KINDS[kind]
    cells, d = (2 * n + 1 if spec.s4 else 4 * n) * n * n, 2 * n + 1
    wbox = _weight_box(spec.rule, n)
    kp = np.argwhere(wbox) - n
    cls = _dual_cells(kp, n)
    wvals, widx = np.unique(wbox[wbox != 0], return_inverse=True)
    # per frequency: its row of the (k'_1, k'_2) exps and of the weighted
    # k'_3 exps; row d * d of the former is zero
    src = np.stack([(kp[:, 0] + n) * d + kp[:, 1] + n, widx * d + kp[:, 2] + n])
    # only the frequencies of the formed cells; rank of each within its
    # class; phase row c holds the rank-0 member of class c (the zero row
    # when c is empty), and the members of rank 1, 2, ... follow in one
    # block per rank
    keep = np.flatnonzero(cls < cells)
    src, cls = src[:, keep], cls[keep]
    order = np.argsort(cls, kind="stable")
    rank = np.empty_like(cls)
    rank[order] = np.arange(len(cls)) - np.searchsorted(cls[order], cls[order])
    levels = [np.flatnonzero(rank == r) for r in range(rank.max(initial=0) + 1)]
    rows = np.tile([[d * d], [0]], cells)
    rows[:, cls[levels[0]]] = src[:, levels[0]]
    rows = np.hstack([rows] + [src[:, lv] for lv in levels[1:]])
    adds, end = [], cells
    for lv in levels[1:]:
        adds.append((slice(end, end + len(lv)), cls[lv]))
        end += len(lv)
    # group cell of every image j sigma of every node, (images, nodes)
    js = nodes[:, PERM_TABLE[: len(spec.signs)]].transpose(1, 0, 2)
    return _Plan(n, cells, rows, adds, wvals, _node_cells(js, n),
                 spec.signs / len(spec.signs),
                 np.full(len(nodes), spec.factor(n), dtype=float), spec.s4)


def _lebesgue_function(n: int, kind: str, pts: np.ndarray) -> np.ndarray:
    """Lambda(t) = sum_j |ell_j(t)| at the homogeneous points pts (m, 4).

    At a point p, ell_j(p) needs K(p - y) = sum_k w_k phi_k(p - y) only at
    the node images y = j sigma / 4n, which fill the node group of
    ``_node_cells``.  Per point the phases w_k exp(2 pi i k'.p) (products of
    per-axis exps over [-n, n]) are added into the cell of k
    (``_dual_cells``), where boundary frequencies of H_n* alias, and one
    transform of size 4n x n x n gives K(p - y) on the whole group: the
    complex FFT for ``in``, and for the real kernels, whose phases are
    Hermitian on the group, the real inverse FFT of the conjugated phases
    on the half group c_0 <= 2n.  Points go in chunks that cap every array
    a chunk forms at 2^20 elements.
    """
    plan = _lebesgue_plan(kind, n)
    # per point: phases, kernel on the group, kernel at the images, exps
    largest = max(plan.rows.shape[1], 4 * plan.n**3, plan.at.size, (2 * plan.n + 1) ** 2 + 1)
    step = max(1, _CHUNK_ELEMENTS // largest)
    chunks = [pts[i : i + step] for i in range(0, len(pts), step)]
    return np.concatenate(map_chunks(functools.partial(_lebesgue_chunk, plan), chunks))


def _lebesgue_chunk(plan: _Plan, p: np.ndarray) -> np.ndarray:
    """Lambda at the points p (m, 4) from the plan of one (kind, n)."""
    n, m, d = plan.n, len(p), 2 * plan.n + 1
    freq = 2j * np.pi * np.arange(-n, n + 1)
    e = np.exp(freq[:, None, None] * (p[:, :3] % 1.0).T)  # (2n + 1, 3, m)
    e01 = np.zeros((d * d + 1, m), dtype=complex)
    e01[:-1] = (e[:, None, 0] * e[None, :, 1]).reshape(-1, m)
    ph = e01[plan.rows[0]]
    ph *= (plan.wvals[:, None, None] * e[:, 2]).reshape(-1, m)[plan.rows[1]]
    for sl, c in plan.adds:
        ph[c] += ph[sl]
    g = ph[: plan.cells].reshape(-1, n, n, m)
    if plan.real:
        # irfftn(g.conj(), s=(n, n, 4n), axes=(1, 2, 0), norm="forward"),
        # its complex passes in place: a fresh array per pass costs more
        # than the pass (one thread, 2-CPU Xeon: 11-18% at n = 16)
        np.conjugate(g, out=g)
        np.fft.ifft(g, axis=1, norm="forward", out=g)
        np.fft.ifft(g, axis=2, norm="forward", out=g)
        g = np.fft.irfft(g, 4 * n, axis=0, norm="forward")
    else:
        np.fft.fftn(g, axes=(0, 1, 2), out=g)
    # the image sum on the float view (a no-op view for a real kernel), so
    # a complex kernel's signs multiply floats
    ell = plan.signs @ g.reshape(-1, m)[plan.at].reshape(len(plan.signs), -1).view(float)
    return plan.factor @ np.abs(ell.view(g.dtype).reshape(-1, m))
