"""Span tracer for the benchmark's traced run.

``Tracer.install()`` swaps each function listed in SPANS, in every fcctrig
module that binds it, for a wrapper that times each call as a span of its
group; ``uninstall()`` puts the originals back.  Spans nest, so for every
group the tracer keeps

- ``total``: time of the group's outermost spans (nested calls of the same
  group are not counted twice);
- ``self_time``: span time minus the time of child spans;
- ``within[(group, ancestor)]``: time the group spent under an enclosing
  group, e.g. phi_n_star kernel time inside interpolant evaluation; the
  same keyed by layer, ``within[("kernels", ancestor)]``, counts each
  layer's outermost spans;
- ``calls`` and size counters (nodes generated, kernel pairs, bytes of the
  difference arrays the kernels were given).

The benchmark pins FCC_TRIG_THREADS=1, so every span opens and closes on
the installing thread; calls from any other thread run untraced.
"""

from __future__ import annotations

import importlib
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from fcctrig.symmetry import PERM_TABLE

# (module, attribute, group); the layer of a group is its first component
SPANS = (
    ("lattice", "fold_to_omega_H", "lattice.fold"),
    ("lattice", "phi", "lattice.phi"),
    ("symmetry", "orbit", "symmetry.orbit"),
    ("boundary", "classify_index", "boundary.classify"),
    ("boundary", "congruent_orbit_index", "boundary.orbits"),
    ("indexsets", "generate_Hn", "indexsets.sets"),
    ("indexsets", "generate_Hn_star", "indexsets.sets"),
    ("indexsets", "generate_Hn_circ", "indexsets.sets"),
    ("indexsets", "lambda_nodes", "indexsets.sets"),
    ("indexsets", "lambda_circ_nodes", "indexsets.sets"),
    ("indexsets", "generate_Lambda_n", "indexsets.sets"),
    ("indexsets", "weight_c", "indexsets.weights"),
    ("indexsets", "weight_lambda", "indexsets.weights"),
    ("indexsets", "lambda_weights", "indexsets.weights"),
    ("indexsets", "stratum_counts", "indexsets.weights"),
    ("kernels", "phi_n_star", "kernels.phi_n_star"),
    ("kernels", "dirichlet", "kernels.dirichlet"),
    ("kernels", "dirichlet_product", "kernels.dirichlet"),
    ("kernels", "theta_n", "kernels.theta_n"),
    ("kernels", "edge_sum", "kernels.edge_sum"),
    ("kernels", "phi_n_fund", "kernels.phi_n_fund"),
    ("kernels", "phi_n_star_direct", "kernels.direct"),
    ("kernels", "dirichlet_direct", "kernels.direct"),
    ("kernels", "edge_sum_direct", "kernels.direct"),
    ("trigbasis", "tc", "trigbasis.tc"),
    ("trigbasis", "ts", "trigbasis.ts"),
    ("trigbasis", "tc_direct", "trigbasis.direct"),
    ("trigbasis", "ts_direct", "trigbasis.direct"),
    ("transforms", "inner_n", "transforms.cubature"),
    ("transforms", "inner_n_star", "transforms.cubature"),
    ("transforms", "inner_tetra", "transforms.cubature"),
    ("transforms", "inner_tetra_interior", "transforms.cubature"),
    ("transforms", "cubature_dodeca", "transforms.cubature"),
    ("transforms", "cubature_tetra", "transforms.cubature"),
    ("transforms", "lebesgue_Sn", "transforms.lebesgue_Sn"),
    ("transforms", "unit_cell_points", "transforms.grid"),
    ("interpolation", "interp_In", "interpolation.build"),
    ("interpolation", "interp_In_star", "interpolation.build"),
    ("interpolation", "interp_Ln", "interpolation.build"),
    ("interpolation", "interp_Ln_star", "interpolation.build"),
    ("interpolation", "from_node_values", "interpolation.build"),
    ("interpolation", "Interpolant.__call__", "interpolation.eval"),
    ("interpolation", "lebesgue_interp", "interpolation.lebesgue"),
    ("interpolation", "tetra_grid", "interpolation.grid"),
    ("interpolation", "dodeca_grid", "interpolation.grid"),
    ("_parallel", "map_chunks", "_parallel.map"),
    ("cli", "main", "cli.main"),
)


MODULES = (
    "lattice", "symmetry", "boundary", "indexsets", "kernels", "trigbasis",
    "transforms", "interpolation", "tetra", "_parallel", "cli",
)


# groups whose outermost spans feed size counters
SIZED = frozenset(g for _, _, g in SPANS if g.startswith(("indexsets.sets", "kernels.")))
SIZED |= {"interpolation.eval"}


def _layer(group: str) -> str:
    return group.split(".", 1)[0]


def image_duplicates(points: np.ndarray) -> int:
    """Number of the 24 permuted images of each point that repeat another image.

    Images are compared after rounding to 12 decimals, since the grid's
    coordinates are sums formed in different orders.
    """
    imgs = np.round(points.reshape(-1, 4)[:, PERM_TABLE], 12)
    return sum(len(row) - len(np.unique(row, axis=0)) for row in imgs)


class Tracer:
    def __init__(self):
        self._patched = []
        self._owner = None
        self.reset()

    def reset(self) -> None:
        self._stack = []  # open spans: [group, child time, layer, outermost in layer]
        self._open = {}  # open span count per group
        self._open_layers = {}  # open span count per layer
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.within = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def _enter(self, group: str, layer: str) -> tuple:
        opened, layers = self._open, self._open_layers
        outer, layer_outer = group not in opened, layer not in layers
        opened[group] = opened.get(group, 0) + 1
        layers[layer] = layers.get(layer, 0) + 1
        entry = [group, 0.0, layer, layer_outer]
        self._stack.append(entry)
        return entry, outer, layer_outer

    def _exit(self, entry, outer: bool, d: float) -> None:
        group, child, layer, layer_outer = entry
        stack, opened, layers = self._stack, self._open, self._open_layers
        stack.pop()
        if opened[group] == 1:
            del opened[group]
        else:
            opened[group] -= 1
        if layers[layer] == 1:
            del layers[layer]
        else:
            layers[layer] -= 1
        self.calls[group] += 1
        self.self_time[group] += d - child
        if outer:
            self.total[group] += d
            for anc in opened:
                self.within[(group, anc)] += d
        if layer_outer:
            for anc in opened:
                self.within[(layer, anc)] += d
        if stack:
            stack[-1][1] += d

    @contextmanager
    def span(self, group: str):
        """A span around a block, for the benchmark's own phases and operations."""
        entry, outer, _ = self._enter(group, _layer(group))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(entry, outer, perf_counter() - t0)

    def _wrap(self, group: str, fn):
        tracer, layer, get_ident = self, _layer(group), threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != tracer._owner:
                return fn(*args, **kwargs)
            entry, outer, layer_outer = tracer._enter(group, layer)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(entry, outer, perf_counter() - t0)
            if layer_outer and group in SIZED:
                tracer._sizes(group, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _sizes(self, group, args, out) -> None:
        """Size counters of an outermost span of its layer."""
        if group == "indexsets.sets":
            self.counts["indexsets.nodes"] += len(out)
        elif _layer(group) == "kernels":
            t = np.asarray(args[1], dtype=float)
            self.counts["kernels.pairs"] += t.size // 4
            self.counts["kernels.bytes_computed"] += t.nbytes
        elif group == "interpolation.eval":
            interp, pts = args[0], np.asarray(args[1], dtype=float)
            m = pts.size // 4
            images = 24 if interp.kind in ("ln", "lnstar") else 1
            self.counts["interpolation.eval.pairs"] += m * images * len(interp.nodes)
            if images > 1:
                self.counts["interpolation.images"] += m * images
                self.counts["interpolation.dup_images"] += image_duplicates(pts)

    def install(self) -> None:
        """Wrap every SPANS entry wherever an fcctrig module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._owner = threading.get_ident()
        mods = [importlib.import_module("fcctrig")]
        mods += [importlib.import_module(f"fcctrig.{m}") for m in MODULES]
        for modname, attr, group in SPANS:
            mod = importlib.import_module(f"fcctrig.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(group, orig), orig)
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(group, orig)
            for m in mods:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, name, wrapped, orig)

    def _set(self, owner, name, new, orig) -> None:
        setattr(owner, name, new)
        self._patched.append((owner, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched = []
        self._owner = None
