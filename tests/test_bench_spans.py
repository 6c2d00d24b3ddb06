"""Every traced name of the benchmark's span tracer still exists.

``bench/spans.py`` wraps each ``(module, attr)`` of ``SPANS`` by name, so a
refactor that moves or deletes one would only surface in a traced bench
run.  This resolves them the way ``Tracer.install`` does: a plain name with
``getattr`` on its module, ``Class.method`` in the class's own ``__dict__``.
It also feeds a built interpolant to the tracer's size counter, which reads
the interpolant's ``kind`` and ``nodes``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fcctrig.interpolation import BUILDERS, tetra_grid

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS = _load_spans()


def test_modules_import():
    for name in SPANS.MODULES:
        importlib.import_module(f"fcctrig.{name}")


@pytest.mark.parametrize("modname, attr, group", SPANS.SPANS, ids=lambda v: str(v))
def test_span_target_resolves(modname, attr, group):
    mod = importlib.import_module(f"fcctrig.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        target = vars(getattr(mod, cls_name, object)).get(meth)
    else:
        target = getattr(mod, attr, None)
    assert callable(target), f"fcctrig.{modname}.{attr} does not resolve"


@pytest.mark.parametrize("kind", ["instar", "lnstar"])
def test_interpolant_has_what_the_eval_counter_reads(kind):
    # Tracer._sizes reads .kind and .nodes of the interpolant whose
    # __call__ it wraps; a refactor that drops either fails here, not only
    # in a traced bench run
    interp = BUILDERS[kind](lambda t: t[..., 0], 2)
    assert interp.kind == kind
    pts = tetra_grid(2)
    tracer = SPANS.Tracer()
    tracer._sizes("interpolation.eval", (interp, pts), interp(pts))
    images = 24 if kind == "lnstar" else 1
    assert tracer.counts["interpolation.eval.pairs"] == len(pts) * images * len(interp.nodes)
