"""Every library name the benchmark's workloads and harness read still exists.

``bench/workloads.py`` and ``bench/harness.py`` reach fcctrig through module
aliases (``F``, ``I``, ``K``, ``T``, ``cli``) and ``from fcctrig... import``
lines, so a rename or a deletion would only surface when the benchmark runs.
This parses both files with ``ast`` and resolves each such name: every
imported name, and every attribute read off an alias bound to a module.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
FILES = ("workloads.py", "harness.py")


def _resolve(dotted: str):
    """The object a dotted fcctrig name refers to, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _is_module(dotted: str) -> bool:
    try:
        return isinstance(_resolve(dotted), types.ModuleType)
    except (AttributeError, ImportError):
        return False


def _names(path: Path) -> list:
    """The dotted fcctrig names the file imports or reads off a module alias."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names
                           if a.name.split(".")[0] == "fcctrig")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fcctrig":
            aliases.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    names = set(aliases.values())
    modules = {a: d for a, d in aliases.items() if _is_module(d)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return sorted(names)


READS = [(f, name) for f in FILES for name in _names(BENCH / f)]


def test_each_file_reads_the_library():
    # a parse that finds nothing would make the check below vacuous
    for f in FILES:
        assert sum(r[0] == f for r in READS) >= 5, f


@pytest.mark.parametrize("path, name", READS, ids=str)
def test_bench_name_resolves(path, name):
    try:
        _resolve(name)
    except (AttributeError, ImportError):
        pytest.fail(f"bench/{path} reads {name}, which does not resolve")
