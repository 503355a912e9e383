"""Every name the package exports has a reader outside the tests.

A name in ``parpath.__all__`` must be used in ``src/parpath`` outside
its own definition and ``__init__.py``, be named in ``README.md`` or
``docs/formats.md``, or be bound by the benchmark's trace table
(``perfbench/layers.py`` ``TARGETS``).  A new export that only tests
use fails here.
"""

import ast
import importlib
import inspect
import pathlib
import re

import parpath

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(parpath.__file__).resolve().parent

# Exports with no reader yet, each with the ROADMAP item that settles it.
_UNREACHED = {
    # Item 3: the contraction-principle skeleton checks the minimiser.
    "optimality_report",
    # Item 7: wire in as `mc.check = rde`, or delete.
    "rde_convergence_check",
    # Item 7: delete, or give a caller.
    "dilate",
    "compensated_sum_level2",
    # Item 7: kept; the README promises reconstruction back to plain
    # double sums.
    "reconstruct_level1",
    "reconstruct_level2",
}


def _source_references():
    """Names read in src/parpath (``x`` and ``obj.x``), each module's
    own top-level definition of a name excluded."""
    refs = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                own.setdefault(name, []).append((node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if not any(lo <= node.lineno <= hi for lo, hi in own.get(name, ())):
                refs.add(name)
    return refs


def _documented_names():
    """Identifiers inside backtick spans of the README and formats doc."""
    text = "".join((ROOT / doc).read_text(encoding="utf-8")
                   for doc in ("README.md", "docs/formats.md"))
    return {token for span in re.findall(r"`([^`]+)`", text)
            for token in re.findall(r"[A-Za-z_]\w*", span)}


def _traced_bindings(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    layers = importlib.import_module("perfbench.layers")
    return {attr for _, attr, _, _ in layers.TARGETS}


def _unreached(monkeypatch):
    reached = (_source_references() | _documented_names()
               | _traced_bindings(monkeypatch))
    # Submodules are the package's layout, not exported names.
    return {name for name in parpath.__all__
            if not inspect.ismodule(getattr(parpath, name))
            and name not in reached}


def test_every_export_has_a_reader_outside_the_tests(monkeypatch):
    assert sorted(_unreached(monkeypatch) - _UNREACHED) == []


def test_unreached_allowlist_is_current(monkeypatch):
    # An entry that gained a reader, or left the exports, leaves the list.
    assert _UNREACHED <= set(parpath.__all__)
    assert sorted(_UNREACHED - _unreached(monkeypatch)) == []
