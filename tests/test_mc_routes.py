"""Every running sum in the Monte Carlo engine comes from one function.

``mc._levels_batch`` forms the running sums of weighted increments: the
first integral level, the driver X and the monomial levels of the moment
check.  A cumulative sum anywhere else in ``src/parpath/mc.py`` would
be a second route to the same numbers, free to drift from the first.

The engine also never leaves its row blocks for the per-path lift and
compensated sums of ``parpath.core`` and ``parpath.integrate``.
"""

import ast
import pathlib

import parpath

MC = pathlib.Path(parpath.__file__).resolve().parent / "mc.py"


def _cumsum_callers():
    """The top-level function (or None, for module code) of every
    ``cumsum`` call in mc.py, whether ``np.cumsum``, a method or a bare
    imported name."""
    callers = []
    for top in ast.parse(MC.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name == "cumsum":
                callers.append(owner)
    return callers


def test_only_levels_batch_forms_running_sums():
    assert _cumsum_callers() == ["_levels_batch"]


def _imports_and_names():
    """The modules mc.py imports from, and every name it binds or reads."""
    modules, names = set(), set()
    for node in ast.walk(ast.parse(MC.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return modules, names


def test_engine_neither_lifts_nor_sums_a_single_path():
    modules, names = _imports_and_names()
    assert [m for m in modules if "integrate" in m.split(".")] == []
    assert "integrate" not in names
    assert names & {"lift_sampled_paths", "compensated_sum_level1",
                    "compensated_sum_level2"} == set()
