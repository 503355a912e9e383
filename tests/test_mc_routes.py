"""Every running sum in the Monte Carlo engine comes from one function.

``mc._levels_batch`` forms the running sums of weighted increments: the
first integral level, the driver X and the monomial levels of the moment
check.  A cumulative sum anywhere else in ``src/parpath/mc.py`` would
be a second route to the same numbers, free to drift from the first.
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
