"""Every registered config key is read by its literal name.

A key in ``config.REGISTRY`` must appear as a subscript,
``cfg["<key>"]``, somewhere in ``src/parpath``; the registry's own
entries are dict keys, not reads.  A key that nothing reads, or one
whose name is pieced together from a prefix, fails here, so a search
for a key's name finds every place that uses it.
"""

import ast
import pathlib

import parpath
from parpath import config

SRC = pathlib.Path(parpath.__file__).resolve().parent


def _read_keys():
    """String constants used as a subscript index in src/parpath."""
    keys = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        keys.update(node.slice.value for node in ast.walk(tree)
                    if isinstance(node, ast.Subscript)
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str))
    return keys


def test_every_registry_key_is_read_by_its_literal_name():
    assert sorted(set(config.REGISTRY) - _read_keys()) == []
