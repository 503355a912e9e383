"""The README's documented CLI and config contract matches the code."""

import importlib.util
import pathlib
import re

import parpath
from parpath import cli, config

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(start, end):
    return README[README.index(start):README.index(end)]


def test_config_table_lists_the_registry():
    table = _section("| key | default | meaning |", "\nFor `mc.check = ldp`")
    keys = set()
    for row in table.splitlines()[2:]:
        keys.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    assert keys == set(config.REGISTRY)


def test_documented_commands_and_checks_exist():
    cli_text = _section("## CLI", "Output is CSV/JSON only")
    commands = re.findall(r"^\* `(\w+)` ", cli_text, flags=re.M)
    assert commands == list(cli._COMMANDS)
    checks = re.search(r"`mc\.check` set to\s+(.*?)\)", cli_text, flags=re.S)
    assert set(re.findall(r"`(\w+)`", checks.group(1))) == set(cli._MC_CHECKS)
    assert "`mc_summary.json`" in cli_text


def _resolves(name):
    if name.startswith("parpath."):
        return importlib.util.find_spec(name) is not None
    return hasattr(parpath, name)


def test_box_names_resolve_on_parpath():
    box = _section("What is in the box:", "## Install")
    names = set()
    for span in re.findall(r"`([^`]+)`", box):
        match = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span)
        # A bare span naming a command is the command; a call is Python.
        if match and (match.group(2) or span not in cli._COMMANDS):
            names.add(match.group(1))
    assert {"parpath.core", "PartialRoughPath", "integral", "solve_model",
            "lipschitz_ratio"} <= names
    assert [n for n in sorted(names) if not _resolves(n)] == []
