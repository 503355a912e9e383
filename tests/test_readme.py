"""The README's documented CLI and config contract matches the code."""

import pathlib
import re

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
