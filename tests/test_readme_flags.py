"""The README documents only flags and options that ``cpalign`` accepts.

Every ``cpalign`` command shown in the README's Tests and CLI sections must
parse, and every ``--flag`` named in those sections must belong to some
``cpalign`` command. Nothing runs: only the argument parser is asked. The
CLI section's list of ``$.options`` keys must be the ``PipelineOptions``
fields. A flag or option deleted in code therefore cannot stay documented.
"""

import argparse
import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from cpalign.cli import build_parser
from cpalign.harness.pipeline import PipelineOptions

README = Path(__file__).resolve().parents[1] / "README.md"
SECTIONS = ("Tests", "CLI")
#: flags of other programs that the sections may name
FOREIGN_FLAGS = {"--no-build-isolation"}


def _section(text: str, title: str) -> str:
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def _documented() -> str:
    text = README.read_text(encoding="utf-8")
    return "\n".join(_section(text, title) for title in SECTIONS)


def _commands(text: str) -> list:
    """The ``cpalign`` command lines of the fenced blocks, continuations
    joined, comments dropped."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("cpalign "):
                commands.append(line)
    return commands


def _known_flags(parser: argparse.ArgumentParser) -> set:
    flags = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _known_flags(sub)
    return flags


@pytest.mark.parametrize("command", _commands(_documented()))
def test_documented_command_parses(command):
    build_parser().parse_args(shlex.split(command)[1:])


def test_documented_flags_exist():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _documented()))
    assert named, "the sections name no flag"
    assert sorted(named - _known_flags(build_parser()) - FOREIGN_FLAGS) == []


def test_documented_option_keys_are_the_pipeline_options():
    text = _section(README.read_text(encoding="utf-8"), "CLI")
    match = re.search(r"The `\$\.options` keys\s+are the `PipelineOptions`\s+fields:(.*?)\.\s",
                      text, re.S)
    assert match, "the CLI section lists no $.options keys"
    keys = re.findall(r"`(\w+)`", match.group(1))
    assert keys == [f.name for f in dataclasses.fields(PipelineOptions)]


def test_a_deleted_flag_would_be_caught():
    # the check itself, on a section naming a flag that cpalign lost
    text = "```sh\ncpalign run --tau-ms 300 \\\n    --ideal-mode global  # gone\n```\n"
    assert _commands(text) == ["cpalign run --tau-ms 300      --ideal-mode global"]
    with pytest.raises(SystemExit):
        build_parser().parse_args(shlex.split(_commands(text)[0])[1:])
    assert "--ideal-mode" not in _known_flags(build_parser())
    assert "--tau-ms" in _known_flags(build_parser())
