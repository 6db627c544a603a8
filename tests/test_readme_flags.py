"""The README documents only flags and options that ``cpalign`` accepts.

Every ``cpalign`` command shown in the README's Tests and CLI sections must
parse, and every ``--flag`` named in those sections must belong to some
``cpalign`` command. Nothing runs: only the argument parser is asked. The
CLI section's list of ``$.options`` keys must be the ``PipelineOptions``
fields, and the bytes-per-collaborator table must be what the sender's
rule ships. A flag or option deleted in code therefore cannot stay
documented, nor a payload the rule no longer ships.
"""

import argparse
import dataclasses
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cpalign.cli import build_parser
from cpalign.featurizer import BevSpec
from cpalign.harness.codec import wire_bytes
from cpalign.harness.pipeline import SCALE_CHANNELS, PipelineOptions, _shipped

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


#: the options of each row of the Pipeline schedule's bytes table
PAYLOAD_ROWS = {
    "PTAM off": PipelineOptions(ptam=False),
    "PTAM on, ideal motion, oracle ξ (default)": PipelineOptions(),
    "PTAM on, learned motion": PipelineOptions(motion_mode="learned"),
    "PTAM on, learned ξ": PipelineOptions(xi_mode="learned"),
    "PTAM on, learned motion and learned ξ": PipelineOptions(motion_mode="learned",
                                                             xi_mode="learned"),
}


def _payload(opts: PipelineOptions) -> dict:
    """What one collaborator ships under ``opts`` at the default grid, as
    zeros of the shipped shapes."""
    n = BevSpec.centered(19.2, 19.2).height
    return {f"s{s}.{kind}": np.zeros(({"dp": 2, "w": 1}.get(kind, c), n >> s, n >> s))
            for s, c in enumerate(SCALE_CHANNELS) for kind in _shipped(opts, s)}


def _payload_table() -> dict:
    text = _section(README.read_text(encoding="utf-8"), "Pipeline schedule")
    rows = re.findall(r"^\| ([^|]+?) \| (\d+) \| ([\d,]+) \| ([\d,]+) \| ([\d,]+) \|$",
                      text, re.M)
    assert rows, "the Pipeline schedule section has no bytes table"
    return {label: [int(v.replace(",", "")) for v in values]
            for label, *values in rows}


def test_payload_table_is_what_the_sender_ships():
    table = _payload_table()
    assert sorted(table) == sorted(PAYLOAD_ROWS)
    for label, opts in PAYLOAD_ROWS.items():
        payload = _payload(opts)
        want = [len(payload)] + [wire_bytes(payload, mode)
                                 for mode in ("identity", "fp16", "int8")]
        assert table[label] == want, label
