"""README's "Quick start in Python" block runs against the current API,
and every line of its "Command line" block parses and runs."""

import re
import shlex
from pathlib import Path

import pytest

from osclab.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start in Python", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under Quick start in Python"
    return match.group(1)


def test_quick_start_runs(capsys):
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split("\n")
    assert len([line for line in printed if line]) == 2
    assert namespace["limit"].ok


def _command_lines() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    match = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert match, "no sh block under Command line"
    lines = [shlex.split(line) for line in match.group(1).splitlines()
             if line.startswith("osclab ")]
    assert lines, "no osclab command in the Command line block"
    return [line[1:] for line in lines]


@pytest.mark.parametrize("argv", _command_lines(), ids=" ".join)
def test_command_line_parses(argv):
    build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", _command_lines(), ids=" ".join)
def test_command_line_runs(argv, capsys, tmp_path, monkeypatch):
    # curve and verify write under out/, so every line runs in tmp_path
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out
