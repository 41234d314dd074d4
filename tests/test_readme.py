"""README's "Quick start in Python" block runs against the current API,
every line of its "Command line" block parses and runs, and every private
name it cites is still defined."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from osclab.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "osclab"


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


def _defined_names() -> set:
    """Every name that src/osclab defines at any level: functions,
    classes and assigned names, module constants and dataclass fields
    included."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Store):
                names.add(node.id)
    return names


def test_private_names_in_readme_are_defined():
    # a backticked `_name`, `_Class.method` or `_name(args)` in README
    # names code that a rename or deletion must not leave behind
    cited = set()
    for span in re.findall(r"`([^`\n]+)`",
                           README.read_text(encoding="utf-8")):
        match = re.fullmatch(r"(_\w*(?:\.\w+)*)(?:\(.*\))?", span)
        if match:
            cited.add(match.group(1))
    assert len(cited) > 10
    defined = _defined_names()
    stale = sorted(name for name in cited
                   if not set(name.split(".")) <= defined)
    assert not stale, stale
