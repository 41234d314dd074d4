"""README's "Quick start in Python" block runs against the current API,
every line of its "Command line" block parses and runs, README cites no
private name in its code, and it stays short.

README is the user's guide; each private contract lives in the docstring
of the code it describes, so a refactor never has to edit README."""

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


def _code_spans(text: str) -> list:
    """Every inline code span and every fenced block of text."""
    block = re.compile(r"^```[^\n]*\n(.*?)^```", re.DOTALL | re.MULTILINE)
    inline = re.findall(r"`([^`\n]+)`", block.sub("", text))
    return block.findall(text) + inline


def test_readme_cites_no_private_name():
    # a backticked `_name`, `_Class.attr`, `module._name` or `_name(args)`
    # names code whose contract belongs in its docstring
    spans = _code_spans(README.read_text(encoding="utf-8"))
    assert len(spans) > 50
    private = sorted({name for span in spans
                      for name in re.findall(r"(?<![\w'])_[A-Za-z]\w*",
                                             span)})
    assert not private, private


def test_readme_stays_short():
    data = README.read_bytes()
    assert len(data) <= 25_000, len(data)
    # the section from its heading to the next one
    layout = data[data.index(b"\n## Library layout\n") + 1:]
    layout = layout.split(b"\n## ", 1)[0]
    assert len(layout) <= 3_000, len(layout)
