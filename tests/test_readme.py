"""README's "Quick start in Python" block runs against the current API."""

import re
from pathlib import Path

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
