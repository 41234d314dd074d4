"""Module boundaries: no osclab module reaches into another's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "osclab"


def test_no_private_names_imported_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "osclab"
            if not internal:
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert not found, found
