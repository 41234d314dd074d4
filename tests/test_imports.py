"""Module boundaries: no osclab module reaches into another's private names,
and the package lists in __all__ exactly the public names it imports."""

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


def test_package_exports_match_its_imports():
    # every listed name resolves, and every public name the package
    # imports is listed, so a deletion cannot leave an export behind
    import osclab

    missing = [name for name in osclab.__all__ if not hasattr(osclab, name)]
    assert not missing, missing
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if not alias.name.startswith("_")}
    unlisted = sorted(imported - set(osclab.__all__))
    assert not unlisted, unlisted
