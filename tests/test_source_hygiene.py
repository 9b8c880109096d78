"""Properties of the source tree itself."""

import ast
from pathlib import Path

import monobase

SOURCE = Path(monobase.__file__).resolve().parent


def test_no_assert_statements_in_source():
    # python -O strips assert statements, so every check in the package must
    # raise explicitly.
    paths = sorted(SOURCE.glob("*.py"))
    assert paths, SOURCE
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
