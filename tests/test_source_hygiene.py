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


def test_no_module_imports_a_private_name_from_a_sibling():
    # A module's underscore names are its own; a sibling that needs one should
    # get a public function instead of reaching in.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "monobase":
                continue
            found += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []
