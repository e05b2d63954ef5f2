"""Checks over the package source itself."""

import ast
from pathlib import Path

import tdcount

PACKAGE = Path(tdcount.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so an invariant that guards
    # an answer must raise instead
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
