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


def test_package_raises_no_assertion_error():
    # a failed check in the package raises a TdcountError subclass or a
    # standard error the CLI maps to an exit code, never AssertionError
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
