"""Properties of the package source itself."""

import ast
from pathlib import Path

import rootcones

SOURCE = Path(rootcones.__file__).parent


def test_no_assert_does_verification_work():
    # `python -O` strips assert statements, so a check written as one
    # would silently stop running; checks raise package errors instead.
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert found == []
