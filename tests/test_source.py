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


def _referenced_names(node) -> set[str]:
    """Names a statement reads: plain names, attributes and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_module_level_function_is_used():
    # A helper that nothing in the package calls, imports or re-exports is
    # dead code. Methods are not checked. A reference inside the helper's
    # own definition (recursion) does not count.
    defined = []
    references = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{path.name}:{node.lineno}: {node.name}", node))
            references.append((node, _referenced_names(node)))
    unused = [
        label
        for label, definition in defined
        if not any(
            definition.name in names
            for node, names in references
            if node is not definition
        )
    ]
    assert unused == []
