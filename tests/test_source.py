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
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _unused_module_level(kinds):
    """Labels of the top-level definitions of `kinds` that nothing reads.

    A function or class defines its name; an assignment defines each
    plain name among its targets, except dunder names. A reference inside
    the definition itself (recursion) does not count.
    """
    defined = []
    references = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            references.append((node, _referenced_names(node)))
            if not isinstance(node, kinds):
                continue
            where = f"{path.name}:{node.lineno}: "
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                defined.append((where + node.name, node.name, node))
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and not sub.id.startswith("__"):
                        defined.append((where + sub.id, sub.id, node))
    return [
        label
        for label, name, definition in defined
        if not any(
            name in names for node, names in references if node is not definition
        )
    ]


def test_every_module_level_function_is_used():
    # A helper that nothing in the package calls, imports or re-exports is
    # dead code. Methods are not checked.
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    assert _unused_module_level(kinds) == []


def test_every_module_level_assignment_is_used():
    # Likewise a module-level table or constant that the package never
    # reads; a table only tests read belongs in the tests.
    assert _unused_module_level((ast.Assign, ast.AnnAssign)) == []
