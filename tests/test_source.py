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


def _annotation_names(arg) -> set[str]:
    """The class names an argument's annotation mentions."""
    if arg.annotation is None:
        return set()
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(arg.annotation)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_no_function_takes_a_system_and_a_weight_table():
    # A system's table is `weight_table(rs)`, memoised on the system, so a
    # table passed beside the system restates it and could disagree with it.
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
            names = [_annotation_names(p) for p in params if p is not None]
            for k, first in enumerate(names):
                others = names[:k] + names[k + 1:]
                if "RootSystem" in first and any("WeightTable" in n for n in others):
                    found.append(f"{path.name}:{node.lineno}: {node.name}")
                    break
    assert found == []


def test_memo_is_reached_only_through_per_system():
    # Every memoised value is a function decorated with `roots.per_system`,
    # so one form builds every memo key and only roots.py names the memo.
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "roots.py" and "_memo" in _referenced_names(tree):
            found.append(f"{path.name}: names _memo")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cached"
            ):
                found.append(f"{path.name}:{node.lineno}: calls cached")
    assert found == []
