"""Source checks that need no third-party linter: the standard ``ast``
module reads every function of ``src/pathlab``."""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pathlab"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn: ast.AST):
    """The nodes of a function's own scope: its body without the functions,
    lambdas and classes nested in it (comprehensions are walked, so their
    targets count as the function's)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """The names a function assigns in its own scope and never reads there
    or in a scope nested in it; names starting with ``_`` are exempt, and so
    are names declared global or nonlocal."""
    stored, declared = set(), set()
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stored.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in stored - read - declared if not name.startswith("_"))


def _unread_in(source: str) -> list[str]:
    return [
        f"{node.name}: {name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name in _unread_locals(node)
    ]


def test_no_function_assigns_a_local_it_never_reads():
    found = [f"{path.name}: {hit}" for path in sorted(SRC.glob("*.py")) for hit in _unread_in(path.read_text())]
    assert found == []


def test_unread_local_check_sees_what_it_should():
    source = '''
def f(xs):
    kept = 1
    lost = [x for x in xs]
    _skip = 2
    count = 0
    count += 1
    for i, _ in enumerate(xs):
        pass
    def inner():
        return kept
    return inner
'''
    # ``count += 1`` stores without a load, a loop index is a local too, and
    # a read in a nested function counts
    assert _unread_in(source) == ["f: count", "f: i", "f: lost"]
