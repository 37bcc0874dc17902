"""Rules the package sources keep."""

import ast
from pathlib import Path

import lsea

SRC = Path(lsea.__file__).resolve().parent


def test_no_assert_in_src():
    # `python -O` strips assert statements, so a runtime invariant written as
    # one would silently stop being checked; invariants raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py"))
    assert found == []


def test_no_self_recursion_in_src():
    # recursion depth would grow with the degree, the power or the word
    # length asked for, so the sources enumerate, unroll and straighten
    # with loops; a function may not reach itself through other functions
    # of its module either
    found = []
    for path in sorted(SRC.glob("*.py")):
        calls: dict[str, set[str]] = {}
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls.setdefault(fn.name, set()).update(
                    node.func.id
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                )
        for name, callees in calls.items():
            reached, todo = set(), list(callees)
            while todo:
                callee = todo.pop()
                if callee in calls and callee not in reached:
                    reached.add(callee)
                    todo.extend(calls[callee])
            if name in reached:
                found.append(f"{path.name} {name}")
    assert list(SRC.glob("*.py"))
    assert found == []
