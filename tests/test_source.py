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


def test_cli_writes_stdout_only_in_main():
    # handlers return their answer and `main` writes it once it is rendered
    # whole, so an error can leave nothing behind on stdout: every print is
    # a diagnostic on stderr, and no function but `main` touches sys.stdout
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    prints = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    to_stdout = [
        node.lineno
        for node in prints
        if not any(
            kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
            for kw in node.keywords
        )
    ]
    (main,) = [fn for fn in tree.body if getattr(fn, "name", None) == "main"]
    in_main = set(map(id, ast.walk(main)))
    stdout = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"
    ]
    assert prints and to_stdout == []
    assert stdout and [node.lineno for node in stdout if id(node) not in in_main] == []


def test_slots_joined_only_in_maps_slots():
    # a map's images are its 2n generator slots, l_1..l_n then r_1..r_n;
    # `maps._slots` is the one place that spells out that order
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if path.name == "maps.py" and getattr(fn, "name", None) == "_slots"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Add)
            and getattr(node.left, "attr", None) == "l_images"
            and getattr(node.right, "attr", None) == "r_images"
            and id(node) not in allowed
        ]
    assert list(SRC.glob("*.py"))
    assert found == []


def test_term_budget_read_only_to_refuse():
    # a budget decides whether a result is refused, never which algorithm
    # computes it: the bound is read inside `_charge` or as
    # `limit = TERM_BUDGET.get()` for a site that charges a running size
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_charge"
            for node in ast.walk(fn)
        } | {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and list(map(ast.unparse, node.targets)) == ["limit"]
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "TERM_BUDGET.get"
            and id(node) not in allowed
        ]
    assert list(SRC.glob("*.py"))
    assert found == []


# Exported names that no other source module reaches, each with its reason
UNREACHED_EXPORTS = {
    "normal_form_oracle": "the independent oracle, kept apart from the kernel it checks",
    "graded_slice": "bench/spans.py wraps it by name; an acceptance criterion calls it",
    "dim": "an acceptance criterion calls it",
    "derivation_coords": "an acceptance criterion calls it",
    "der_lm_lc": "deferred: removing it moves an import-time garbage collection",
    "restrict_r": "deferred: removing it moves an import-time garbage collection",
    "identity_endo": "deferred: removing it moves an import-time garbage collection",
    "triangular_tuple": "deferred: removing it moves an import-time garbage collection",
}


def test_exports_are_reached():
    # every name `lsea/__init__.py` imports is used somewhere in the package
    # besides its own definition, or is listed above with its reason; a
    # listed name that becomes reached or stops being exported fails too
    exports = {
        alias.name: node.module
        for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    reached = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            targets = top.targets if isinstance(top, ast.Assign) else [top]
            own = {getattr(t, "name", getattr(t, "id", None)) for t in targets}
            reached |= {
                name
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
                for name in [getattr(node, "id", getattr(node, "attr", None))]
                if not (name in own and exports.get(name) == path.stem)
            }
    assert exports
    assert sorted(set(exports) - reached) == sorted(UNREACHED_EXPORTS)
