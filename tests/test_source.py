"""Rules the package sources keep."""

import ast
import subprocess
import sys
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


def _names_in(node) -> set:
    """The names and attribute names that occur anywhere in node."""
    return {getattr(x, "attr", None) or getattr(x, "id", None) for x in ast.walk(node)}


def test_slots_joined_only_in_maps_slots():
    # a map's images are its 2n generator slots, l_1..l_n then r_1..r_n;
    # `maps._slots` is the one place that spells out that order, so no other
    # `+` has operands that mention both `l_images` and `r_images`, even
    # through a call such as `_as_images(n, m.l_images)`
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
            and {"l_images", "r_images"} <= _names_in(node.left) | _names_in(node.right)
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


def _bound_names(top) -> set:
    """Names a top-level statement binds by definition or assignment."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _definitions(module: str, tree, exports):
    """(key, name, node, uses) for each top-level function and class, each
    exported assignment, and each method or property that is not a dunder;
    `uses` are the kinds of mention that reach it (see `_mentions`)."""
    for top in tree.body:
        for name in _bound_names(top):
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) or exports.get(name) == module:
                yield name, name, top, {"name", "call", "read"}
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    decorators = {ast.unparse(d) for d in node.decorator_list}
                    prop = decorators & {"property", "cached_property"}
                    uses = {"read"} if prop else {"call", "read"}
                    yield f"{top.name}.{node.name}", node.name, node, uses


def _mentions(tree):
    """(name, kind, node id) of each mention: kind "name" for a bare name,
    "call" for an attribute that is called and "read" for any other
    attribute.  `args.<option>` reads a parsed command-line option and is
    skipped."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, "name", id(node)
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) != "args":
            yield node.attr, "call" if id(node) in called else "read", id(node)


# Definitions and exported names that nothing else in the package reaches,
# each with its reason
UNREACHED = {
    "normal_form_oracle": "the independent oracle, kept apart from the kernel it checks",
    "graded_slice": "bench/spans.py wraps it by name; an acceptance criterion calls it",
    "dim": "an acceptance criterion calls it",
    "derivation_coords": "an acceptance criterion calls it",
    "RDerivation": "bench/spans.py wraps `RDerivation.__call__` by name",
    "map_from_json": "bench/checks.py re-reads basis members with it; the CLI keeps the violations",
}


def test_exports_are_reached():
    # every name `lsea/__init__.py` imports, every top-level function and
    # class and every method or property that is not a dunder is reached
    # from somewhere in the package besides its own definition and
    # `__init__.py`, is registered as a suite, or is listed above with its
    # reason; a listed name that becomes reached or goes away fails too.
    # A method counts as reached by an attribute of its name, a property
    # only by one that is not called.
    exports = {
        alias.name: node.module
        for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    mentions: dict[str, list[tuple[str, int]]] = {}
    for tree in trees.values():
        for name, kind, node_id in _mentions(tree):
            mentions.setdefault(name, []).append((kind, node_id))
    defined, unreached = set(), set()
    for module, tree in trees.items():
        for key, name, node, uses in _definitions(module, tree, exports):
            defined.add(name)
            inside = {id(x) for x in ast.walk(node)}
            registered = any(
                isinstance(d, ast.Call) and ast.unparse(d.func) in ("_per_case", "_suite")
                for d in getattr(node, "decorator_list", ())
            )
            reached = any(
                kind in uses and node_id not in inside
                for kind, node_id in mentions.get(name, ())
            )
            if not (registered or reached):
                unreached.add(key)
    assert exports and set(exports) <= defined
    assert sorted(unreached) == sorted(UNREACHED)


# Every memo in the package (`lru_cache`, `functools.cache`, `cached_property`)
# with the workloads that pay for it: hits/misses over the four seed-0 op
# lists of each `bench/run.py` workload, each list in its own interpreter
MEMOS = {
    "_rword_past_monomial": "expand 6,858/1,378, derspace 37,968/1,316, verify 50,388/2,506",
    "_r_word_part": "derspace 47,004/3,560, verify 34,454/3,389",
    "_relation_table": "derspace 1,272/8, verify 1,133/12; one table per ambient n",
    "generator": "expand 2,202/40, derspace 2,002/40, verify 24,919/48",
    "Element.zero": "derspace 68/8, verify 3,345/12",
    "Element.one": "expand 56/4, verify 25,465/12",
    "build_parser": "expand 412/4, derspace 412/4, verify 596/4; one parser build per process",
}

_MEMO_DECORATORS = {"lru_cache", "cache", "cached_property"}


def test_every_memo_is_listed():
    # a memo keeps what it computes for the life of the process, so it must
    # have traffic on some workload to pay for itself: a new one needs an
    # entry above, and a deleted one takes its entry with it
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {
            id(node): f"{top.name}."
            for top in tree.body
            if isinstance(top, ast.ClassDef)
            for node in top.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                ast.unparse(getattr(d, "func", d)).rpartition(".")[2] in _MEMO_DECORATORS
                for d in node.decorator_list
            ):
                found.add(owners.get(id(node), "") + node.name)
    assert list(SRC.glob("*.py"))
    assert sorted(found) == sorted(MEMOS)


def test_cli_import_diet(subprocess_env):
    # every `lsea` command starts by importing `lsea.cli`: its records are
    # NamedTuples, so `dataclasses` and the `inspect` it pulls in stay out,
    # and the suites load only when `lsea verify` runs
    probe = "import sys, lsea.cli; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, encoding="utf-8",
        env=subprocess_env, check=True,
    )
    loaded = set(proc.stdout.split())
    assert "lsea.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "lsea.verify"})
