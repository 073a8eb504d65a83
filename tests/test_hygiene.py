"""Source hygiene: every name a module imports is used in that module, and
every private module-level name in the package is read somewhere in it, or
by the generator of the bundled derivations."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "storop").glob("*.py"))
# storop/__init__.py imports backend_name only to re-export it
FILES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no other part of the module reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scanner_finds_unused_names():
    src = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nos.sep, d\n"
    assert unused_imports(src) == ["b"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level names with one leading underscore that no other top-level
    statement of any of the sources reads, as a name or an attribute."""
    defined: dict[str, list[tuple[int, int]]] = {}
    reads: dict[str, set[tuple[int, int]]] = {}
    for m, source in enumerate(sources):
        for i, stmt in enumerate(ast.parse(source).body):
            for name in _bound_names(stmt):
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, []).append((m, i))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, set()).add((m, i))
                elif isinstance(node, ast.Attribute):
                    reads.setdefault(node.attr, set()).add((m, i))
    return sorted(n for n, where in defined.items() if not reads.get(n, set()) - set(where))


def test_private_name_scanner():
    first = "_read = 1\n_unread: int = 2\n_a, (_b, _c) = 3, (4, 5)\nclass _Cls: pass\n"
    first += "def _rec(n):\n    return _rec(n - 1)\n__all__ = []\n"
    second = "from first import _read\nprint(_read, _Cls, first._b, _c)\n"
    assert unread_private_names([first, second]) == ["_a", "_rec", "_unread"]


# Rule constructors that only the generator of the bundled derivations,
# tests/builders.py, reads: typecheck keeps them, as the one module that
# knows how a rule's conclusion follows from its premises.
READ_BY_THE_BUILDERS = ["_app", "_eq"]


def test_every_private_module_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert unread_private_names(sources) == READ_BY_THE_BUILDERS
    builders = (ROOT / "tests" / "builders.py").read_text(encoding="utf-8")
    assert unread_private_names(sources + [builders]) == []


def _callees(fn: ast.FunctionDef) -> set[str]:
    """The names fn calls, nested functions included, by name or through self."""
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                out.add(f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                if f.value.id == "self":
                    out.add(f.attr)
    return out


def recursive_functions(source: str) -> list[str]:
    """Functions, nested ones and methods included, that lie on a cycle of
    calls within the module: a call counts by name or through self, and
    functions of one name count as one."""
    calls: dict[str, set[str]] = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls.setdefault(fn.name, set()).update(_callees(fn))
    on_cycle = []
    for name in calls:
        seen, todo = set(), list(calls[name])
        while todo and name not in seen:
            g = todo.pop()
            if g in calls and g not in seen:
                seen.add(g)
                todo += calls[g]
        if name in seen:
            on_cycle.append(name)
    return sorted(on_cycle)


def test_self_call_scanner():
    src = (
        "def f(n):\n    return f(n - 1)\n"
        "class P:\n    def un(self):\n        return self.un()\n"
        "    def g(self, other):\n        return other.g()\n"
        "def h():\n    def walk(x):\n        return walk(x)\n    return walk\n"
        "def even(n):\n    return n == 0 or odd(n - 1)\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n"
    )
    assert recursive_functions(src) == ["even", "f", "odd", "un", "walk"]


# The walkers that still recurse once per node, for every module of the
# package. They run under terms._deep, with the recursion limit lifted, so
# their depth is bounded by memory. The lists may only shrink: a new walker
# uses an explicit stack, as formulas._alpha_eq does, or formulas._fold, the
# one post-order fold over formulas, first-order terms and derivations.
STILL_RECURSIVE = {"terms.py": ["_match", "_subst1"]}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_new_recursive_walkers(path):
    source = path.read_text(encoding="utf-8")
    assert recursive_functions(source) == STILL_RECURSIVE.get(path.name, [])


def _calls(node: ast.AST, module: str, attr: str) -> bool:
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == attr
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == module
        for n in ast.walk(node)
    )


def callers(source: str, module: str, attr: str) -> list[str]:
    """The functions that call module.attr(), "<module>" for a call outside
    any function, and "from <module>" for a name imported from module."""
    tree = ast.parse(source)
    found = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls(fn, module, attr)
    }
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    if any(_calls(s, module, attr) for s in tree.body if not isinstance(s, defs)):
        found.add("<module>")
    if any(isinstance(n, ast.ImportFrom) and n.module == module for n in ast.walk(tree)):
        found.add(f"from {module}")
    return sorted(found)


def test_collector_pause_scanner():
    src = (
        "import gc\ngc.disable()\n"
        "def f():\n    gc.disable()\n"
        "def g():\n    gc.enable()\n"
        "class C:\n    def m(self):\n        gc.disable()\n"
    )
    assert callers(src, "gc", "disable") == ["<module>", "f", "m"]
    assert callers("from gc import disable\n", "gc", "disable") == ["from gc"]


# Only terms._deep pauses the cyclic collector, for the one call it guards;
# DEEP_CALLERS pins who goes through it.
PAUSES_COLLECTOR = {"terms.py": ["_deep"]}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_kernel_pauses_the_collector(path):
    source = path.read_text(encoding="utf-8")
    assert callers(source, "gc", "disable") == PAUSES_COLLECTOR.get(path.name, [])


def test_recursion_limit_scanner():
    src = (
        "import sys\nsys.setrecursionlimit(10**6)\n"
        "def f():\n    sys.setrecursionlimit(10**6)\n"
        "def g():\n    sys.getrecursionlimit()\n"
        "class C:\n    def m(self):\n        sys.setrecursionlimit(10**6)\n"
    )
    assert callers(src, "sys", "setrecursionlimit") == ["<module>", "f", "m"]
    assert callers("from sys import setrecursionlimit\n", "sys", "setrecursionlimit") == [
        "from sys"
    ]


# The recursive walkers in STILL_RECURSIVE run with the recursion limit
# lifted, and only terms._deep lifts it, for as long as the call it guards
# runs. No module sets it on import.
SETS_RECURSION_LIMIT = {"terms.py": ["_deep"]}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_deep_walks_set_the_recursion_limit(path):
    source = path.read_text(encoding="utf-8")
    assert callers(source, "sys", "setrecursionlimit") == SETS_RECURSION_LIMIT.get(path.name, [])


def users(source: str, name: str) -> list[str]:
    """The functions that read name, bare or as an attribute, and "<module>"
    for such a read outside any function."""
    tree = ast.parse(source)

    def reads(node: ast.AST) -> bool:
        return any(
            (isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load))
            or (isinstance(n, ast.Attribute) and n.attr == name)
            for n in ast.walk(node)
        )

    found = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and reads(fn)
    }
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    if any(reads(s) for s in tree.body if not isinstance(s, defs)):
        found.add("<module>")
    return sorted(found)


def test_guard_user_scanner():
    src = (
        "from terms import _deep\n"
        "def _deep(fn):\n    return fn()\n"
        "def f():\n    return _deep(g)\n"
        "def h():\n    return terms._deep(g)\n"
        "def k():\n    return map(_deep, [])\n"
        "def m():\n    _deep = 1\n"
        "class C:\n    def n(self):\n        return _deep(g)\n"
        "x = _deep\n"
    )
    assert users(src, "_deep") == ["<module>", "f", "h", "k", "n"]


# The functions that run a call under terms._deep, which pauses the
# collector and lifts the recursion limit, interpreter-wide, while it runs.
# A new caller widens who changes that state, so it is named here.
DEEP_CALLERS = {
    "reduction.py": ["head_reduce", "normalize"],
    "storage.py": ["certify"],
    "terms.py": ["church", "match_holes", "parse_term", "substitute"],
}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_named_functions_go_through_the_guard(path):
    source = path.read_text(encoding="utf-8")
    assert users(source, "_deep") == DEEP_CALLERS.get(path.name, [])


# Only terms._scan runs a token pattern, cutting trailing whitespace first,
# so that no text is scanned in quadratic time; a new token loop goes
# through it rather than calling findall or finditer itself.
SCANS = {"terms.py": ["_scan"]}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_one_scan_runs_a_token_pattern(path):
    source = path.read_text(encoding="utf-8")
    assert users(source, "findall") + users(source, "finditer") == SCANS.get(path.name, [])


def test_import_leaves_the_recursion_limit_alone():
    code = (
        "import sys\n"
        "before = sys.getrecursionlimit()\n"
        "import storop, storop.cli\n"
        "print(before, sys.getrecursionlimit())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert out[0] == out[1]
