"""Source hygiene: every name a module imports is used in that module, and
every private module-level name in the package is read somewhere in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "storop").glob("*.py"))
# storop/__init__.py imports names only to re-export them
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


def test_every_private_module_name_is_read():
    assert unread_private_names([p.read_text(encoding="utf-8") for p in PACKAGE]) == []
