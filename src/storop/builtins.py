"""Named closed terms: numerals, successor, and the storage operators.

``parse_term(src, BUILTINS)`` reads a source with this table in scope, so
it may say e.g. ``(@T1) @church:3 f``. The storage operators are looked up
by name: T and T' built over T1 are ``BUILTINS["T"]`` and
``BUILTINS["Tp"]``, over T2 ``BUILTINS["T_2"]`` and ``BUILTINS["Tp_2"]``.
"""

from __future__ import annotations

from storop.terms import Term, parse_term

__all__ = ["BUILTINS"]


def _boot() -> dict[str, Term]:
    table: dict[str, Term] = {}

    def add(name: str, src: str) -> None:
        table[name] = parse_term(src, table)

    add("zero", "\\x f x")
    add("succ", "\\n x f (f) ((n) x) f")
    add("delta", "\\f (f) @zero")
    add("G", "\\x y (x) \\z (y) (@succ) z")
    add("F", "\\x y (x) (@succ) y")
    add("T1", "\\n ((n) @delta) @G")
    add("T2", "\\n f (((n) f) @F) @zero")
    add("T", "\\v f ((v) (@T1) v f) \\x x")
    add("Tp", "\\v f ((v) (@T1) v f) \\d (@T1) v f")
    add("T_2", "\\v f ((v) (@T2) v f) \\x x")
    add("Tp_2", "\\v f ((v) (@T2) v f) \\d (@T2) v f")
    add("omega", "(\\x (x) x) \\x (x) x")
    add("theta0", "\\x f z (x) (\\d z) \\x x")
    return table


BUILTINS: dict[str, Term] = _boot()

