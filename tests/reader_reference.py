"""The derivation reader as it stood before it read in one pass, kept as the
reference for the differential test in test_typecheck.py.

It reads in two steps: ``_sexp_parse`` turns the text into nested lists of
("atom", text) and ("str", text) tokens, and ``formulas._fold`` then walks
those forms, premises first, building each node with ``_read_node``.
Formulas and subject terms are interned over ``_fold`` too. Its results and
its error messages are what ``storop.typecheck.read_derivation`` must
reproduce.
"""

import re
from functools import partial
from operator import itemgetter
from typing import Optional

from storop.formulas import (
    Atom,
    Formula,
    PredAbstraction,
    Quantifier,
    _fold,
    _parse_foterm_src,
    _remake,
    parse_formula,
)
from storop.terms import Abs, App, Term, Var, parse_term
from storop.typecheck import Context, Derivation


# one token per match, after any whitespace: a parenthesis, a string with
# its quotes, an atom, or the opening quote of a string that never ends
_SEXP_TOKEN = re.compile(
    r'[ \t\r\n]*(?:([()])|("(?:[^"\\]|\\.)*")|([^ \t\r\n()"]+)|("))', re.DOTALL
)
_SEXP_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_escaped = itemgetter(1)  # the character after a backslash


def _sexp_parse(src: str):
    """src's forms as nested lists of ("atom", text) and ("str", text) tokens."""
    stack: list[list] = [[]]
    # token by token, so a bare quote raises before the rest is scanned
    for m in _SEXP_TOKEN.finditer(src):
        paren, string, atom, quote = m.groups()
        if paren == "(":
            stack.append([])
        elif paren:
            done = stack.pop()
            if not stack:
                raise ValueError("unbalanced parentheses")
            stack[-1].append(done)
        elif string:
            string = string[1:-1]
            if "\\" in string:
                string = _SEXP_ESCAPE.sub(_escaped, string)
            stack[-1].append(("str", string))
        elif atom:
            stack[-1].append(("atom", atom))
        elif quote:
            raise ValueError("unterminated string in derivation file")
    if len(stack) != 1:
        raise ValueError("unbalanced parentheses")
    return stack[0]


def read_derivation(src: str) -> Derivation:
    """Read the text write_derivation produces.

    Every formula, subject term and context read from one text is interned
    in a table built for the call: context entries, types, witness bodies
    and subject terms share one object per exact named structure,
    subformulas and subterms included, and equal contexts (the same names
    bound to the same interned formulas) are one ``Context``. So the
    checker finds unchanged contexts, subjects and types by identity before
    it tries ``==``: every premise of a well-formed app node holds its
    conclusion's context, and the premise of a well-formed abs or app node
    holds the very body, function or argument of its conclusion's subject.
    These shared objects must be treated as immutable; two calls share
    none. Alpha-variants such as ``!x X(x)`` and ``!y X(y)``, or ``\\x x``
    and ``\\y y``, stay distinct objects, each printing its own binder.
    """
    forms = _sexp_parse(src)
    if len(forms) != 1:
        raise ValueError("expected exactly one derivation form")
    return _fold(forms[0], partial(_read_node, {}), _premise_forms)


def _read_formula(src: str, table: dict) -> Formula:
    """parse_formula(src) interned in table, which also maps each text read to its formula."""
    a = table.get(src)
    if a is None:
        a = table[src] = _intern(parse_formula(src), table)
    return a


def _intern(a: Formula, table: dict) -> Formula:
    """table's object for the exact named structure of a, subformulas interned first.

    A node's key is its class, its name or var, its first-order
    arguments and the identities of its interned children; the table keeps
    those children alive, so no identity is reused while it lives. A node
    whose children are already the interned ones is itself kept.
    """
    def combine(x, kids):
        tx = type(x)
        if isinstance(x, Atom):
            key = (tx, x.name, x.args)
        elif isinstance(x, Quantifier):
            key = (tx, x.var, id(kids[0]))
        else:
            key = (tx, *map(id, kids))
        found = table.get(key)
        if found is None:
            found = table[key] = _remake(x, kids)
        return found

    return _fold(a, combine)


def _term_children(t: Term) -> tuple:
    """A term's subterms: its children for _fold."""
    if type(t) is App:
        return (t.fn, t.arg)
    return (t.body,) if type(t) is Abs else ()


def _intern_term(t: Term, table: dict) -> Term:
    """table's object for the exact named structure of t, subterms interned first.

    As in _intern, a node's key is its class, its name or binder and the
    identities of its interned children, and a node whose children are
    already the interned ones is itself kept.
    """
    def combine(x, kids):
        tx = type(x)
        if tx is Var:
            key = (tx, x.name)
        elif tx is Abs:
            key = (tx, x.binder, id(kids[0]))
        else:
            key = (tx, id(kids[0]), id(kids[1]))
        found = table.get(key)
        if found is None:
            if tx is Abs and kids[0] is not x.body:
                x = Abs(x.binder, kids[0])
            elif tx is App and (kids[0] is not x.fn or kids[1] is not x.arg):
                x = App(*kids)
            found = table[key] = x
        return found

    return _fold(t, combine, _term_children)


def _atom(x) -> str:
    if isinstance(x, tuple) and x[0] == "atom":
        return x[1]
    raise ValueError(f"expected an atom, found {x!r}")


def _string(x) -> str:
    if isinstance(x, tuple) and x[0] == "str":
        return x[1]
    raise ValueError(f"expected a string, found {x!r}")


def _form(x, shape: str, size: Optional[int] = None) -> list:
    """x as a list form, of exactly size items when size is given."""
    if isinstance(x, list) and (size is None or len(x) == size):
        return x
    raise ValueError(f"expected {shape}")


def _premise_forms(form) -> list:
    """The forms in the last premises section of a (rule ...) form, if any."""
    for part in reversed(form) if type(form) is list else ():
        if type(part) is list and part and part[0] == ("atom", "premises"):
            return part[1:]
    return []


def _read_node(table: dict, form, premises: tuple) -> Derivation:
    """The node a (rule ...) form describes, over premises already read."""
    if not isinstance(form, list) or len(form) < 2 or _atom(form[0]) != "rule":
        raise ValueError("expected a (rule ...) form")
    rule = _atom(form[1])
    ctx = _read_context((), table)
    term = ftype = witness = None
    seen = set()
    for part in form[2:]:
        if not isinstance(part, list) or not part:
            raise ValueError("malformed derivation section")
        head = _atom(part[0])
        if head in seen:
            raise ValueError(f"repeated {head} section")
        seen.add(head)
        if head in ("term", "type", "witness"):
            _, body = _form(part, f"one item in the {head} section", 2)
        if head == "ctx":
            entries = []
            for entry in part[1:]:
                name, src = _form(entry, '(name "formula") in ctx', 2)
                entries.append((_atom(name), _read_formula(_string(src), table)))
            ctx = _read_context(tuple(entries), table)
        elif head == "term":
            text = _string(body)
            term = table.get(("term", text))
            if term is None:
                term = table[("term", text)] = _intern_term(parse_term(text), table)
        elif head == "type":
            ftype = _read_formula(_string(body), table)
        elif head == "witness":
            witness = _read_witness(body, table)
        elif head != "premises":  # read already, by _premise_forms
            raise ValueError(f"unknown section {head!r}")
    if term is None or ftype is None:
        raise ValueError("derivation node needs term and type")
    return Derivation(rule, ctx, term, ftype, witness, premises)


def _read_context(entries: tuple, table: dict) -> Context:
    """table's Context for entries, keyed by their names and the identities of their
    formulas, which table interned and keeps alive."""
    key = ("ctx", *[(n, id(a)) for n, a in entries])
    ctx = table.get(key)
    if ctx is None:
        ctx = table[key] = Context(entries)
    return ctx


def _read_witness(form, table: dict):
    if not isinstance(form, list) or not form:
        raise ValueError("malformed witness")
    head = _atom(form[0])
    if head == "foterm":
        _, src = _form(form, '(foterm "term")', 2)
        return _parse_foterm_src(_string(src))
    if head == "abst":
        _, params, src = _form(form, '(abst (params) "formula")', 3)
        params = tuple(_atom(p) for p in _form(params, "(params) in abst"))
        return PredAbstraction(params, _read_formula(_string(src), table))
    if head == "steps":
        steps = []
        for s in form[1:]:
            step, name, direction, spath = _form(s, "(step name direction (path))", 4)
            if _atom(step) != "step":
                raise ValueError("expected (step name direction (path))")
            spath = tuple(int(_atom(i)) for i in _form(spath, "(path) in step"))
            steps.append((_atom(name), _atom(direction), spath))
        return tuple(steps)
    raise ValueError(f"unknown witness form {head!r}")
