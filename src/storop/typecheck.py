"""Typed derivation trees and their checker.

A derivation node records rule, context, subject term, stated type, an
optional witness, and premises. The checker revalidates every node against
the rule's side conditions; nothing is inferred or repaired, so a stored
derivation is evidence, not a search problem.

Rules: ax, abs, app, gen-fo, inst-fo, gen-pred, inst-pred, gen-bot,
inst-bot, eq. Fragments restrict the rule set: 'af2' forbids the bottomed
rules, 'af2-bot' allows everything, 'fperp' is propositional (no
first-order layer anywhere, no eq) with the bottomed rules allowed.

This module alone knows how a rule's conclusion follows from its
premises: the checker tests it, and the node constructors ``_ax``,
``_abs``, ``_app``, ``_gen``, ``_inst`` and ``_eq`` compute it. ``_gen``
and ``_inst`` name their rule by the quantifier's namespace.
``lift_star_to_bot`` makes every node it adds with them, and the nodes it
keeps are copied with their context rewritten. The generator of the
bundled derivations, ``tests/builders.py``, makes every node with them.

No walker here recurses. The formulas module's post-order fold over an
explicit stack, ``_fold``, given a node's premises as its children, serves
``Derivation.node_count``, ``forget_derivation``, ``lift_star_to_bot`` and
``write_derivation``. ``check_derivation`` walks the same order in its own
loop, which calls ``_check_node`` directly and keeps the node's path as one
list. ``read_derivation`` makes one pass over the tokens of its text with
one stack of the lists still open, and builds each node as its list
closes. ``Derivation.__eq__`` compares premise pairs off a stack of its
own, and a derivation's repr shows its root node alone.

``read_derivation`` reads in one pass: it hands each distinct formula and
subject text to ``parse_formula`` or ``parse_term`` with the call's intern
table, and they build every node straight into it, and it interns contexts
by their names and formulas. At a well-formed node a premise's context,
subject and type are then the very objects the rule names in its
conclusion, so the checker tries ``is`` before ``==`` on each. The ``==``
fallback decides nodes built apart, as in mutants and derivations built by
the node constructors, and the ``abs`` rule compares the premise's entries
with the conclusion's plus the binder's entry, building no ``Context``.

A ``Context`` maps its names to their formulas in a dict made with it, so
``lookup``, and with it the ``ax`` rule, is one dict read, and it caches
whether every entry is propositional on first use, for the ``fperp``
fragment's test. Both are derived from ``entries``, which must not be
reassigned.

A node keeps the verdict of its last passing check in its ``_verified``
slot: the key ``(fragment, equations)`` under which no node of its subtree
failed. ``check_derivation`` skips a subtree whose root holds the key of
the check in hand, so a mutant that shares all but one path with a checked
derivation is checked along that path alone, with the same failures. The
verdict is sound only while the subtree stays the one checked: a node's
fields must not be reassigned, a changed node is built with
``dataclasses.replace``, which leaves it unverified, and an ``EquationSet``
is fixed when made.

An inst node's stated type is compared by ``==`` with ``instantiate``,
whose substitution loops over an explicit stack, so inst nodes are checked
and their failures worded at any depth. The instance is cached on the
premise's quantifier (its ``_inst`` slot) by the identity of the witness,
so a node checked again, or shared by many mutants, builds it once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

from storop.formulas import (
    Arrow,
    EquationSet,
    FormulaError,
    FoTerm,
    FoVar,
    ForallBot,
    ForallFo,
    ForallPred,
    Formula,
    PredAbstraction,
    PredVarApp,
    _EXIT,
    _fold,
    _is_propositional,
    _parse_foterm_src,
    apply_equation,
    forget_first_order,
    fv_bot,
    fv_fo,
    fv_pred,
    instantiate,
    is_bot_type,
    n_bot_type,
    n_star_type,
    neg,
    parse_formula,
    print_formula,
    print_foterm,
)
from storop.terms import Abs, App, Term, Var, _scan, fresh_name, parse_term, print_term

__all__ = [
    "Context",
    "Derivation",
    "CheckReport",
    "FRAGMENTS",
    "check_derivation",
    "forget_derivation",
    "lift_star_to_bot",
    "write_derivation",
    "read_derivation",
]

FRAGMENTS = ("af2", "af2-bot", "fperp")


class Context:
    """Ordered typing context; names are unique.

    ``_index`` maps each name to its formula, and ``_prop`` caches, once
    asked, whether every entry is propositional. Both are derived from
    ``entries`` when the context is made, so ``entries`` must not be
    reassigned.
    """

    __slots__ = ("entries", "_index", "_prop")

    def __init__(self, entries: Sequence[tuple[str, Formula]] = ()):
        self.entries = tuple(entries)
        self._index = dict(self.entries)
        if len(self._index) != len(self.entries):
            raise ValueError(f"duplicate names in context: {[n for n, _ in self.entries]}")
        self._prop = None

    def extended(self, name: str, a: Formula) -> "Context":
        return Context(self.entries + ((name, a),))

    def lookup(self, name: str) -> Optional[Formula]:
        return self._index.get(name)

    def formulas(self) -> tuple[Formula, ...]:
        return tuple(a for _, a in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Context):
            return NotImplemented
        return self.entries == other.entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        inside = ", ".join(f"{n}: {print_formula(a)}" for n, a in self.entries)
        return f"[{inside}]"


@dataclass(slots=True)
class Derivation:
    """One node of a derivation tree, with its premises.

    ``_verified`` holds the verdict of the node's last passing check: the
    key ``(fragment, equations)`` under which ``check_derivation`` found no
    failure anywhere in the node's subtree, or None. It is no field of the
    constructor, of ``==`` or of the repr, so a node built anew, or copied
    by ``dataclasses.replace``, is unverified. The verdict holds only while
    the subtree is the one checked: a node's fields must not be
    reassigned, and a changed node is built with ``dataclasses.replace``.
    The class is not frozen to enforce this, since a frozen dataclass's
    ``__init__`` costs over four times as much, on every node read.
    """

    rule: str
    ctx: Context
    term: Term
    type: Formula
    witness: object = None
    premises: tuple = ()
    _verified: object = field(default=None, init=False, repr=False, compare=False)

    def node_count(self) -> int:
        return _fold(self, lambda _node, kids: 1 + sum(kids), _premises)

    def __eq__(self, other):
        """Field by field, as @dataclass would, over an explicit stack of premise pairs."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if (
                a.__class__ is not b.__class__
                or a.rule != b.rule
                or a.ctx != b.ctx
                or a.term != b.term
                or a.type != b.type
                or a.witness != b.witness
                or len(a.premises) != len(b.premises)
            ):
                return False
            pairs += zip(reversed(a.premises), reversed(b.premises))
        return True

    def __repr__(self):
        """The node alone: its premises are counted, not shown."""
        return (
            f"Derivation(rule={self.rule!r}, term={self.term!r}, type={self.type!r},"
            f" premises={len(self.premises)})"
        )


# ---------------------------------------------------------------------------
# node constructors: each computes its conclusion from the premises, as the
# checker's rule demands; lift_star_to_bot and tests/builders.py use them


def _ax(ctx: Context, name: str) -> Derivation:
    a = ctx.lookup(name)
    if a is None:
        raise ValueError(f"{name} is not in the context")
    return Derivation("ax", ctx, Var(name), a)


def _abs(p: Derivation) -> Derivation:
    """Abstract p's last context entry."""
    name, a = p.ctx.entries[-1]
    ctx = Context(p.ctx.entries[:-1])
    return Derivation("abs", ctx, Abs(name, p.term), Arrow(a, p.type), None, (p,))


def _app(pf: Derivation, pa: Derivation) -> Derivation:
    return Derivation("app", pf.ctx, App(pf.term, pa.term), pf.type.right, None, (pf, pa))


def _gen(quant: type, p: Derivation, var: str) -> Derivation:
    """The gen rule of quant's namespace, binding var in p's type."""
    rule = ("gen-fo", "gen-pred", "gen-bot")[quant.ns]
    return Derivation(rule, p.ctx, p.term, quant(var, p.type), None, (p,))


def _inst(p: Derivation, w) -> Derivation:
    """The inst rule of p's quantifier namespace at the witness w."""
    rule = ("inst-fo", "inst-pred", "inst-bot")[p.type.ns]
    return Derivation(rule, p.ctx, p.term, instantiate(p.type, w), w, (p,))


def _eq(p: Derivation, eqs: EquationSet, steps: tuple) -> Derivation:
    cur = p.type
    for name, direction, path in steps:
        cur = apply_equation(cur, eqs.get(name), path, direction)
    return Derivation("eq", p.ctx, p.term, cur, tuple(steps), (p,))


@dataclass
class CheckReport:
    ok: bool
    failures: list = field(default_factory=list)


_ARITY = {
    "ax": 0,
    "abs": 1,
    "app": 2,
    "gen-fo": 1,
    "inst-fo": 1,
    "gen-pred": 1,
    "inst-pred": 1,
    "gen-bot": 1,
    "inst-bot": 1,
    "eq": 1,
}

_premises = attrgetter("premises")  # a node's children for _fold

# the namespace a gen-/inst- rule names: its quantifier, free variables, noun
_QUANTIFIERS = {
    "fo": (ForallFo, fv_fo, "first-order"),
    "pred": (ForallPred, fv_pred, "predicate"),
    "bot": (ForallBot, fv_bot, "bottomed"),
}


def check_derivation(
    d: Derivation,
    equations: Optional[EquationSet] = None,
    fragment: str = "af2-bot",
) -> CheckReport:
    """Revalidate every node, premises first; failures carry node paths.

    A subtree whose root passed a check under this fragment and these
    equations holds no failure, and is not entered again; a node whose
    subtree adds no failure is marked so, in its ``_verified`` slot.
    """
    if fragment not in FRAGMENTS:
        raise ValueError(f"fragment must be one of {FRAGMENTS}")
    key = (fragment, equations)
    failures: list = []
    path: list = []  # premise indices from the root down to the node in hand
    # nodes to check; a node entered sits under an _EXIT mark and over the
    # number of failures found before it
    stack: list = [d]
    while stack:
        node = stack.pop()
        if node is _EXIT:
            node = stack.pop()
            before = stack.pop()
            path.pop()
        elif node._verified == key:
            if path:
                path[-1] += 1
            continue
        elif node.premises:
            stack += (len(failures), node, _EXIT, *node.premises[::-1])
            path.append(0)
            continue
        else:
            before = len(failures)
        try:
            msg = _check_node(node, equations, fragment)
        except (FormulaError, ValueError) as exc:
            msg = str(exc)
        if msg is not None:
            failures.append((tuple(path), msg))
        elif len(failures) == before:
            node._verified = key
        if path:
            path[-1] += 1  # on to the next premise of the parent
    return CheckReport(not failures, failures)


def _propositional_context(ctx: Context) -> bool:
    """Whether every entry of ctx is propositional; cached on ctx."""
    out = ctx._prop
    if out is None:
        out = ctx._prop = all(_is_propositional(b) for _, b in ctx.entries)
    return out


def _check_node(node: Derivation, equations, fragment: str) -> Optional[str]:
    """Why node breaks its rule or the fragment, or None; premises are not entered."""
    rule, ctx, term, a = node.rule, node.ctx, node.term, node.type
    want = _ARITY.get(rule)
    if want is None:
        return f"unknown rule {rule!r}"
    if len(node.premises) != want:
        return f"{rule} expects {want} premises, found {len(node.premises)}"
    if fragment == "af2" and rule in ("gen-bot", "inst-bot"):
        return f"{rule} is not part of the af2 fragment"
    if fragment == "fperp":
        if rule in ("gen-fo", "inst-fo", "eq"):
            return f"{rule} is not part of the propositional fragment"
        if not _is_propositional(a) or not _propositional_context(ctx):
            return "propositional fragment requires first-order-free formulas"
    if rule == "ax":
        if type(term) is not Var:
            return "ax subject must be a variable"
        found = ctx.lookup(term.name)
        if found is None:
            return f"{term.name} is not in the context"
        if found is not a and found != a:
            return f"context gives {term.name} : {print_formula(found)}, node says {print_formula(a)}"
        return None

    if rule == "abs":
        (p,) = node.premises
        if type(term) is not Abs:
            return "abs subject must be an abstraction"
        if type(a) is not Arrow:
            return "abs type must be an arrow"
        # the entries' tuple comparison tries identity first, item by item;
        # a premise context cannot bind the binder twice, so a conclusion
        # context that binds it already fails here too
        if p.ctx.entries != ctx.entries + ((term.binder, a.left),):
            return "premise context must extend the conclusion context with the binder"
        if p.term is not term.body and p.term != term.body:
            return "premise subject must be the abstraction body"
        if p.type is not a.right and p.type != a.right:
            return "premise type must be the arrow target"
        return None

    if rule == "app":
        pf, pa = node.premises
        if type(term) is not App:
            return "app subject must be an application"
        if (pf.ctx is not ctx and pf.ctx != ctx) or (pa.ctx is not ctx and pa.ctx != ctx):
            return "premises must share the conclusion context"
        if (pf.term is not term.fn and pf.term != term.fn) or (
            pa.term is not term.arg and pa.term != term.arg
        ):
            return "premise subjects must be the function and argument"
        arrow = pf.type
        if type(arrow) is not Arrow:
            return "function premise must have an arrow type"
        if pa.type is not arrow.left and pa.type != arrow.left:
            return "argument type must match the arrow source"
        if a is not arrow.right and a != arrow.right:
            return "conclusion type must be the arrow target"
        return None

    # the remaining rules keep subject and context fixed
    (p,) = node.premises
    if p.ctx is not ctx and p.ctx != ctx:
        return "premise context must match"
    if p.term is not term and p.term != term:
        return "premise subject must match"

    if rule == "eq":
        if equations is None:
            return "eq rule used but no equations are in scope"
        steps = node.witness
        if not isinstance(steps, (list, tuple)) or not steps:
            return "eq witness must be a non-empty list of rewrite steps"
        cur = p.type
        for step in steps:
            try:
                name, direction, spath = step
            except (TypeError, ValueError):
                return "eq step must be (equation-name, direction, path)"
            try:
                eq = equations.get(name)
            except KeyError as exc:
                return exc.args[0]
            cur = apply_equation(cur, eq, tuple(spath), direction)
        if a is not cur and a != cur:
            return f"rewrites yield {print_formula(cur)}"
        return None

    kind, _, ns = rule.partition("-")
    quant, fv, noun = _QUANTIFIERS[ns]
    if kind == "gen":
        if type(a) is not quant:
            return f"{rule} conclusion must be a {noun} quantification"
        if p.type is not a.body and p.type != a.body:
            return "premise type must be the quantifier body"
        for name, b in ctx:
            if a.var in fv(b):
                return f"{a.var} occurs free in the context entry {name}"
        return None

    if type(p.type) is not quant:
        return f"{rule} premise must be a {noun} quantification"
    w = node.witness
    if ns == "fo" and not isinstance(w, FoTerm):
        return "inst-fo witness must be a first-order term"
    if ns != "fo" and not isinstance(w, PredAbstraction):
        return f"{rule} witness must be a predicate abstraction"
    if ns == "bot" and not is_bot_type(w.body):
        return "inst-bot witness body must be a bottomed type"
    # an abstraction of the wrong arity makes instantiate raise the message
    expect = instantiate(p.type, w)
    if a is not expect and a != expect:
        return f"instantiation yields {print_formula(expect)}"
    return None


# ---------------------------------------------------------------------------
# forgetting the first-order layer


def forget_derivation(d: Derivation) -> Derivation:
    """Erase the first-order layer of a derivation.

    gen-fo, inst-fo and eq nodes collapse onto their premise; every other
    node keeps its rule with types, contexts and witnesses forgotten.
    """
    def combine(node: Derivation, kids: tuple) -> Derivation:
        if node.rule in ("gen-fo", "inst-fo", "eq"):
            return kids[0]
        ctx = Context(tuple((n, forget_first_order(a)) for n, a in node.ctx))
        witness = node.witness
        if node.rule in ("inst-pred", "inst-bot"):
            witness = PredAbstraction((), forget_first_order(witness.body))
        return Derivation(node.rule, ctx, node.term, forget_first_order(node.type), witness, kids)

    return _fold(d, combine, _premises)


# ---------------------------------------------------------------------------
# lifting a negative-translation typing to a bottomed typing


def lift_star_to_bot(d: Derivation) -> Derivation:
    """Rebuild a derivation of |- M : !x (N*[x] -> A) as one of !x (N_|[x] -> A).

    Expects the root to be gen-fo over abs; the ambient context is kept.
    Each axiom leaf for the abstracted variable is replaced by the
    three-step opening of N_|[x]: ax, inst-bot at ([w], ~X(w)), gen-pred X.
    """
    if d.rule != "gen-fo" or type(d.type) is not ForallFo:
        raise ValueError("expected a gen-fo root")
    absd = d.premises[0]
    if absd.rule != "abs" or type(absd.term) is not Abs:
        raise ValueError("expected abs under the root quantifier")
    xvar = d.type.var
    nu = absd.term.binder
    star = n_star_type(FoVar(xvar))
    bot = n_bot_type(FoVar(xvar))
    if type(absd.type) is not Arrow or absd.type.left != star:
        raise ValueError("expected the abstraction to consume the starred numeral type")

    def rewrite_ctx(ctx: Context) -> Context:
        a = ctx.lookup(nu)
        if a is not None and a != star:
            raise ValueError(f"context entry for {nu} is not the starred type")
        return ctx if a is None else Context((n, bot if n == nu else b) for n, b in ctx)

    def premises(node: Derivation) -> tuple:
        if node.rule == "abs" and node.term.binder == nu:
            raise ValueError(f"inner binder shadows {nu}; shape not supported")
        return node.premises

    def combine(node: Derivation, kids: tuple) -> Derivation:
        if node.rule == "ax" and type(node.term) is Var and node.term.name == nu:
            if node.type != star:
                raise ValueError(f"axiom for {nu} has unexpected type")
            ctx = rewrite_ctx(node.ctx)
            gen_name = fresh_name("X", set().union(*map(fv_pred, ctx.formulas())))
            witness = PredAbstraction(("w",), neg(PredVarApp(gen_name, (FoVar("w"),))))
            gend = _gen(ForallPred, _inst(_ax(ctx, nu), witness), gen_name)
            if gend.type != star:
                raise ValueError("reopening did not recover the starred type")
            return gend
        return Derivation(
            node.rule, rewrite_ctx(node.ctx), node.term, node.type, node.witness, kids
        )

    return _gen(ForallFo, _abs(_fold(absd.premises[0], combine, premises)), xvar)


# ---------------------------------------------------------------------------
# serialization


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_derivation(d: Derivation) -> str:
    """Stable s-expression text for a derivation tree."""

    def combine(node: Derivation, kids: tuple) -> list:
        lines = [
            f"(rule {node.rule}",
            "  (ctx" + "".join(f" ({n} {_q(print_formula(a))})" for n, a in node.ctx) + ")",
            f"  (term {_q(print_term(node.term))})",
            f"  (type {_q(print_formula(node.type))})",
        ]
        if node.witness is not None:
            lines.append(f"  (witness {_write_witness(node)})")
        if kids:
            lines.append("  (premises")
            for k in kids:
                lines += k
            lines.append("  )")
        lines.append(")")
        return lines

    # the nodes of a premises section sit two levels deeper than its opener
    pad, out = "", []
    for line in _fold(d, combine, _premises):
        if line == "  )":
            pad = pad[:-4]
        out.append(pad + line)
        if line == "  (premises":
            pad += "    "
    return "\n".join(out) + "\n"


def _write_witness(node: Derivation) -> str:
    w = node.witness
    if node.rule == "inst-fo":
        return f"(foterm {_q(print_foterm(w))})"
    if node.rule in ("inst-pred", "inst-bot"):
        params = " ".join(w.params)
        return f"(abst ({params}) {_q(print_formula(w.body))})"
    if node.rule == "eq":
        steps = []
        for name, direction, spath in w:
            pth = " ".join(str(i) for i in spath)
            steps.append(f"(step {name} {direction} ({pth}))")
        return "(steps " + " ".join(steps) + ")"
    raise ValueError(f"rule {node.rule} carries no witness encoding")


# one token per match, after any whitespace: a parenthesis, a string with
# its quotes, an atom, or a quote whose string never ends; that one takes the
# rest of the text, so nothing after it is scanned again
_SEXP_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_SEXP_TOKEN = re.compile(r'[ \t\r\n]*([()]|' + _SEXP_STRING + r'|[^ \t\r\n()"]+|".*)', re.DOTALL)
_SEXP_COMPLETE = re.compile(_SEXP_STRING, re.DOTALL)
_SEXP_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_escaped = itemgetter(1)  # the character after a backslash

# what a list of the text is, by where it opens: a derivation node (at the
# top, or in a premises section), a section of a node, or any other list
_NODE, _SECTION, _OTHER, _TOP = range(4)
_PREMISES = ("atom", "premises")  # the head of a premises section


def read_derivation(src: str) -> Derivation:
    """Read the text write_derivation produces.

    Every formula, subject term and context read from one text is interned
    in a table built for the call: context entries, types, witness bodies
    and subject terms share one object per exact named structure,
    subformulas, atom arguments and subterms included, and equal contexts (the same names
    bound to the same interned formulas) are one ``Context``. So the
    checker finds unchanged contexts, subjects and types by identity before
    it tries ``==``: every premise of a well-formed app node holds its
    conclusion's context, and the premise of a well-formed abs or app node
    holds the very body, function or argument of its conclusion's subject.
    These shared objects must be treated as immutable; two calls share
    none, and the table is emptied before the call returns or raises, so
    no reference cycle outlives it. Alpha-variants such as ``!x X(x)`` and
    ``!y X(y)``, or ``\\x x`` and ``\\y y``, stay distinct objects, each
    printing its own binder.

    The text is read in one pass over its tokens, with one explicit stack
    of the lists still open; each node is built as its list closes, over
    the nodes of its last premises section. A string token met again is
    the item made for it the first time, and each distinct formula or term
    text is parsed once, by ``parse_formula`` or ``parse_term`` with the
    call's table, which build every node through it: no second pass
    interns what they return. An error in a node is kept until its parent
    is built, so the error raised is the one a reader that parsed the
    whole text first would raise: a ``)`` that closes no list as it is met;
    after the last token, an unterminated string, then a list left open,
    then other than one form; and otherwise the first failing node's in
    post-order. A text with a syntax error so has its closed nodes read
    before the error is raised, at no more than a balanced text costs.
    """
    tokens = _scan(_SEXP_TOKEN, src)
    last = tokens[-1] if tokens else ""
    unterminated = last[:1] == '"' and not _SEXP_COMPLETE.fullmatch(last)
    if unterminated:
        tokens.pop()
    table: dict = {}
    strings: dict = {}  # each string token read -> its ("str", text) item
    nodes: dict = {}  # id of a node's list -> the node, or the error reading it raised
    forms: list = []  # the forms at the top
    items, kind = forms, _TOP  # the innermost open list and its kind
    stack: list = []  # the enclosing open lists with their kinds, innermost last
    try:
        for tok in tokens:
            first = tok[0]
            if first == "(":
                stack.append((items, kind))
                if kind == _NODE:
                    kind = _SECTION
                elif kind == _TOP or (kind == _SECTION and items and items[0] == _PREMISES):
                    kind = _NODE
                else:
                    kind = _OTHER
                items = []
            elif first == ")":
                if not stack:
                    raise ValueError("unbalanced parentheses")
                if kind == _NODE:
                    try:
                        nodes[id(items)] = _read_node(table, nodes, items)
                    except ValueError as exc:
                        nodes[id(items)] = exc
                done = items
                items, kind = stack.pop()
                items.append(done)
            elif first == '"':
                item = strings.get(tok)
                if item is None:
                    text = tok[1:-1]
                    if "\\" in text:
                        text = _SEXP_ESCAPE.sub(_escaped, text)
                    item = strings[tok] = ("str", text)
                items.append(item)
            else:
                items.append(("atom", tok))
        if unterminated:
            raise ValueError("unterminated string in derivation file")
        if stack:
            raise ValueError("unbalanced parentheses")
        if len(forms) != 1:
            raise ValueError("expected exactly one derivation form")
        return _node(nodes, forms[0])
    finally:
        # break the cycles a read makes: the table holds its makers, whose
        # closures hold the table, and an error kept in nodes holds on its
        # traceback the frames that hold nodes
        table.clear()
        nodes.clear()


def _node(nodes: dict, form) -> Derivation:
    """The node read from form; else the error reading it raised, raised again."""
    node = nodes.get(id(form))
    if type(node) is Derivation:
        return node
    if node is None:  # a token where a node belongs
        raise ValueError("expected a (rule ...) form")
    del node  # this frame joins the error's traceback, so no local may hold it
    raise nodes[id(form)]


def _read_formula(src: str, table: dict) -> Formula:
    """parse_formula(src) built into table, which also maps each text read to its formula."""
    a = table.get(src)
    if a is None:
        a = table[src] = parse_formula(src, table=table)
    return a


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


def _read_node(table: dict, nodes: dict, form: list) -> Derivation:
    """The node a (rule ...) form describes.

    The nodes of its last premises section are read already, into nodes,
    and an error reading one of them is raised before any of the form's own.
    """
    premises = ()
    for part in reversed(form):
        if type(part) is list and part and part[0] == _PREMISES:
            premises = tuple([_node(nodes, p) for p in part[1:]])
            break
    if len(form) < 2 or _atom(form[0]) != "rule":
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
                term = table[("term", text)] = parse_term(text, table=table)
        elif head == "type":
            ftype = _read_formula(_string(body), table)
        elif head == "witness":
            witness = _read_witness(body, table)
        elif head != "premises":  # read already, above
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
