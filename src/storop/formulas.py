"""Second-order formulas over a first-order equational signature.

Three variable namespaces: first-order variables (lowercase initial),
predicate variables (uppercase initial), and bottomed predicate variables
(written with a trailing ``_|``, e.g. ``X_|``). Predicate constants are
written ``$P``. ``bot`` is absurdity; ``~A`` abbreviates ``A -> bot``.

Quantifier bodies bind tightly; use braces for rule-style displays:
``!X {X(0), !y (X(y) -> X(s(y))) -> X(x)}`` is the numeral type N[x], also
available as the macro ``N[t]`` (with ``N``, ``Nstar``/``N*``, ``Nbot``/
``N_|`` variants; those names are reserved).

Formula equality is alpha-equivalence in all three namespaces. It and
first-order term equality are one walk, ``_alpha_eq``, which compares two
trees side by side and skips a subformula both share. A formula hashes as
its free variables, so every closed formula hashes alike.

Besides ``Bot`` and ``Arrow``, a node is an ``Atom`` (``name`` applied to
``args``) or a ``Quantifier`` (``var`` bound over ``body``). Its class
attribute ``ns`` names its namespace: 0 first-order, 1 predicate, 2
bottomed, 3 predicate symbols (bound by no quantifier); ``mark`` is printed
after a variable's name, ``"_|"`` in the bottomed namespace. Walkers branch
on shape and compare ``ns``, one code path for every namespace.

One capture-avoiding substitution, ``_subst``, serves all namespaces behind
``subst_fo``, ``subst_pred`` and ``instantiate``, which opens a quantifier
at a witness, so ``instantiate(ForallBot(name, a), w)`` substitutes w for a
bottomed variable of a; a binder that would capture a name brought in is
primed.

Formula nodes are immutable and carry caches that stay None until first
asked for: the last formula ``==`` found equal to it (``_k``, set on both,
so a pair compared again is not walked, alone or inside a larger pair), the
free variables of the three namespaces as one triple, filled by one walk,
which ``fv_fo``, ``fv_pred`` and ``fv_bot`` index (``_fv``), the
propositional-fragment test the checker asks (``_prop``) and, on a
quantifier, its instances by the identity of the witness (``_inst``). A node
built by substitution starts with empty caches.

``_alpha_eq``, substitution, ``fo_vars``, ``apply_equation`` and one
post-order fold, ``_fold``, loop over explicit stacks; so do parsing and
printing. None of them is bounded by Python's recursion limit. ``_fold``
walks formulas (the free-variable and propositional caches, the
translations, ``polarity``), first-order terms (``fo_subst``,
an ``EquationSet``'s signature) and derivations (``storop.typecheck``).

Given an intern table, ``parse_formula`` builds every node through it, atom
arguments included, with the constructors ``_makers`` makes for the table;
a macro's expansion, built outside the parser, is brought into the same
table by reading its printed text again. The derivation reader hands each
text its table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

from storop.terms import _interning, _scan, fresh_name

__all__ = [
    "FoTerm",
    "FoVar",
    "FoApp",
    "fo_vars",
    "fo_subst",
    "print_foterm",
    "Formula",
    "Atom",
    "Quantifier",
    "Bot",
    "PredVarApp",
    "BotVarApp",
    "PredSymApp",
    "Arrow",
    "ForallFo",
    "ForallPred",
    "ForallBot",
    "neg",
    "PredAbstraction",
    "FormulaError",
    "parse_formula",
    "print_formula",
    "fv_fo",
    "fv_pred",
    "fv_bot",
    "subst_fo",
    "subst_pred",
    "instantiate",
    "is_bot_type",
    "godel_star",
    "bot_transform",
    "forget_first_order",
    "polarity",
    "n_type",
    "n_star_type",
    "n_bot_type",
    "Equation",
    "EquationSet",
    "parse_equations",
    "apply_equation",
]


class FormulaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# first-order terms


class FoTerm:
    __slots__ = ()


@dataclass(frozen=True)
class FoVar(FoTerm):
    name: str
    ns = 0  # to _alpha_eq, a nullary atom of the first-order namespace
    args = ()

    def __repr__(self):
        return f"<{print_foterm(self)}>"


@dataclass(frozen=True)
class FoApp(FoTerm):
    sym: str
    args: tuple = ()
    ns = 3  # to _alpha_eq, a symbol applied to args, bound by no quantifier
    name = property(lambda self: self.sym)  # read-only: the name is sym

    def __eq__(self, other):
        """Structural, by _alpha_eq's walk, so depth is bounded by memory."""
        if other.__class__ is not FoApp:
            return NotImplemented
        return self is other or _alpha_eq(self, other)

    def __hash__(self):
        return hash((self.sym, len(self.args)))

    def __repr__(self):
        return f"<{print_foterm(self)}>"


def fo_vars(t: FoTerm) -> frozenset[str]:
    if type(t) is FoVar:
        return frozenset((t.name,))
    out: set[str] = set()
    stack = [t]
    while stack:
        t = stack.pop()
        if type(t) is FoVar:
            out.add(t.name)
        stack += t.args
    return frozenset(out)


_args = attrgetter("args")  # a first-order term's children for _fold, () for a variable


def fo_subst(t: FoTerm, m: Mapping[str, FoTerm]) -> FoTerm:
    """Substitute inside a first-order term; an unchanged term is returned as it is."""

    def combine(t, args):
        if type(t) is FoVar:
            return m.get(t.name, t)
        return t if all(a is b for a, b in zip(args, t.args)) else FoApp(t.sym, args)

    return _fold(t, combine, _args)


def _match_fo(pattern: FoTerm, target: FoTerm, sigma: dict) -> bool:
    """Extend sigma so that pattern under it is target, or return False; pairs wait on a stack."""
    pairs = [(pattern, target)]
    while pairs:
        p, t = pairs.pop()
        if type(p) is FoVar:
            if sigma.setdefault(p.name, t) != t:
                return False
        elif type(t) is not FoApp or t.sym != p.sym or len(t.args) != len(p.args):
            return False
        else:
            pairs += zip(reversed(p.args), reversed(t.args))
    return True


# ---------------------------------------------------------------------------
# formulas


class Formula:
    # the lazily filled caches named in the module docstring; _k: the last formula found equal
    __slots__ = ("_k", "_fv", "_prop")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        if self._k is not other and other._k is not self:
            if not _alpha_eq(self, other):
                return False
            self._k, other._k = other, self  # so the pair, compared again, is not walked
        return True

    def __hash__(self):
        return hash(_fv(self))

    def __repr__(self):
        return f"<{print_formula(self)}>"


class Bot(Formula):
    __slots__ = ()

    def __init__(self):
        self._k = self._fv = self._prop = None


class Atom(Formula):
    __slots__ = ("name", "args")
    mark = ""

    def __init__(self, name: str, args: Sequence[FoTerm] = ()):
        self.name = name
        self.args = tuple(args)
        self._k = self._fv = self._prop = None


class PredVarApp(Atom):
    __slots__ = ()
    ns = 1


class BotVarApp(Atom):
    __slots__ = ()
    ns = 2
    mark = "_|"


class PredSymApp(Atom):
    __slots__ = ()
    ns = 3
    sym = property(lambda self: self.name)  # read-only: the symbol is name


class Arrow(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._k = self._fv = self._prop = None


class Quantifier(Formula):
    __slots__ = ("var", "body", "_inst")
    mark = ""

    def __init__(self, var: str, body: Formula):
        self.var = var
        self.body = body
        self._k = self._fv = self._prop = self._inst = None


class ForallFo(Quantifier):
    __slots__ = ()
    ns = 0


class ForallPred(Quantifier):
    __slots__ = ()
    ns = 1


class ForallBot(Quantifier):
    __slots__ = ()
    ns = 2
    mark = "_|"


def neg(a: Formula) -> Formula:
    return Arrow(a, Bot())


def _alpha_eq(a, b) -> bool:
    """a == b for two formulas or two first-order terms, walked side by side as terms._alpha_eq.

    A first-order variable is a nullary atom of namespace 0 and an
    application a symbol of namespace 3, so four shapes remain: arrow,
    quantifier, leaf and bot. A formula held by both sides is equal to
    itself exactly when its free variables have one binding on both sides,
    so it is not walked; nor is a pair of formulas that ``==`` has found
    equal (``_k``), which have the same free variables at the same places.
    The walk stops at the first difference.
    """
    # per namespace and side, binder name -> the number of its innermost binder,
    # None once out of scope; the two binders of a pair get one number, unique to them
    enva: tuple = ({}, {}, {}, {})
    envb: tuple = ({}, {}, {}, {})
    numbered = 0
    # pairs to compare, pushed as two entries, b's on top; a restore marker is None
    # followed by each side's binder map, name and outer binding, put back after the bodies
    stack: list = [a, b]
    while stack:
        y = stack.pop()
        x = stack.pop()
        if x is None:
            ea, na, oa, eb, nb, ob = y
            ea[na], eb[nb] = oa, ob
            continue
        if isinstance(x, Formula) and (x is y or x._k is y or y._k is x):
            for fv, ea, eb in zip(_fv(x), enva, envb):
                for name in fv:
                    if ea.get(name) != eb.get(name):
                        return False
            continue
        tx = type(x)
        if tx is not type(y):
            return False
        if tx is Arrow:
            stack += (x.right, y.right, x.left, y.left)
        elif isinstance(x, Quantifier):
            ea, eb = enva[x.ns], envb[x.ns]
            stack += (None, (ea, x.var, ea.get(x.var), eb, y.var, eb.get(y.var)))
            ea[x.var] = eb[y.var] = numbered
            numbered += 1
            stack += (x.body, y.body)
        elif tx is not Bot:
            bound = enva[x.ns].get(x.name)
            if bound != envb[x.ns].get(y.name) or (bound is None and x.name != y.name):
                return False
            if len(x.args) != len(y.args):
                return False
            for pair in zip(x.args, y.args):
                stack += pair
    return True


# ---------------------------------------------------------------------------
# the post-order fold, and the free variables and other answers it computes

_EXIT = object()  # sits above a node on the stack; popped once its children are done


def _children(a: Formula) -> tuple:
    """a's subformulas, left to right: (left, right) for an arrow, (body,) for a quantifier."""
    if type(a) is Arrow:
        return (a.left, a.right)
    if isinstance(a, Quantifier):
        return (a.body,)
    return ()


def _fold(a, combine, children=_children, slot: Optional[str] = None):
    """combine(x, kids) on every node x of the tree from a, children first; returns a's result.

    kids holds the results of children(x), in order, so leaves are combined
    left to right. The children are a formula's subformulas by default; a
    first-order term's are its arguments, a derivation's its premises. With
    a slot, each result is cached on its node, and a node whose slot is
    already filled is not entered. The stack is explicit, so depth is
    bounded by memory, not by the recursion limit.
    """
    done: list = []  # results of the nodes whose parent is not yet combined
    stack: list = [a]
    while stack:
        x = stack.pop()
        if x is _EXIT:
            n = stack.pop()
            x = stack.pop()
            kids = tuple(done[-n:])
            del done[-n:]
        elif slot is not None and getattr(x, slot) is not None:
            done.append(getattr(x, slot))
            continue
        else:
            ps = children(x)
            if ps:
                stack += (x, len(ps), _EXIT, *ps[::-1])
                continue
            kids = ()
        out = combine(x, kids)
        if slot is not None:
            setattr(x, slot, out)
        done.append(out)
    return done.pop()


def _remake(x: Formula, kids: tuple) -> Formula:
    """x over kids: x itself when they are its own children, else a new node of x's class."""
    if type(x) is Arrow:
        left, right = kids
        return x if left is x.left and right is x.right else Arrow(left, right)
    if kids and kids[0] is not x.body:
        return type(x)(x.var, kids[0])
    return x


_EMPTY: frozenset[str] = frozenset()
_NO_FV = (_EMPTY, _EMPTY, _EMPTY)


def _free(x: Formula, kids: tuple) -> tuple:
    """x's free variables by namespace, (first-order, predicate, bottomed), from its kids'.

    Where a node's set equals a child's, it reuses the child's set object.
    """
    tx = type(x)
    if tx is Arrow:
        (f, p, b), (g, q, c) = kids
        return (
            f | g if f and g else f or g,
            p | q if p and q else p or q,
            b | c if b and c else b or c,
        )
    if tx is Bot:
        return _NO_FV
    if isinstance(x, Quantifier):
        (body,) = kids
        if x.var not in body[x.ns]:
            return body
        out = list(body)
        out[x.ns] = body[x.ns] - {x.var} or _EMPTY
        return tuple(out)
    fo = _EMPTY.union(*map(fo_vars, x.args)) or _EMPTY
    if x.ns == 1:
        return (fo, frozenset((x.name,)), _EMPTY)
    if x.ns == 2:
        return (fo, _EMPTY, frozenset((x.name,)))
    return (fo, _EMPTY, _EMPTY)


def _fv(a: Formula) -> tuple:
    """The triple _free gives for a, cached on a and every subformula below."""
    out = a._fv
    return _fold(a, _free, slot="_fv") if out is None else out


def fv_fo(a: Formula) -> frozenset[str]:
    return _fv(a)[0]


def fv_pred(a: Formula) -> frozenset[str]:
    return _fv(a)[1]


def fv_bot(a: Formula) -> frozenset[str]:
    return _fv(a)[2]


def _propositional(x: Formula, kids: tuple) -> bool:
    return not x.args if isinstance(x, Atom) else type(x) is not ForallFo and all(kids)


def _is_propositional(a: Formula) -> bool:
    """No atom arguments and no first-order quantifier; cached on a and below."""
    out = a._prop
    return _fold(a, _propositional, slot="_prop") if out is None else out


# ---------------------------------------------------------------------------
# substitution


@dataclass(frozen=True)
class PredAbstraction:
    """A predicate of explicit arity: params are first-order, body a formula."""

    params: tuple
    body: Formula

    def __post_init__(self):
        if len(set(self.params)) != len(self.params):
            raise FormulaError("abstraction parameters must be distinct")

    def apply(self, args: Sequence[FoTerm]) -> Formula:
        if len(args) != len(self.params):
            raise FormulaError(
                f"abstraction of arity {len(self.params)} applied to {len(args)} arguments"
            )
        return _subst(self.body, dict(zip(self.params, args)), {})

    def free_fo(self) -> frozenset[str]:
        return fv_fo(self.body) - set(self.params)


def _subst(a: Formula, fo: Mapping[str, FoTerm], so: Mapping[tuple, object]) -> Formula:
    """Simultaneous capture-avoiding substitution in all three namespaces.

    fo maps first-order names to terms, so maps (namespace, name) to a
    PredAbstraction or to a renamed binder's new name. A binder that would
    capture a name brought in by the replacement of a variable free in its
    body is primed to fresh_name(var, brought | free variables of the body);
    the renaming joins the maps, which are never changed in place, and
    each first-order replacement's variables are walked once per call. The
    stack is explicit, left before right, as _fold's; a node under which
    nothing changes is returned as it is.
    """
    done: list = []  # results, each after those of its left siblings
    stack: list = [(a, fo, so)]
    walked: dict = {}  # id of a first-order replacement -> (it, its fo_vars), one walk each
    while stack:
        item = stack.pop()
        if item is _EXIT:
            x, var = stack.pop()  # var: a quantifier's binder name, primed or not
            last = done.pop()
            if type(x) is Arrow:
                done.append(_remake(x, (done.pop(), last)))
            else:
                done.append(x if var is x.var and last is x.body else type(x)(var, last))
            continue
        a, fo, so = item
        ta = type(a)
        if (not fo and not so) or ta is Bot:
            done.append(a)
            continue
        if ta is Arrow:
            stack += ((a, None), _EXIT, (a.right, fo, so), (a.left, fo, so))
            continue
        if isinstance(a, Atom):
            new = so.get((a.ns, a.name)) if so else None
            if new is None and not fo:
                done.append(a)
                continue
            args = tuple(fo_subst(t, fo) for t in a.args) if fo else a.args
            if new is not None:
                done.append(ta(new, args) if type(new) is str else new.apply(args))
            else:
                done.append(a if all(n is o for n, o in zip(args, a.args)) else ta(a.name, args))
            continue
        ns, var = a.ns, a.var
        if ns == 0 and fo:
            body_fv = fv_fo(a.body)
            fo = {k: v for k, v in fo.items() if k != var and k in body_fv}
        # drop the entries whose variable is not free here; most binders drop none
        for k in so:
            if k[1] not in _fv(a)[k[0]]:
                so = {k: v for k, v in so.items() if k[1] in _fv(a)[k[0]]}
                break
        if not fo and not so:
            done.append(a)
            continue
        brought: set[str] = set()
        if ns == 0:
            for t in fo.values():
                got = walked.get(id(t))
                if got is None:
                    got = walked[id(t)] = (t, fo_vars(t))
                brought |= got[1]
        for (kns, _), v in so.items():
            if type(v) is str:
                if kns == ns:
                    brought.add(v)
            else:
                brought |= v.free_fo() if ns == 0 else _fv(v.body)[ns]
        new = var
        if var in brought:
            new = fresh_name(var, brought | _fv(a.body)[ns])
            if ns == 0:
                fo = {**fo, var: FoVar(new)}
            else:
                so = {**so, (ns, var): new}
        stack += ((a, new), _EXIT, (a.body, fo, so))
    return done.pop()


def subst_fo(a: Formula, m: Mapping[str, FoTerm]) -> Formula:
    """Substitute terms for free first-order variables, all at once.

    A binder that would capture a variable of a replacement is primed until
    it avoids those variables and the free variables of its body. A node
    under which nothing changes is returned as it is.
    """
    return _subst(a, m, {})


def subst_pred(a: Formula, name: str, abst: PredAbstraction) -> Formula:
    """Substitute abst for a free predicate variable; binders are primed as in subst_fo."""
    return _subst(a, {}, {(1, name): abst})


def instantiate(q: Quantifier, w) -> Formula:
    """The body of q with w, a term or a PredAbstraction, for its variable.

    The substitution is in q's namespace; binders are primed as in subst_fo.
    The instance is cached on q by the identity of w, and the entry keeps w
    alive, so its id is not reused while the entry lives. q so holds every
    witness and instance it was opened at; a witness whose body holds q
    itself makes a cycle, which only the cyclic collector frees.
    """
    cache = q._inst
    if cache is None:
        cache = q._inst = {}
    hit = cache.get(id(w))
    if hit is None:
        fo, so = ({q.var: w}, {}) if q.ns == 0 else ({}, {(q.ns, q.var): w})
        hit = cache[id(w)] = (w, _subst(q.body, fo, so))
    return hit[1]


# ---------------------------------------------------------------------------
# bot-types and translations


def is_bot_type(a: Formula) -> bool:
    """Bottomed types: bot, bottomed atoms, arrows into them, quantifications."""
    while True:
        ta = type(a)
        if ta is Arrow:
            a = a.right
        elif isinstance(a, Quantifier):
            a = a.body
        else:
            return ta is Bot or a.ns == 2


_BOTTOMED = (BotVarApp, ForallBot)


def godel_star(a: Formula) -> Formula:
    """Negative translation: every atom is negated, bot is fixed.

    Defined only on formulas without bottomed variables.
    """
    def star(x, kids):
        if type(x) in _BOTTOMED:
            raise FormulaError("negative translation is undefined on bottomed formulas")
        return neg(x) if isinstance(x, Atom) else _remake(x, kids)

    return _fold(a, star)


def bot_transform(a: Formula) -> Formula:
    """Replace every predicate variable by its bottomed twin (binders too).

    Predicate symbols and bot itself are unchanged. Defined only on formulas
    that do not already contain bottomed variables.
    """
    def to_bot(x, kids):
        tx = type(x)
        if tx is PredVarApp:
            return BotVarApp(x.name, x.args)
        if tx is ForallPred:
            return ForallBot(x.var, kids[0])
        if tx in _BOTTOMED:
            raise FormulaError("formula already contains bottomed variables")
        return _remake(x, kids)

    return _fold(a, to_bot)


def _forget(x: Formula, kids: tuple) -> Formula:
    if kids:
        return kids[0] if type(x) is ForallFo else _remake(x, kids)
    return type(x)(x.name) if type(x) is not Bot and x.args else x


def forget_first_order(a: Formula) -> Formula:
    """Erase the first-order layer: drop atom arguments and fo quantifiers."""
    return _fold(a, _forget)


_FLIP = (0, 2, 1, 3)  # polarity's two sign bits, swapped on the left of an arrow


def polarity(a: Formula, name: str, kind: str = "pred") -> str:
    """Sign of the free occurrences of a predicate/bottomed variable.

    Returns 'absent', 'positive', 'negative' or 'both'. Occurrences to the
    left of an arrow flip sign.
    """
    if kind not in ("pred", "bot"):
        raise ValueError("kind must be 'pred' or 'bot'")
    ns = 1 if kind == "pred" else 2

    def signs(x, kids):
        """1 if name occurs positively in x, plus 2 if it occurs negatively."""
        tx = type(x)
        if tx is Arrow:
            left, right = kids
            return _FLIP[left] | right
        if isinstance(x, Atom):
            return x.ns == ns and x.name == name
        if tx is Bot or (x.ns == ns and x.var == name):
            return 0
        return kids[0]

    return ("absent", "positive", "negative", "both")[_fold(a, signs)]


# ---------------------------------------------------------------------------
# the numeral types


def _n_parts(pvar: str, t: Optional[FoTerm]):
    """First premise, iteration premise, and conclusion atom of N[t] opened at pvar."""
    if t is None:
        a = PredVarApp(pvar)
        return a, Arrow(a, a), a
    y = FoVar("y")
    first = PredVarApp(pvar, (FoApp("0"),))
    step = ForallFo("y", Arrow(PredVarApp(pvar, (y,)), PredVarApp(pvar, (FoApp("s", (y,)),))))
    return first, step, PredVarApp(pvar, (t,))


def n_type(t: Optional[FoTerm] = None) -> Formula:
    """N[t] = !X {X(0), !y (X(y) -> X(s(y))) -> X(t)}; N (propositional) when t is None."""
    first, step, last = _n_parts("X", t)
    return ForallPred("X", Arrow(first, Arrow(step, last)))


def n_star_type(t: Optional[FoTerm] = None) -> Formula:
    """The negative translation of N[t]."""
    return godel_star(n_type(t))


def n_bot_type(t: Optional[FoTerm] = None) -> Formula:
    """The bottomed variant of N[t]."""
    return bot_transform(n_type(t))


# ---------------------------------------------------------------------------
# equations


@dataclass(frozen=True)
class Equation:
    lhs: FoTerm
    rhs: FoTerm
    name: str = ""

    def __repr__(self):
        label = f"{self.name}: " if self.name else ""
        return f"<{label}{print_foterm(self.lhs)} = {print_foterm(self.rhs)}>"


class EquationSet:
    """Named equations over an inferred first-order signature.

    ``equations`` is a tuple and ``_index`` maps each name to the first
    equation that bears it; both are made with the set, which must not be
    changed afterwards: the checker keeps its verdicts against the set.
    """

    def __init__(self, equations: Iterable[Equation] = ()):
        self.equations: tuple[Equation, ...] = tuple(equations)
        names = [e.name for e in self.equations if e.name]
        if len(names) != len(set(names)):
            raise FormulaError("duplicate equation names")
        self._index: dict[str, Equation] = {}
        for e in self.equations:
            self._index.setdefault(e.name, e)
        self.signature = self._infer_signature()

    def _infer_signature(self) -> dict[str, int]:
        sig: dict[str, int] = {"0": 0, "s": 1}

        def note(t: FoTerm, _kids) -> None:
            if type(t) is FoApp and sig.setdefault(t.sym, len(t.args)) != len(t.args):
                raise FormulaError(f"function symbol {t.sym} used with conflicting arities")

        for e in self.equations:
            _fold(e.lhs, note, _args)
            _fold(e.rhs, note, _args)
        return sig

    def __len__(self):
        return len(self.equations)

    def get(self, name: str) -> Equation:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no equation named {name!r}") from None


def parse_equations(text: str) -> EquationSet:
    """One equation per line: ``name: lhs = rhs``; ``#`` starts a comment."""
    eqs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name = ""
        if ":" in line:
            name, line = line.split(":", 1)
            name = name.strip()
        if "=" not in line:
            raise FormulaError(f"line {lineno}: expected lhs = rhs")
        lhs_src, rhs_src = line.split("=", 1)
        eqs.append(Equation(_parse_foterm_src(lhs_src), _parse_foterm_src(rhs_src), name))
    return EquationSet(eqs)


def apply_equation(
    a: Formula, eq: Equation, path: Sequence[int], direction: str = "lr"
) -> Formula:
    """Rewrite one first-order subterm of a formula with an equation instance.

    The path indexes children: arrows 0/1, quantifier bodies 0, atom
    arguments by position, then positions inside the first-order term.
    """
    if direction not in ("lr", "rl"):
        raise FormulaError("direction must be 'lr' or 'rl'")
    pattern, replacement = (eq.lhs, eq.rhs) if direction == "lr" else (eq.rhs, eq.lhs)
    missing = fo_vars(replacement) - fo_vars(pattern)
    if missing:
        raise FormulaError(
            f"rewrite would not determine {sorted(missing)}; "
            "these variables occur only in the replacement side"
        )

    # down the path: each node passed, with the index taken out of it
    trail: list[tuple] = []
    bound: set[str] = set()  # the first-order binders passed
    x = a
    for i in path:
        tx = type(x)
        if tx is Arrow:
            if i == 0:
                child = x.left
            elif i == 1:
                child = x.right
            else:
                raise FormulaError("arrow children are 0 and 1")
        elif isinstance(x, Quantifier):
            if i != 0:
                raise FormulaError("quantifier child is 0")
            if x.ns == 0:
                bound.add(x.var)
            child = x.body
        elif tx is Bot:
            raise FormulaError("path leaves the formula")
        elif not 0 <= i < len(x.args):
            atom = isinstance(x, Atom)
            raise FormulaError("no such atom argument" if atom else "path leaves the term")
        else:
            child = x.args[i]
        trail.append((x, i))
        x = child
    if isinstance(x, Formula):
        if isinstance(x, Atom):
            raise FormulaError("path stops at an atom, not at a term position")
        raise FormulaError("path stops before reaching an atom")
    sigma: dict[str, FoTerm] = {}
    if not _match_fo(pattern, x, sigma):
        raise FormulaError(
            f"equation side {print_foterm(pattern)} does not match {print_foterm(x)}"
        )
    captured = fo_vars(x) & bound
    if captured:
        raise FormulaError(
            f"occurrence mentions {sorted(captured)} bound above it; "
            "the equation does not apply to captured positions"
        )
    # back up: every node passed is rebuilt over its new child
    new = fo_subst(replacement, sigma)
    for x, i in reversed(trail):
        tx = type(x)
        if tx is Arrow:
            new = Arrow(new, x.right) if i == 0 else Arrow(x.left, new)
        elif isinstance(x, Quantifier):
            new = tx(x.var, new)
        else:
            new = tx(x.name, x.args[:i] + (new,) + x.args[i + 1 :])
    return new


# ---------------------------------------------------------------------------
# concrete syntax

_MACROS = {"N": n_type, "Nstar": n_star_type, "Nbot": n_bot_type}  # reserved names

# one token per match after any whitespace: an arrow, a one-character token,
# a numeral, or a name with the "_|" that makes it bottomed; else a stray
_F_TOKEN = re.compile(
    r"([ \t\r\n]*)(?:(->|[(){}\[\],~$*=!]|∀|⊥|[0-9]+|[A-Za-z_][A-Za-z0-9_']*(?:(?<=_)\|)?)"
    r"|([^ \t\r\n]))"
)
_F_KINDS = {c: c for c in "(){}[],~$*=!"} | {"->": "->", "∀": "!", "⊥": "bot", "bot": "bot"}


def _tokenize_formula(src: str):
    toks = []
    at = 0
    for space, text, stray in _scan(_F_TOKEN, src):
        at += len(space)
        if stray:
            raise FormulaError(f"unexpected character {stray!r} at offset {at}")
        kind = _F_KINDS.get(text)
        if kind is not None:
            toks.append((kind, "", at))
        elif text.isdigit():
            toks.append(("num", text, at))
        elif text[-1] == "|":
            toks.append(("botname", text[:-2], at))
        else:
            toks.append(("name", text, at))
        at += len(text)
    toks.append(("end", "", len(src)))
    return toks


def _is_fo_name(name: str) -> bool:
    for ch in name:
        if ch.isalpha():
            return ch.islower()
    return True


# the node classes the formula parser builds, with each one's shape for _interning
_SHAPES = {
    Arrow: "pair",
    ForallFo: "bound",
    ForallPred: "bound",
    ForallBot: "bound",
    Bot: "named",
    PredVarApp: "named",
    BotVarApp: "named",
    PredSymApp: "named",
    FoVar: "named",
    FoApp: "named",
}
# the parser's constructors without an intern table: each class, and neg, itself
_PLAIN = {cls: cls for cls in _SHAPES} | {neg: neg}


def _makers(table: dict) -> dict:
    """_PLAIN through table: each class's constructor, and neg, through
    table, as ``terms._interning`` describes. They are made on the first
    call with table and kept in it, under this function as key."""
    makers = table.get(_makers)
    if makers is None:
        makers = {cls: _interning(table, cls, shape) for cls, shape in _SHAPES.items()}
        arrow, bot = makers[Arrow], makers[Bot]
        makers[neg] = lambda a: arrow(a, bot())
        table[_makers] = makers
    return makers


class _FormulaParser:
    """One parse of a token list. Given an intern table, every node is
    built through it (``_makers``), a macro's expansion by reading its
    written-out text."""

    __slots__ = ("toks", "pos", "table", "make")

    def __init__(self, toks, table: Optional[dict] = None):
        self.toks = toks
        self.pos = 0
        self.table = table
        self.make = _PLAIN if table is None else _makers(table)

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise FormulaError(f"expected {kind!r} at offset {tok[2]}")
        return tok

    # first-order terms ------------------------------------------------

    def foterm(self) -> FoTerm:
        kind, val, at = self.take()
        make = self.make
        if kind == "num":
            return make[FoApp](val)
        if kind != "name":
            raise FormulaError(f"expected a first-order term at offset {at}")
        args = self.atom_args()
        return make[FoApp](val, args) if args else make[FoVar](val)

    def atom_args(self) -> tuple:
        """The terms in the parentheses that follow, () when none do."""
        if self.peek()[0] != "(":
            return ()
        self.take()
        make = self.make
        stack: list[list] = [[None]]  # per open "(", the symbol before it, then its terms so far
        while True:
            kind, val, at = self.take()
            if kind == "num":
                t = make[FoApp](val)
            elif kind != "name":
                raise FormulaError(f"expected a first-order term at offset {at}")
            elif self.peek()[0] == "(":
                self.take()
                stack.append([val])
                continue
            else:
                t = make[FoVar](val)
            while True:
                stack[-1].append(t)
                if self.peek()[0] == ",":
                    self.take()
                    break
                self.expect(")")
                sym, *args = stack.pop()
                if not stack:
                    return tuple(args)
                t = make[FoApp](sym, tuple(args))

    def at_end(self, out):
        """out, once nothing but the end of input is left."""
        kind, _, at = self.peek()
        if kind != "end":
            raise FormulaError(f"unexpected trailing input at offset {at}")
        return out

    # formulas ----------------------------------------------------------

    def seq(self) -> Formula:
        """The formula from the next token on: arrow chains joined by ",",
        each of units joined by "->", both grouping to the right; a unit is
        an atom or a bracketed formula under the prefixes ~ and !x.

        What waits for the part being read is on one stack of (level, wrap)
        pairs: a prefix waits at level 0 for a unit, an arrow at 1 for a
        chain and a comma at 2 for a list, and wrap builds the formula round
        what it gets. A bracket waits at level 3 with its closing token.
        """
        make = self.make
        negate, arrow = make[neg], make[Arrow]
        stack: list[tuple] = []
        while True:
            kind = self.take()[0]
            if kind == "~":
                stack.append((0, negate))
            elif kind == "!":
                bkind, bval, bat = self.take()
                if bkind == "botname":
                    quant = ForallBot
                elif bkind != "name":
                    raise FormulaError(f"expected a quantifier variable at offset {bat}")
                else:
                    quant = ForallFo if _is_fo_name(bval) else ForallPred
                if bval in _MACROS:
                    raise FormulaError(f"{bval!r} is reserved (offset {bat})")
                stack.append((0, partial(make[quant], bval)))
            elif kind == "(" or kind == "{":
                stack.append((3, ")" if kind == "(" else "}"))
            else:
                self.pos -= 1  # the token starts an atom
                a = self.atom()
                while True:
                    kind = self.peek()[0]
                    level = 1 if kind == "->" else 2 if kind == "," else 3
                    while stack and stack[-1][0] < level:
                        a = stack.pop()[1](a)
                    if level < 3:
                        self.take()
                        stack.append((level, partial(arrow, a)))
                        break
                    if not stack:
                        return a
                    self.expect(stack.pop()[1])

    def _macro(self, build) -> Formula:
        arg = None
        if self.peek()[0] == "[":
            self.take()
            arg = self.foterm()
            self.expect("]")
        a = build(arg)
        if self.table is None:
            return a
        # read again through the table: its node for the written-out text
        return parse_formula(print_formula(a), table=self.table)

    def atom(self) -> Formula:
        kind, val, at = self.take()
        make = self.make
        if kind == "bot":
            return make[Bot]()
        if kind == "$":
            nkind, nval, nat = self.take()
            if nkind != "name":
                raise FormulaError(f"expected a predicate symbol at offset {nat}")
            return make[PredSymApp](nval, self.atom_args())
        if kind == "botname":
            if val == "N":
                return self._macro(n_bot_type)
            if val in _MACROS:
                raise FormulaError(f"{val!r} is reserved (offset {at})")
            return make[BotVarApp](val, self.atom_args())
        if kind == "name":
            if val == "N" and self.peek()[0] == "*":
                self.take()
                val = "Nstar"
            if val in _MACROS:
                return self._macro(_MACROS[val])
            if _is_fo_name(val):
                raise FormulaError(
                    f"first-order name {val!r} cannot stand alone as a formula "
                    f"(offset {at})"
                )
            return make[PredVarApp](val, self.atom_args())
        raise FormulaError(f"expected a formula at offset {at}")


def parse_formula(src: str, *, table: Optional[dict] = None) -> Formula:
    """Parse the concrete syntax described in the module docstring.

    Given an intern table, every node is built through it, as
    ``terms._interning`` describes, a macro's expansion included, so the
    formula and each of its subformulas and atom arguments is the table's
    one node of its exact named structure.
    """
    parser = _FormulaParser(_tokenize_formula(src), table)
    return parser.at_end(parser.seq())


def _parse_foterm_src(src: str) -> FoTerm:
    parser = _FormulaParser(_tokenize_formula(src))
    return parser.at_end(parser.foterm())


def print_foterm(t: FoTerm) -> str:
    return _write([t])


def print_formula(a: Formula) -> str:
    """Render a formula; parse_formula(print_formula(a)) recovers it."""
    return _write([(a, "top")])


def _write(stack: list) -> str:
    """The text of the strings, first-order terms and (formula, place) pairs
    on stack, the top first. A chain of arrows, up to a negation, is bare at
    the "top", in braces with commas as a quantifier "body" of two or more
    premises, and in parentheses elsewhere; so is a quantifier right after
    ``~``, in a "tight" place.
    """
    out: list[str] = []
    while stack:
        x = stack.pop()
        tx = type(x)
        args = ()
        if tx is str:
            out.append(x)
        elif tx is FoVar or tx is FoApp:
            out.append(x.name)
            args = x.args
        else:
            a, place = x
            ta = type(a)
            if ta is Arrow and type(a.right) is not Bot:
                premises = []
                while type(a) is Arrow and type(a.right) is not Bot:
                    premises.append(a.left)
                    a = a.right
                if place == "top":
                    opens, sep, closes = "", " -> ", ""
                elif place == "body" and len(premises) > 1:
                    opens, sep, closes = "{", ", ", "}"
                else:
                    opens, sep, closes = "(", " -> ", ")"
                out.append(opens)
                stack += (closes, (a, "unit"), " -> ", (premises.pop(), "unit"))
                for p in reversed(premises):
                    stack += (sep, (p, "unit"))
            elif ta is Bot:
                out.append("bot")
            elif ta is Arrow:
                out.append("~")
                stack.append((a.left, "tight"))
            elif isinstance(a, Quantifier):
                if place == "tight":
                    out.append("(")
                    stack.append(")")
                out.append("!" + a.var + a.mark + " ")
                stack.append((a.body, "body"))
            else:
                out.append(("$" if ta is PredSymApp else "") + a.name + a.mark)
                args = a.args
        if args:
            out.append("(")
            stack += (")", args[-1])
            for t in reversed(args[:-1]):
                stack += (", ", t)
    return "".join(out)
