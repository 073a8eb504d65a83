"""Untyped lambda terms: syntax, parsing, printing, substitution.

Application is written in head-group notation: ``(u) v w`` applies u to v,
then to w. Juxtaposition also works inside parentheses, so ``(u v) w`` means
the same thing. An argument that itself starts with ``(`` or a lambda extends
to the end of the enclosing group, so ``(h) a (g) b`` reads as (h) a ((g) b).
Abstraction is ``\\x y BODY`` (or with a literal lambda); a trailing run of
bare variables uses its last variable as the body, so ``\\x f x`` is the
numeral zero.

Term equality is alpha-equivalence, decided by ``_alpha_eq``, which walks
the two terms side by side and skips a node both sides share. A term hashes
as its set of free variables, which alpha-equal terms share, so hashing
takes constant time and every closed term hashes alike. Equality, printing
and parsing walk explicit stacks, so they work at any depth.

Every token pattern of storop's three syntaxes, λ-terms here, formulas
and derivation files, is run by one scan, ``_scan``, which reads any text in
time linear in its length. Given an intern table, the parsers of terms and
formulas build each node through it, by constructors ``_interning`` makes,
so a derivation's texts are read into one table in one pass.

One capture-avoiding substitution, ``_subst1``, serves the kernel and
``substitute``. It and ``_match`` recurse once per level, under ``_deep``,
the one guard that lifts the recursion limit and pauses the cyclic
collector, so they work at any depth too.
"""

from __future__ import annotations

import gc
import re
import sys
from functools import partial
from typing import Mapping, Optional

__all__ = [
    "Term",
    "Var",
    "Abs",
    "App",
    "ParseError",
    "parse_term",
    "print_term",
    "substitute",
    "fresh_name",
    "church",
    "numeral_of",
    "match_holes",
    "term_size",
]


class Term:
    """Base class; instances are Var, Abs or App. Treat as immutable."""

    __slots__ = ()

    fv: frozenset[str]

    def __eq__(self, other: object) -> bool:
        """Alpha-equivalence, decided by ``_alpha_eq``."""
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return _alpha_eq(self, other)

    def __hash__(self) -> int:
        """The hash of the free variables, which alpha-equal terms share:
        constant time, but every closed term hashes alike."""
        return hash(self.fv)

    def __repr__(self) -> str:
        return f"<{print_term(self)}>"


class Var(Term):
    __slots__ = ("name", "fv")

    def __init__(self, name: str):
        self.name = name
        self.fv = frozenset((name,))


class Abs(Term):
    __slots__ = ("binder", "body", "fv")

    def __init__(self, binder: str, body: Term):
        self.binder = binder
        self.body = body
        self.fv = body.fv - {binder}


class App(Term):
    __slots__ = ("fn", "arg", "fv")

    def __init__(self, fn: Term, arg: Term):
        self.fn = fn
        self.arg = arg
        self.fv = fn.fv | arg.fv


def _alpha_eq(a: Term, b: Term) -> bool:
    """a == b, decided by walking the two terms side by side.

    It stops at the first difference and caches nothing.
    Where both sides hold one and the same node, the node is equal to itself
    exactly when each of its free variables has the same binding on both
    sides, so its subterms are not walked. Two terms that share most of
    their nodes are compared in time proportional to the nodes they do
    not share. A chain of applications of one shared closed node is walked
    down its arguments without a push per layer.
    """
    # per side, binder name -> the number of its innermost binder; the two
    # binders of a pair get one number, which no other pair gets
    enva: dict[str, int] = {}
    envb: dict[str, int] = {}
    numbered = 0
    # pairs to compare, pushed as two entries, b's on top; a restore marker
    # is None followed by the binders' outer bindings, put back after the bodies
    stack: list = [a, b]
    while stack:
        y = stack.pop()
        x = stack.pop()
        if x is None:
            na, oa, nb, ob = y
            if oa is None:
                del enva[na]
            else:
                enva[na] = oa
            if ob is None:
                del envb[nb]
            else:
                envb[nb] = ob
            continue
        if x is y:
            for name in x.fv:
                if enva.get(name) != envb.get(name):
                    return False
            continue
        tx = type(x)
        if tx is not type(y):
            return False
        if tx is App:
            # one closed node applied on both sides, as at each layer of a
            # tau, is equal to itself: go down the arguments in this loop
            while x.fn is y.fn and not x.fn.fv:
                x = x.arg
                y = y.arg
                if x is y or type(x) is not App or type(y) is not App:
                    stack += (x, y)
                    break
            else:
                stack += (x.arg, y.arg, x.fn, y.fn)
        elif tx is Var:
            bound = enva.get(x.name)
            if bound != envb.get(y.name) or (bound is None and x.name != y.name):
                return False
        else:
            stack += (None, (x.binder, enva.get(x.binder), y.binder, envb.get(y.binder)))
            enva[x.binder] = envb[y.binder] = numbered
            numbered += 1
            stack += (x.body, y.body)
    return True


def term_size(t: Term) -> int:
    """Number of syntax nodes."""
    size, stack = 0, [t]
    while stack:
        cur = stack.pop()
        size += 1
        if type(cur) is App:
            stack += (cur.arg, cur.fn)
        elif type(cur) is Abs:
            stack.append(cur.body)
    return size


def fresh_name(stem: str, avoid) -> str:
    """Return stem with primes appended until it avoids the given names."""
    name = stem
    while name in avoid:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# substitution

# The largest recursion limit CPython accepts. From Python 3.11 a call from
# one Python function to another takes no C stack, so under this limit a
# recursive walker is bounded by memory alone.
_DEEP = 2**31 - 1


def _deep(fn, *args):
    """fn(*args) with Python's cyclic garbage collector paused and the
    recursion limit lifted to _DEEP, both put back as they were afterwards,
    errors included. It is the one place that changes either.

    The walkers that recurse once per level (_subst1, _match) run under it,
    so a term of any depth is bounded by memory alone. The functions that
    build many nodes run under it too: they keep much of what they build,
    so the collector's young-generation passes would rescan the live term
    over and over, and terms are immutable trees, which cannot form cycles,
    so the pause holds back no garbage of theirs. The pause is no wider than
    one call, because around a whole command it also held back the reference
    cycles that the rest of the command leaves, and the command's peak
    memory rose by a fifth. Both settings are interpreter-wide: they hold
    for every thread while fn runs.
    """
    collecting = gc.isenabled()
    limit = sys.getrecursionlimit()
    gc.disable()
    sys.setrecursionlimit(_DEEP)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)
        if collecting:
            gc.enable()


def _subst1(t, name, value, name2=None, value2=None, primed=None):
    """Capture-avoiding substitution of a single free variable, for a t in
    which name is free; given name2 and value2 as well, t[name := value]
    [name2 := value2] in one walk, for a t in which both are free and a
    value in which name2 is not; given primed too, t[name2 := primed]
    [name := value][primed := value2] in one walk, for a t in which name2
    is free and a primed that is free in neither t nor value.

    A binder that would capture a free variable of value is primed until it
    is fresh for value and the body; step-for-step output depends on this
    exact rule.

    Each node decides for its children: it enters only a child in which
    name is free, and puts value in place of a variable child without a
    call. With two names, a child that holds one of them takes the walk of
    that name alone, and one that holds both takes the walk of both; with
    primed, a child that holds name2 takes the walk of all three, whether
    or not it holds name. An abstraction whose binder either value mentions
    goes to the two walks one after the other, or to the three, so every
    binder is primed as they prime it; with primed, so does one whose
    binder is primed or name.
    """
    tt = type(t)
    if tt is App:
        fn = t.fn
        arg = t.arg
        if name2 is None:
            if name in fn.fv:
                fn = value if type(fn) is Var else _subst1(fn, name, value)
            if name in arg.fv:
                arg = value if type(arg) is Var else _subst1(arg, name, value)
            return App(fn, arg)
        if primed is not None:
            # kept apart from the walk of two names: passing primed on through
            # that walk's calls made it about 5% slower
            if name2 in fn.fv:
                fn = value2 if type(fn) is Var else _subst1(fn, name, value, name2, value2, primed)
            elif name in fn.fv:
                fn = value if type(fn) is Var else _subst1(fn, name, value)
            if name2 in arg.fv:
                arg = value2 if type(arg) is Var else _subst1(arg, name, value, name2, value2, primed)
            elif name in arg.fv:
                arg = value if type(arg) is Var else _subst1(arg, name, value)
            return App(fn, arg)
        fv = fn.fv
        if name in fv:
            if name2 in fv:
                fn = _subst1(fn, name, value, name2, value2)
            else:
                fn = value if type(fn) is Var else _subst1(fn, name, value)
        elif name2 in fv:
            fn = value2 if type(fn) is Var else _subst1(fn, name2, value2)
        fv = arg.fv
        if name in fv:
            if name2 in fv:
                arg = _subst1(arg, name, value, name2, value2)
            else:
                arg = value if type(arg) is Var else _subst1(arg, name, value)
        elif name2 in fv:
            arg = value2 if type(arg) is Var else _subst1(arg, name2, value2)
        return App(fn, arg)
    if tt is Var:
        return value
    binder = t.binder
    body = t.body
    if name2 is not None:
        if primed is not None:
            if binder in value.fv or binder in value2.fv or binder == primed or binder == name:
                t = _subst1(t, name2, Var(primed))
                if name in t.fv:
                    t = _subst1(t, name, value)
                return _subst1(t, primed, value2)
            body = value2 if type(body) is Var else _subst1(body, name, value, name2, value2, primed)
            return Abs(binder, body)
        if binder in value.fv or binder in value2.fv:
            return _subst1(_subst1(t, name, value), name2, value2)
        return Abs(binder, _subst1(body, name, value, name2, value2))
    if binder in value.fv:
        avoid = value.fv | body.fv
        nb = binder
        while nb in avoid:
            nb = nb + "'"
        if binder in body.fv:
            body = _subst1(body, binder, Var(nb))
        binder = nb
    return Abs(binder, value if type(body) is Var else _subst1(body, name, value))


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of free variables.

    Made of _subst1's walks, so binders are primed by the kernel's rule,
    only when they would capture a free variable of a substituted term. A
    single free key takes one walk. Several first become fresh temporaries,
    one walk each, and the values go in after, so no value's own free
    variables are substituted. A term in which no key is free comes back as
    the same object.
    """
    walks = [(k, v) for k, v in mapping.items() if k in t.fv]
    if len(walks) > 1:
        # names no parsed term holds, fresh for t and every value
        avoid = t.fv.union(*(v.fv for _, v in walks))
        temps = [fresh_name(str(i), avoid) for i in range(len(walks))]
        walks = [(k, Var(tmp)) for (k, _), tmp in zip(walks, temps)] + [
            (tmp, v) for (_, v), tmp in zip(walks, temps)
        ]
    for name, value in walks:
        t = _deep(_subst1, t, name, value)
    return t


# ---------------------------------------------------------------------------
# numerals


def church(n: int) -> Term:
    """The Church-style numeral \\x f (f)^n x, built under _deep, whose
    collector pause spares a large n the collections that would rescan the
    chain and find nothing."""
    if n < 0:
        raise ValueError("numeral index must be >= 0")
    return _deep(_numeral, Var, Abs, App, n)


def _numeral(var, lam, app, n: int) -> Term:
    """church(n), built by the given constructors of Var, Abs and App."""
    body: Term = var("x")
    f = var("f")
    for _ in range(n):
        body = app(f, body)
    return lam("x", lam("f", body))


def numeral_of(t: Term) -> Optional[int]:
    """Return n when t is alpha-equal to church(n), else None.

    Purely structural: performs no reduction.
    """
    if type(t) is not Abs or type(t.body) is not Abs:
        return None
    x, f = t.binder, t.body.binder
    if x == f:
        return None
    count = 0
    cur = t.body.body
    while type(cur) is App:
        fn = cur.fn
        if type(fn) is not Var or fn.name != f:
            return None
        count += 1
        cur = cur.arg
    if type(cur) is Var and cur.name == x:
        return count
    return None


# ---------------------------------------------------------------------------
# matching


def match_holes(
    pattern: Term, term: Term, holes: frozenset[str] | set[str]
) -> Optional[dict[str, Term]]:
    """First-order match of term against pattern.

    Free occurrences of hole names in the pattern may stand for any term
    whose free variables are not captured by binders of the surrounding
    term context. Returns the assignment, or None when the shapes differ
    or one hole would need two non-alpha-equal values.
    """
    sigma: dict[str, Term] = {}
    if not _deep(_match, pattern, term, holes, {}, {}, 0, sigma):
        return None
    if substitute(pattern, sigma) != term:
        return None
    return sigma


def _match(p, t, holes, penv, tenv, depth, sigma) -> bool:
    if type(p) is Var:
        pb = penv.get(p.name)
        if pb is not None:
            return type(t) is Var and tenv.get(t.name) == pb
        if p.name in holes:
            if t.fv & tenv.keys():
                return False  # value would escape a binder entered during the match
            prev = sigma.get(p.name)
            if prev is None:
                sigma[p.name] = t
                return True
            return prev == t
        return type(t) is Var and t.name == p.name and t.name not in tenv
    if type(p) is App:
        return (
            type(t) is App
            and _match(p.fn, t.fn, holes, penv, tenv, depth, sigma)
            and _match(p.arg, t.arg, holes, penv, tenv, depth, sigma)
        )
    if type(t) is not Abs:
        return False
    oldp = penv.get(p.binder)
    oldt = tenv.get(t.binder)
    penv[p.binder] = depth
    tenv[t.binder] = depth
    try:
        return _match(p.body, t.body, holes, penv, tenv, depth + 1, sigma)
    finally:
        if oldp is None:
            del penv[p.binder]
        else:
            penv[p.binder] = oldp
        if oldt is None:
            del tenv[t.binder]
        else:
            tenv[t.binder] = oldt


# ---------------------------------------------------------------------------
# intern tables


def _interning(table: dict, cls, shape: str):
    """cls's constructor through table, an intern table, which holds one
    node per exact named structure.

    A call looks its node up by key: cls, the node's label (its name, var
    or binder, None for none) and the ids of its children, which must be
    table's own nodes. On a miss it builds the node and stores it. shape
    is what cls takes: "pair", two children (App, Arrow); "bound", a label
    and a child (Abs, a quantifier); "named", a label and a tuple of
    children, a label alone, or nothing (Var, an atom, a first-order term,
    Bot). The table keeps its nodes alive, so no id in a key is reused
    while it lives, and the class keeps the keys of terms, formulas and
    first-order terms apart in one table. The table also holds the makers
    (``_term_makers``, ``formulas._makers``), whose closures hold the
    table: a caller that makes one empties it when done, as
    ``read_derivation`` does, or leaves the cycle to the collector.
    """
    get = table.get
    if shape == "pair":

        def make(a, b):
            key = (cls, None, id(a), id(b))
            node = get(key)
            if node is None:
                node = table[key] = cls(a, b)
            return node

    elif shape == "bound":

        def make(label, body):
            key = (cls, label, id(body))
            node = get(key)
            if node is None:
                node = table[key] = cls(label, body)
            return node

    else:

        def make(label=None, args=()):
            key = (cls, label, *map(id, args)) if args else (cls, label)
            node = get(key)
            if node is None:
                node = cls(label, args) if args else cls() if label is None else cls(label)
                table[key] = node
            return node

    return make


def _term_makers(table: dict) -> tuple:
    """Var, Abs and App through table, made on the first call with it and
    kept in it, under this function as key."""
    makers = table.get(_term_makers)
    if makers is None:
        makers = table[_term_makers] = (
            _interning(table, Var, "named"),
            _interning(table, Abs, "bound"),
            _interning(table, App, "pair"),
        )
    return makers


# ---------------------------------------------------------------------------
# concrete syntax


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


# one token per match after any whitespace: a builtin reference with its
# optional numeral suffix, a name, a lambda, a parenthesis or a lone "@";
# else a stray
_TOKEN = re.compile(
    r"([ \t\r\n]*)(?:(@[A-Za-z_][A-Za-z0-9_']*(?::[0-9]*)?|[A-Za-z_][A-Za-z0-9_']*|[\\()@]|λ)"
    r"|([^ \t\r\n]))"
)
_PUNCT = {"\\": "lam", "λ": "lam", "(": "(", ")": ")"}
_MAX_DIGITS = 6  # of an @church: suffix, so the numerals read are below a million


def _scan(pattern: re.Pattern, src: str) -> list:
    """pattern.findall over src, up to its trailing whitespace.

    The only code that runs a token pattern: terms, formulas and derivation
    files each scan through it. Their patterns let a run of " \\t\\r\\n" come
    before each token, so at a trailing run, where no token follows, the
    regex engine would retry the run from each of its characters, in time
    quadratic in its length; the run is cut first. Only those four
    characters are cut, the ones the patterns skip: any other, such as a
    form feed or a no-break space, is still scanned, and a term or formula
    rejects it as a stray.
    """
    return pattern.findall(src, 0, len(src.rstrip(" \t\r\n")))


def _tokenize(src: str):
    toks = []
    at = 0
    for space, text, stray in _scan(_TOKEN, src):
        at += len(space)
        if stray:
            raise ParseError(f"unexpected character {stray!r}", at)
        kind = _PUNCT.get(text)
        if kind is not None:
            toks.append((kind, "", at))
        elif text[0] != "@":
            toks.append(("name", text, at))
        elif text == "@":
            raise ParseError("expected a name after '@'", at)
        else:
            name, colon, digits = text[1:].partition(":")
            if colon and not digits:
                raise ParseError("expected digits after ':'", at + len(text))
            if len(digits) > _MAX_DIGITS:
                raise ParseError(f"more than {_MAX_DIGITS} digits after ':'", at + len(name) + 2)
            toks.append(("at", (name, int(digits) if colon else None), at))
        at += len(text)
    toks.append(("end", "", len(src)))
    return toks


def parse_term(
    src: str, builtins: Mapping[str, Term] | None = None, *, table: dict | None = None
) -> Term:
    """Parse the concrete syntax described in the module docstring.

    ``@name`` splices a term from the builtins mapping; ``@church:N`` is the
    numeral N, of at most six digits, and needs no mapping.

    Given an intern table, every node is built through it, as
    ``_interning`` describes, the numeral's included, so the term and each
    of its subterms is the table's one node of its exact named structure.
    A spliced builtin is not interned.
    """
    toks = _tokenize(src)
    if table is None:
        var, lam, app, numeral = Var, Abs, App, church
    else:
        var, lam, app = _term_makers(table)
        # under _deep, as church builds, so no collection rescans the chain
        numeral = partial(_deep, _numeral, var, lam, app)

    def leaf(kind: str, val, at: int) -> Term:
        """The term of a name or an ``@`` reference."""
        if kind == "name":
            return var(val)
        name, payload = val
        if payload is not None:
            if name != "church":
                raise ParseError(f"'@{name}:' takes no numeric suffix", at)
            return numeral(payload)
        if builtins is not None and name in builtins:
            return builtins[name]
        raise ParseError(f"unknown builtin reference '@{name}'", at)

    # what waits for the term being read, the innermost last: ("lam", binders),
    # or ("(", head) for a group whose ")" is still to come (head None before
    # its first term), or (")", head) for a closed group whose last argument
    # starts with "(" or a lambda
    stack: list = []
    i = 0
    while True:
        kind, val, at = toks[i]
        i += 1
        if kind == "(":
            stack.append(("(", None))
            continue
        if kind == "lam":
            names = []
            while toks[i][0] == "name":
                names.append(toks[i][1])
                i += 1
            stack.append(("lam", names))
            if toks[i][0] in ("(", "lam", "at"):
                if not names:
                    raise ParseError("lambda needs at least one binder", at)
                continue
            if len(names) < 2:
                raise ParseError("lambda needs a body", at)
            t = var(names.pop())
        elif kind == "name" or kind == "at":
            t = leaf(kind, val, at)
        else:
            raise ParseError("expected a term", at)
        # t is whole: hand it to what waits for it, until a new term starts
        while stack:
            what, held = stack.pop()
            if what == "lam":
                for b in reversed(held):
                    t = lam(b, t)
                continue
            if what == ")":
                t = app(held, t)
                continue
            head = t if held is None else app(held, t)
            while True:
                kind, val, at = toks[i]
                if kind == "name" or kind == "at":
                    head = app(head, leaf(kind, val, at))
                elif kind == ")" and what == "(":
                    what = ")"
                elif kind == "(" or kind == "lam" or what == ")":
                    break
                else:
                    raise ParseError("expected ')'", at)
                i += 1
            if kind == "(" or kind == "lam":
                stack.append((what, head))
                break
            t = head
        else:
            if toks[i][0] != "end":
                raise ParseError("unexpected trailing input", toks[i][2])
            return t


def print_term(t: Term, _cache: Optional[dict[int, str]] = None) -> str:
    """Render t; parse_term(print_term(t)) recovers t exactly.

    ``_cache`` maps id(node) to the node's text. A caller that prints many
    terms sharing subterms may pass one dict to all its calls, as long as
    every node it was filled from stays alive while the dict is in use.
    Its entries are the tops of abstraction chains and of application
    spines, the nodes whose text stands on its own.

    One loop appends the text to one list, which is joined once. What comes
    after the term being written waits on an explicit stack, so printing
    does not recurse. With a cache, a chain body, spine head or argument
    printed before is written from the cache as soon as it is met.
    """
    if type(t) is Var:
        return t.name
    if _cache is not None:
        s = _cache.get(id(t))
        if s is not None:
            return s
    out: list[str] = []
    # what is still to write, the next on top: strings, terms, and with a
    # cache the place in out where each unfinished top's text starts
    stack: list = []
    tops = []  # the unfinished tops, the innermost last
    cur = t  # the next term to write, a chain or spine top, never a variable
    while True:
        top = cur
        waiting = len(stack)
        # top's text begins with text; the rest goes on the stack from the
        # end backwards, each term not yet printed and the string after it
        if type(cur) is Abs:
            binders = []
            while type(cur) is Abs:
                binders.append(cur.binder)
                cur = cur.body
            if type(cur) is Var:
                binders.append(cur.name)
                text = "\\" + " ".join(binders)
            else:
                text = "\\" + " ".join(binders) + " "
                s = None if _cache is None else _cache.get(id(cur))
                if s is None:
                    stack.append(cur)
                else:
                    text += s
        else:
            # (head) a1 .. an: an argument that is neither a variable nor
            # the last closes a parenthesis opened before the head
            opens = "("
            tail = ""  # the text after the last term put on the stack
            while type(cur) is App:
                a = cur.arg
                cur = cur.fn
                if type(a) is Var:
                    tail = " " + a.name + tail
                    continue
                if tail:
                    opens += "("
                    tail = ")" + tail
                s = None if _cache is None else _cache.get(id(a))
                if s is None:
                    if tail:
                        stack.append(tail)
                    stack.append(a)
                    tail = " "
                else:
                    tail = " " + s + tail
            if type(cur) is Var:
                s = cur.name
            else:
                s = None if _cache is None else _cache.get(id(cur))
            if s is None:
                stack += (")" + tail, cur)
                text = opens
            else:
                text = opens + s + ")" + tail
        if len(stack) > waiting:
            # the next term to write is on top of the stack
            if _cache is not None:
                # below top's pieces, where its text starts in out
                stack.insert(waiting, len(out))
                tops.append(top)
            out.append(text)
            cur = stack.pop()
            continue
        if _cache is not None:
            _cache[id(top)] = text
        out.append(text)
        while stack:
            cur = stack.pop()
            tc = type(cur)
            if tc is int:
                # fold a finished top's text into one piece and cache it
                s = "".join(out[cur:])
                out[cur:] = [s]
                _cache[id(tops.pop())] = s  # type: ignore[index]
            elif tc is str:
                out.append(cur)
            else:
                break
        else:
            return "".join(out)
