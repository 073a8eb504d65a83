"""Symbolic certification of storage behavior.

The certifier drives the head reduction of ((op) v) f with v and f held
abstract. Whenever v heads the term it is expanded as an iterator worth n:
worth 0 it selects its first argument, worth k+1 it applies its second
argument to a fresh indexed variable worth k. Indexed variables expand the
same way and may be consumed only once. The run must end with f applied to
exactly one argument; that argument must normalize to the expected numeral.

A certificate records the whole run, machine step by machine step, and is
deterministic: replaying the same operator at the same value reproduces the
same text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from storop.reduction import DEFAULT_FUEL, beta_equiv, head_reduce, normalize
from storop.terms import (
    Abs,
    App,
    Term,
    Var,
    church,
    fresh_name,
    match_holes,
    numeral_of,
    parse_term,
    print_term,
)

__all__ = [
    "IndexedVarRegistry",
    "MachineStep",
    "Certificate",
    "certify",
    "certify_range",
    "theta_corpus",
    "behavioral_check",
    "BehavioralResult",
    "pair_behavioral",
    "PairReport",
    "alpha_normalize",
    "anti_unify",
    "OK",
    "BAD_HEAD_SHAPE",
    "FUEL_EXHAUSTED",
    "STEP_BUDGET_EXHAUSTED",
    "INDEXED_REUSE",
    "TAU_NOT_NUMERAL",
    "TAU_WRONG_VALUE",
]


@dataclass
class _Entry:
    value: int
    first: Term
    second: Term
    used: bool = False


class IndexedVarRegistry:
    """Fresh single-use stand-ins for partially consumed iterators."""

    def __init__(self, avoid: Iterable[str] = ()):
        self._avoid = set(avoid)
        self._entries: dict[str, _Entry] = {}

    def fresh(self, value: int, first: Term, second: Term) -> str:
        name = f"x_{value}"
        while name in self._avoid or name in self._entries:
            name += "'"
        self._entries[name] = _Entry(value, first, second)
        return name

    def lookup(self, name: str) -> Optional[_Entry]:
        return self._entries.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def rows(self) -> tuple[tuple[str, int, str, str], ...]:
        """(name, level, first, second) per entry, in creation order."""
        return tuple(
            (name, e.value, print_term(e.first), print_term(e.second))
            for name, e in self._entries.items()
        )


@dataclass(frozen=True)
class MachineStep:
    kind: str  # "nu-head", "indexed-head", "f-terminal"
    head: str
    args: int
    contractions: int
    state: str  # the term after this step, printed

    def describe(self) -> str:
        return (
            f"{self.kind} head={self.head} args={self.args} "
            f"contractions={self.contractions} -> {self.state}"
        )


# failure tags are stable strings; tests and the command line rely on them
OK = "ok"
BAD_HEAD_SHAPE = "bad-head-shape"
FUEL_EXHAUSTED = "fuel-exhausted"
STEP_BUDGET_EXHAUSTED = "step-budget-exhausted"
INDEXED_REUSE = "indexed-variable-reused"
TAU_NOT_NUMERAL = "tau-not-numeral"
TAU_WRONG_VALUE = "tau-wrong-value"


@dataclass
class Certificate:
    operator: str
    n: int
    strict: bool
    status: str
    steps: tuple[MachineStep, ...]
    total_contractions: int
    tau: Optional[str] = None
    tau_value: Optional[int] = None
    detail: str = ""
    registry: tuple[tuple[str, int, str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == OK

    def to_text(self) -> str:
        lines = [
            f"operator: {self.operator}",
            f"n: {self.n}",
            f"strict: {'true' if self.strict else 'false'}",
            f"status: {self.status}",
            f"machine-steps: {len(self.steps)}",
            f"total-contractions: {self.total_contractions}",
        ]
        for i, s in enumerate(self.steps, start=1):
            lines.append(f"step {i}: {s.describe()}")
        lines.append(f"registry: {len(self.registry)} entries")
        for name, level, first, second in self.registry:
            lines.append(f"  {name} := level={level} first={first} second={second}")
        if self.tau is not None:
            lines.append(f"tau: {self.tau}")
        if self.tau_value is not None:
            lines.append(f"tau-value: {self.tau_value}")
        if self.detail:
            lines.append(f"detail: {self.detail}")
        return "\n".join(lines) + "\n"


def _spine(t: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    while type(t) is App:
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def _apply(t: Term, args: Sequence[Term]) -> Term:
    for a in args:
        t = App(t, a)
    return t


def certify(
    op: Term,
    n: int,
    fuel: int = DEFAULT_FUEL,
    strict: bool = True,
    max_machine_steps: Optional[int] = None,
) -> Certificate:
    """Run the symbolic storage machine on an operator at value n."""
    if n < 0:
        raise ValueError("the stored value must be non-negative")
    if max_machine_steps is None:
        max_machine_steps = 8 * (n + 1) + 32
    printed_op = print_term(op)
    nu = fresh_name("v", op.fv)
    f = fresh_name("f", op.fv | {nu})
    registry = IndexedVarRegistry(op.fv | {nu, f})
    term: Term = App(App(op, Var(nu)), Var(f))
    steps: list[MachineStep] = []
    total = 0
    fuel_left = fuel

    def done(status, tau=None, tau_value=None, detail=""):
        return Certificate(
            printed_op, n, strict, status, tuple(steps), total, tau, tau_value, detail,
            registry.rows(),
        )

    while True:
        if len(steps) >= max_machine_steps:
            return done(STEP_BUDGET_EXHAUSTED, detail=f"more than {max_machine_steps} machine steps")
        out = head_reduce(term, fuel_left)
        total += out.steps
        fuel_left -= out.steps
        term = out.result
        if not out.completed:
            return done(FUEL_EXHAUSTED, detail="head reduction ran out of fuel")
        if type(term) is Abs:
            steps.append(MachineStep("bad", "lambda", 0, out.steps, print_term(term)))
            return done(BAD_HEAD_SHAPE, detail="head normal form is an abstraction")
        head, args = _spine(term)
        if type(head) is not Var:
            raise AssertionError("head normal form must be headed by a variable")

        if head.name == f:
            steps.append(MachineStep("f-terminal", f, len(args), out.steps, print_term(term)))
            if len(args) != 1:
                return done(
                    BAD_HEAD_SHAPE,
                    detail=f"terminal must carry exactly one argument, found {len(args)}",
                )
            tau = args[0]
            norm = normalize(tau, fuel_left)
            fuel_left -= norm.steps
            if not norm.completed:
                return done(FUEL_EXHAUSTED, print_term(tau), detail="the output did not normalize in fuel")
            value = numeral_of(norm.result)
            if value is None:
                return done(
                    TAU_NOT_NUMERAL,
                    print_term(tau),
                    detail=f"the output normalizes to {print_term(norm.result)}",
                )
            if strict and value != n:
                return done(TAU_WRONG_VALUE, print_term(tau), value, f"expected {n}, got {value}")
            return done(OK, print_term(tau), value)

        if head.name == nu:
            if len(args) < 2:
                steps.append(MachineStep("nu-head", nu, len(args), out.steps, print_term(term)))
                return done(BAD_HEAD_SHAPE, detail="the iterator needs at least two arguments")
            first, second, rest = args[0], args[1], args[2:]
            if n == 0:
                term = _apply(first, rest)
            else:
                name = registry.fresh(n - 1, first, second)
                term = _apply(App(second, Var(name)), rest)
            steps.append(MachineStep("nu-head", nu, len(args), out.steps, print_term(term)))
            continue

        entry = registry.lookup(head.name)
        if entry is not None:
            if entry.used:
                steps.append(MachineStep("indexed-head", head.name, len(args), out.steps, print_term(term)))
                return done(INDEXED_REUSE, detail=f"{head.name} was expanded twice")
            entry.used = True
            if entry.value == 0:
                term = _apply(entry.first, args)
            else:
                name = registry.fresh(entry.value - 1, entry.first, entry.second)
                term = _apply(App(entry.second, Var(name)), args)
            steps.append(MachineStep("indexed-head", head.name, len(args), out.steps, print_term(term)))
            continue

        steps.append(MachineStep("bad", head.name, len(args), out.steps, print_term(term)))
        return done(BAD_HEAD_SHAPE, detail=f"unexpected head variable {head.name}")


def certify_range(
    op: Term,
    values: Iterable[int],
    fuel: int = DEFAULT_FUEL,
    strict: bool = True,
) -> list[Certificate]:
    return [certify(op, n, fuel, strict) for n in values]


# ---------------------------------------------------------------------------
# concrete argument corpus


def theta_corpus(n: int, extra: int = 4, seed: int = 0) -> list[Term]:
    """Closed terms provably equal to the n-th numeral, in varied shapes.

    Includes the numeral itself, successor towers over smaller numerals,
    identity wrappings, and seeded redex insertions inside the body. Every
    candidate is verified equal to the numeral before it is returned.
    """
    if n < 0:
        raise ValueError("the stored value must be non-negative")
    succ = parse_term("\\n x f (f) ((n) x) f")
    out: list[Term] = [church(n)]
    for k in range(1, n + 1):
        t: Term = church(n - k)
        for _ in range(k):
            t = App(succ, t)
        out.append(t)
    ident = parse_term("\\x x")
    out.append(App(ident, church(n)))
    out.append(App(ident, App(ident, church(n))))
    rng = random.Random(seed)
    for _ in range(extra):
        t = church(n)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                t = App(ident, t)
            else:
                # discard a throwaway binder around the current candidate
                pad = fresh_name("d", t.fv)
                t = App(Abs(pad, t), ident)
        out.append(t)
    for t in out:
        if beta_equiv(t, church(n)) is not True:
            raise AssertionError(f"corpus term is not equal to the numeral: {print_term(t)}")
    return out


@dataclass(frozen=True)
class BehavioralResult:
    ok: bool
    status: str
    tau: Optional[str] = None
    value: Optional[int] = None


def _run_to_tau(op: Term, theta: Term, fuel: int) -> Term | str:
    """Head-reduce ((op) theta) f for a fresh f; return what f is applied to.

    Returns the failure tag FUEL_EXHAUSTED or BAD_HEAD_SHAPE instead when
    the run does not end as f applied to exactly one argument.
    """
    f = fresh_name("f", op.fv | theta.fv)
    out = head_reduce(App(App(op, theta), Var(f)), fuel)
    if not out.completed:
        return FUEL_EXHAUSTED
    hole = fresh_name("h", out.result.fv | {f})
    sigma = match_holes(App(Var(f), Var(hole)), out.result, {hole})
    if sigma is None:
        return BAD_HEAD_SHAPE
    return sigma[hole]


def behavioral_check(
    op: Term, theta: Term, n: int, fuel: int = DEFAULT_FUEL, strict: bool = True
) -> BehavioralResult:
    """Run the operator on one concrete argument and inspect the output."""
    tau = _run_to_tau(op, theta, fuel)
    if isinstance(tau, str):
        return BehavioralResult(False, tau)
    norm = normalize(tau, fuel)
    if not norm.completed:
        return BehavioralResult(False, FUEL_EXHAUSTED, print_term(tau))
    value = numeral_of(norm.result)
    if value is None:
        return BehavioralResult(False, TAU_NOT_NUMERAL, print_term(tau))
    if strict and value != n:
        return BehavioralResult(False, TAU_WRONG_VALUE, print_term(tau), value)
    return BehavioralResult(True, OK, print_term(tau), value)


# ---------------------------------------------------------------------------
# comparing runs on different arguments


def alpha_normalize(t: Term) -> Term:
    """Rename binders to a canonical preorder scheme, keeping free names."""
    free = t.fv
    counter = 0

    def walk(u: Term, env: dict[str, str]) -> Term:
        nonlocal counter
        tu = type(u)
        if tu is Var:
            return Var(env.get(u.name, u.name))
        if tu is App:
            return App(walk(u.fn, env), walk(u.arg, env))
        name = f"_b{counter}"
        counter += 1
        while name in free:
            name += "'"
        inner = dict(env)
        inner[u.binder] = name
        return Abs(name, walk(u.body, inner))

    return walk(t, {})


def anti_unify(s: Term, t: Term) -> tuple[Term, int]:
    """Least general generalization of two terms; mismatches become ?k holes.

    Purely structural, so alpha-normalize both sides first for stable
    results. Returns the pattern and the number of distinct holes.
    """
    table: dict[tuple[str, str], str] = {}

    def walk(a: Term, b: Term) -> Term:
        ta, tb = type(a), type(b)
        if ta is Var and tb is Var and a.name == b.name:
            return a
        if ta is App and tb is App:
            return App(walk(a.fn, b.fn), walk(a.arg, b.arg))
        if ta is Abs and tb is Abs and a.binder == b.binder:
            return Abs(a.binder, walk(a.body, b.body))
        key = (print_term(a), print_term(b))
        if key not in table:
            table[key] = f"?{len(table)}"
        return Var(table[key])

    return walk(s, t), len(table)


@dataclass(frozen=True)
class PairReport:
    tau_left: str
    tau_right: str
    identical: bool
    lgg: str
    holes: int
    value_left: Optional[int]
    value_right: Optional[int]
    diagnostic: str


def pair_behavioral(
    op: Term, theta_left: Term, theta_right: Term, fuel: int = DEFAULT_FUEL
) -> Optional[PairReport]:
    """Compare the raw outputs of one operator on two different arguments.

    A storage operator hands f the same term whatever shape the argument
    took; an operator that merely forwards its argument shows up here with
    the argument itself in the output. Returns None when either run fails
    to reach f with one argument.
    """
    tau_l = _run_to_tau(op, theta_left, fuel)
    tau_r = _run_to_tau(op, theta_right, fuel)
    if isinstance(tau_l, str) or isinstance(tau_r, str):
        return None
    norm_l = normalize(tau_l, fuel)
    norm_r = normalize(tau_r, fuel)
    value_l = numeral_of(norm_l.result) if norm_l.completed else None
    value_r = numeral_of(norm_r.result) if norm_r.completed else None
    canon_l = alpha_normalize(tau_l)
    canon_r = alpha_normalize(tau_r)
    identical = canon_l == canon_r
    lgg, holes = anti_unify(canon_l, canon_r)
    if identical:
        diagnostic = "output does not depend on the argument's shape"
    elif tau_l == theta_left and tau_r == theta_right:
        diagnostic = "passes argument unevaluated"
    else:
        diagnostic = "output varies with the argument's shape"
    return PairReport(
        print_term(tau_l),
        print_term(tau_r),
        identical,
        print_term(lgg),
        holes,
        value_l,
        value_r,
        diagnostic,
    )
