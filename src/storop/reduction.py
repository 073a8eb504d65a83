"""Reduction API: head reduction, normal-order normalization, equivalence.

A head step contracts the head redex of \\x1..xk ((\\y.M) N) a1..am and
counts as one step; step counts are exact and binder names are part of the
result (substitution renames a capturing binder by priming it). normalize
counts every head step it takes, at the root and inside arguments, in
normal (leftmost-outermost) order. On fuel exhaustion the result is the
partial reduct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from storop.terms import Abs, App, Term, Var, subterms

__all__ = [
    "DEFAULT_FUEL",
    "NORMAL_FORM",
    "HEAD_NORMAL_FORM",
    "FUEL_EXHAUSTED",
    "ReductionOutcome",
    "backend_name",
    "head_step",
    "normal_step",
    "head_reduce",
    "normalize",
    "is_normal",
    "beta_equiv",
]


DEFAULT_FUEL = 100_000

NORMAL_FORM = "normal-form-reached"
HEAD_NORMAL_FORM = "head-normal-form-reached"
FUEL_EXHAUSTED = "fuel-exhausted"


def backend_name() -> str:
    """The kernel lane, always 'pure': there is one kernel, in Python.

    Kept as a constant because benchmark results are stamped with it
    (perfbench/sample.py) and perfbench/compare.py refuses to compare
    results from different lanes.
    """
    return "pure"


@dataclass(frozen=True)
class ReductionOutcome:
    result: Term
    steps: int
    status: str

    @property
    def completed(self) -> bool:
        return self.status != FUEL_EXHAUSTED


def _check_fuel(fuel: int) -> None:
    if not isinstance(fuel, int) or isinstance(fuel, bool) or fuel <= 0:
        raise ValueError("fuel must be a positive integer")


def _subst1(t, name, value):
    """Capture-avoiding substitution of a single free variable.

    A binder that would capture a free variable of value is primed until it
    is fresh for value and the body. terms.substitute primes differently;
    step-for-step output depends on this exact rule.
    """
    if name not in t.fv:
        return t
    tt = type(t)
    if tt is Var:
        return value
    if tt is App:
        return App(_subst1(t.fn, name, value), _subst1(t.arg, name, value))
    binder = t.binder
    if binder in value.fv:
        avoid = value.fv | t.body.fv
        nb = binder
        while nb in avoid:
            nb = nb + "'"
        body = _subst1(t.body, binder, Var(nb))
        return Abs(nb, _subst1(body, name, value))
    return Abs(binder, _subst1(t.body, name, value))


def head_step(t: Term) -> Optional[Term]:
    """One head reduction step, or None when t is already in head normal form."""
    binders = []
    while type(t) is Abs:
        binders.append(t.binder)
        t = t.body
    rev_args = []
    while type(t) is App:
        rev_args.append(t.arg)
        t = t.fn
    if type(t) is not Abs or not rev_args:
        return None
    core = _subst1(t.body, t.binder, rev_args.pop())
    for a in reversed(rev_args):
        core = App(core, a)
    for b in reversed(binders):
        core = Abs(b, core)
    return core


def normal_step(t: Term) -> Optional[Term]:
    """One normal-order (leftmost-outermost) step, or None when t is normal.

    Iterating this matches normalize step for step, including variable names.
    """
    nxt = head_step(t)
    if nxt is not None:
        return nxt
    if type(t) is Abs:
        body = normal_step(t.body)
        return None if body is None else Abs(t.binder, body)
    if type(t) is App:
        fn = normal_step(t.fn)
        if fn is not None:
            return App(fn, t.arg)
        arg = normal_step(t.arg)
        return None if arg is None else App(t.fn, arg)
    return None


def head_reduce(t: Term, fuel: int = DEFAULT_FUEL) -> ReductionOutcome:
    """Head-reduce until head normal form or until fuel steps were taken.

    steps is the exact number of head reductions performed.
    """
    _check_fuel(fuel)
    steps = 0
    while steps < fuel:
        nxt = head_step(t)
        if nxt is None:
            return ReductionOutcome(t, steps, HEAD_NORMAL_FORM)
        t = nxt
        steps += 1
    status = HEAD_NORMAL_FORM if head_step(t) is None else FUEL_EXHAUSTED
    return ReductionOutcome(t, steps, status)


class _Budget:
    __slots__ = ("left", "dead")

    def __init__(self, left):
        self.left = left
        self.dead = False


def _norm(t, budget):
    if budget.dead:
        return t
    while True:
        nxt = head_step(t)
        if nxt is None:
            break
        if budget.left == 0:
            budget.dead = True
            return t
        t = nxt
        budget.left -= 1
    binders = []
    while type(t) is Abs:
        binders.append(t.binder)
        t = t.body
    rev_args = []
    while type(t) is App:
        rev_args.append(t.arg)
        t = t.fn
    core = t
    for a in reversed(rev_args):
        core = App(core, a if budget.dead else _norm(a, budget))
    for b in reversed(binders):
        core = Abs(b, core)
    return core


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> ReductionOutcome:
    """Normal-order normalization; on exhaustion result is the partial reduct."""
    _check_fuel(fuel)
    budget = _Budget(fuel)
    result = _norm(t, budget)
    status = FUEL_EXHAUSTED if budget.dead else NORMAL_FORM
    return ReductionOutcome(result, fuel - budget.left, status)


def is_normal(t: Term) -> bool:
    """True when t contains no beta redex at all."""
    return not any(type(s) is App and type(s.fn) is Abs for s in subterms(t))


def beta_equiv(t: Term, u: Term, fuel: int = DEFAULT_FUEL) -> Optional[bool]:
    """Semi-decision of beta-equivalence by comparing normal forms.

    True/False when both sides normalize within fuel; None when either side
    runs out (the question is then open, not settled).
    """
    _check_fuel(fuel)
    a = normalize(t, fuel)
    b = normalize(u, fuel)
    if a.completed and b.completed:
        return a.result == b.result
    return None

