"""Reduction API: head reduction, normal-order normalization, equivalence.

A head step contracts the head redex of \\x1..xk ((\\y.M) N) a1..am and
counts as one step; step counts are exact and binder names are part of the
result (substitution renames a capturing binder by priming it). normalize
counts every head step it takes, at the root and inside arguments, in
normal (leftmost-outermost) order. On fuel exhaustion the result is the
partial reduct. Fuel 0 takes no step: the term comes back as itself, as
completed if it has nothing to contract and as fuel-exhausted otherwise.

One spine loop serves both: it keeps the binders, the head and the argument
stack of a term across steps, so nothing is rebuilt between contractions.
head_reduce runs it once; normalize runs it on the root, then on each
argument of every head normal form. A single step is a call with fuel=1.

A contraction substitutes straight into the loop's state rather than
building the substituted body first. Down an application spine that
mentions the variable, each argument goes onto the argument stack,
substituted where the variable is free, and no spine node is built. An
abstraction \\y M reached this way, as the body or as the head of its
spine, is not built either when the next step would contract it at once:
an argument b waits and fuel is left. That next contraction is made
first. If y is free in both M and the value a, x := a would prime y to
y', fresh for a and M, and the next step would replace y' by b: one walk
of _subst1 makes the rename and both substitutions, M[y := y'][x := a]
[y' := b], where three walks would rename M, substitute into it and take
the result apart. Otherwise, if b is y itself, (\\y M[x := a]) y is
M[x := a], so the walk goes on down M with x := a still pending and
builds nothing. If x and y are both free in M, one walk of _subst1 makes
both substitutions, M[x := a][y := b], where two walks would build
M[x := a] only to take it apart. Either walk sends through the separate
walks in turn the subtree of a binder that a value would prime, and the
first walk also that of a binder named y' or x. Otherwise y is not free
in M, and M[x := a] is the reduct. Everything else goes to _subst1
whole: an abstraction that has no argument waiting, or that the fuel
does not reach. Counts, binder names and partial reducts are those of
substituting first and contracting after.

Contracting a variable into a binder of its own name, as in
(\\x M) x, continues with M itself: that substitution could prime no
binder and would rebuild the same term, but the step still counts. A
contraction whose binder is not free in its body continues with the body
as it is, for the same reason.

Substitution (terms._subst1) recurses once per level, so head_reduce and
normalize run under terms._deep, which lifts the recursion limit and
pauses the cyclic garbage collector while they run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from storop.terms import Abs, App, Term, Var, _deep, _subst1, fresh_name

__all__ = [
    "DEFAULT_FUEL",
    "NORMAL_FORM",
    "HEAD_NORMAL_FORM",
    "FUEL_EXHAUSTED",
    "ReductionOutcome",
    "backend_name",
    "head_reduce",
    "normalize",
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


@dataclass(frozen=True, slots=True)
class ReductionOutcome:
    result: Term
    steps: int
    status: str

    @property
    def completed(self) -> bool:
        return self.status != FUEL_EXHAUSTED


def _check_fuel(fuel: int) -> None:
    if not isinstance(fuel, int) or isinstance(fuel, bool) or fuel < 0:
        raise ValueError("fuel must be a non-negative integer")


def _spine(t, fuel):
    """Head-reduce t with at most fuel contractions, keeping the spine.

    Pushes the argument at an application, enters the binder of an
    abstraction that has no argument, and contracts an abstraction that has
    one. Returns (binders, head, args, steps) with args left to right; head
    is an abstraction exactly when the fuel ran out before a head normal form.

    A contraction x := a walks the body's spine while it mentions x,
    pushing each argument with a in place of x. A head that is a variable
    is x itself and becomes a. A head abstraction \\y M with an argument b
    waiting and fuel left is contracted in turn without being built. If a
    and M both mention y, one call of _subst1 builds M[y := y'][x := a]
    [y' := b] for the y' to which x := a would prime y. Otherwise the walk
    goes on down M if b is y, and one call of _subst1 builds
    M[x := a][y := b], or M[x := a] if y is not free in M. Any other
    abstraction goes to _subst1, which primes its binder if need be, and
    the loop goes on from there.
    """
    binders = []
    args = []  # the first argument on top
    steps = 0
    while True:
        tt = type(t)
        if tt is App:
            args.append(t.arg)
            t = t.fn
        elif tt is not Abs:
            break
        elif not args:
            binders.append(t.binder)
            t = t.body
        elif steps == fuel:
            break
        else:
            a = args.pop()
            x = t.binder
            t = t.body
            steps += 1
            if type(a) is Var and a.name == x:
                continue
            # t := t[x := a], written into the loop's own state
            while x in t.fv:
                tt = type(t)
                if tt is App:
                    arg = t.arg
                    if x in arg.fv:
                        arg = a if type(arg) is Var else _subst1(arg, x, a)
                    args.append(arg)
                    t = t.fn
                elif tt is Var:
                    t = a
                    break
                elif args and steps < fuel:
                    # the next step contracts this abstraction: contract it first
                    y = t.binder
                    t = t.body
                    b = args.pop()
                    steps += 1
                    if y in a.fv and y in t.fv:
                        # x := a would prime y to y', which b replaces at once
                        t = _subst1(t, x, a, y, b, fresh_name(y, a.fv | t.fv))
                    elif type(b) is Var and b.name == y:
                        continue  # (\y M[x := a]) y is M[x := a]
                    elif y in t.fv:
                        t = _subst1(t, x, a, y, b)
                    else:
                        t = a if type(t) is Var else _subst1(t, x, a)
                    break
                else:
                    t = _subst1(t, x, a)
                    break
    args.reverse()
    return binders, t, args, steps


def _rebuild(binders, head, args):
    for a in args:
        head = App(head, a)
    for b in reversed(binders):
        head = Abs(b, head)
    return head


def head_reduce(t: Term, fuel: int = DEFAULT_FUEL) -> ReductionOutcome:
    """Head-reduce until head normal form or until fuel steps were taken.

    steps is the exact number of head reductions performed. A head normal
    form takes no step and comes back as the same object.
    """
    _check_fuel(fuel)
    binders, head, args, steps = _deep(_spine, t, fuel)
    status = FUEL_EXHAUSTED if type(head) is Abs else HEAD_NORMAL_FORM
    return ReductionOutcome(_rebuild(binders, head, args) if steps else t, steps, status)


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> ReductionOutcome:
    """Normal-order normalization; on exhaustion result is the partial reduct.

    Head-reduces t, then each argument of its head normal form, left to
    right, over an explicit stack of the spines still waiting for one. A
    subterm in which no step was taken comes back as the same object, so a
    normal form returns itself.
    """
    _check_fuel(fuel)
    return _deep(_normalize, t, fuel)


def _normalize(t, fuel):
    steps = 0
    # (binders, head, args, i, node): argument i is being normalized; node is
    # the spine's own term while nothing in it has changed, else None
    waiting = []
    while True:
        binders, head, args, n = _spine(t, fuel - steps)
        steps += n
        node = None if n else t
        exhausted = type(head) is Abs
        i = len(args) if exhausted else 0
        while i == len(args):
            t = _rebuild(binders, head, args) if node is None else node
            if not waiting:
                return ReductionOutcome(t, steps, FUEL_EXHAUSTED if exhausted else NORMAL_FORM)
            binders, head, args, i, node = waiting.pop()
            if args[i] is not t:
                args[i] = t
                node = None
            i = len(args) if exhausted else i + 1
        waiting.append((binders, head, args, i, node))
        t = args[i]


def beta_equiv(t: Term, u: Term, fuel: int = DEFAULT_FUEL) -> Optional[bool]:
    """Semi-decision of beta-equivalence by comparing normal forms.

    True/False when both sides normalize within fuel; None when either side
    runs out (the question is then open, not settled).
    """
    _check_fuel(fuel)
    a = normalize(t, fuel)
    if not a.completed:
        return None
    b = normalize(u, fuel)
    return a.result == b.result if b.completed else None

