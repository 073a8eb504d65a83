"""Symbolic certification of storage behavior.

The certifier drives the head reduction of ((op) v) f with v and f held
abstract. Whenever v heads the term it is expanded as an iterator worth n:
worth 0 it selects its first argument, worth k+1 it applies its second
argument to a fresh indexed variable worth k. Indexed variables expand the
same way and may be consumed only once. The run must end with f applied to
exactly one argument; that argument must normalize to the numeral n of the
stored value itself, as in Krivine's definition of a storage operator. There
is no other mode. All reduction, the machine's and the output's, shares one
fuel, and a run at value n takes at most 8 * (n + 1) + 32 machine steps.

A certificate records the whole run, machine step by machine step, and is
deterministic: replaying the same operator at the same value reproduces the
same text.

A behavioural check runs the operator on one concrete argument. Given the
certificate for its n, made with no more fuel, it takes the certificate's
verdict when f receives a term alpha-equal to the certified tau:
alpha-equal terms normalize in the same steps to the same numeral. Any
other output is normalized and read as the certifier reads tau.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from storop.builtins import BUILTINS
from storop.reduction import (
    DEFAULT_FUEL,
    FUEL_EXHAUSTED,
    _rebuild,
    _spine,
    head_reduce,
    normalize,
)
from storop.terms import (
    Abs,
    App,
    Term,
    Var,
    church,
    fresh_name,
    numeral_of,
    parse_term,
    print_term,
)

__all__ = [
    "MachineStep",
    "Certificate",
    "certify",
    "theta_corpus",
    "behavioral_check",
    "BehavioralResult",
    "OK",
    "BAD_HEAD_SHAPE",
    "FUEL_EXHAUSTED",
    "STEP_BUDGET_EXHAUSTED",
    "INDEXED_REUSE",
    "TAU_NOT_NUMERAL",
    "TAU_WRONG_VALUE",
]


@dataclass(frozen=True, slots=True)
class MachineStep:
    kind: str  # "nu-head", "indexed-head", "f-terminal"
    head: str
    args: int
    contractions: int
    term: Term  # the term after this step


# failure tags are stable strings; tests and the command line rely on them
OK = "ok"
BAD_HEAD_SHAPE = "bad-head-shape"
STEP_BUDGET_EXHAUSTED = "step-budget-exhausted"
INDEXED_REUSE = "indexed-variable-reused"
TAU_NOT_NUMERAL = "tau-not-numeral"
TAU_WRONG_VALUE = "tau-wrong-value"


@dataclass
class Certificate:
    operator: str
    n: int
    status: str
    steps: tuple[MachineStep, ...]
    total_contractions: int
    tau_term: Optional[Term] = None  # what f received
    tau_value: Optional[int] = None
    detail: str = ""
    registry_terms: tuple[tuple[str, int, Term, Term], ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def tau(self) -> Optional[str]:
        """What f received, printed; None when the run did not reach f.

        A tau repeats one shared node at each of its n layers, so it is
        printed through a cache of its own.
        """
        return None if self.tau_term is None else print_term(self.tau_term, {})

    def to_text(self) -> str:
        # Successive states share all but their spines, and the certificate
        # keeps every node alive meanwhile, so one print cache keyed by node
        # identity serves the whole text.
        cache: dict[int, str] = {}
        lines = [
            f"operator: {self.operator}",
            f"n: {self.n}",
            "strict: true",  # the one mode; the line keeps the text's format
            f"status: {self.status}",
            f"machine-steps: {len(self.steps)}",
            f"total-contractions: {self.total_contractions}",
        ]
        for i, s in enumerate(self.steps, start=1):
            lines.append(
                f"step {i}: {s.kind} head={s.head} args={s.args}"
                f" contractions={s.contractions} -> {print_term(s.term, cache)}"
            )
        lines.append(f"registry: {len(self.registry_terms)} entries")
        for name, level, first, second in self.registry_terms:
            lines.append(
                f"  {name} := level={level} first={print_term(first, cache)}"
                f" second={print_term(second, cache)}"
            )
        if self.tau_term is not None:
            lines.append(f"tau: {print_term(self.tau_term, cache)}")
        if self.tau_value is not None:
            lines.append(f"tau-value: {self.tau_value}")
        if self.detail:
            lines.append(f"detail: {self.detail}")
        return "\n".join(lines) + "\n"


def _read_output(tau: Term, n: int, fuel: int) -> tuple[str, Optional[int], str]:
    """The verdict on tau, what f received: (status, value, detail).

    tau must normalize within fuel, which may be 0, to the numeral n; value
    is the numeral it normalizes to, None when there is none.
    """
    norm = normalize(tau, fuel)
    if not norm.completed:
        return FUEL_EXHAUSTED, None, "the output did not normalize in fuel"
    value = numeral_of(norm.result)
    if value is None:
        return TAU_NOT_NUMERAL, None, f"the output normalizes to {print_term(norm.result)}"
    if value != n:
        return TAU_WRONG_VALUE, value, f"expected {n}, got {value}"
    return OK, value, ""


def certify(op: Term, n: int, fuel: int = DEFAULT_FUEL) -> Certificate:
    """Run the symbolic storage machine on an operator at value n."""
    if n < 0:
        raise ValueError("the stored value must be non-negative")
    budget = 8 * (n + 1) + 32
    printed_op = print_term(op)
    nu = fresh_name("v", op.fv)
    f = fresh_name("f", op.fv | {nu})
    avoid = op.fv | {nu, f}
    # indexed variable name -> [level, first, second, expanded], in creation order
    registry: dict[str, list] = {}
    term: Term = App(App(op, Var(nu)), Var(f))
    steps: list[MachineStep] = []
    total = 0
    fuel_left = fuel

    def done(status, tau=None, tau_value=None, detail=""):
        return Certificate(
            printed_op, n, status, tuple(steps), total, tau, tau_value, detail,
            tuple((name, e[0], e[1], e[2]) for name, e in registry.items()),
        )

    while True:
        if len(steps) >= budget:
            return done(STEP_BUDGET_EXHAUSTED, detail=f"more than {budget} machine steps")
        out = head_reduce(term, fuel_left)
        total += out.steps
        fuel_left -= out.steps
        term = out.result
        if not out.completed:
            return done(FUEL_EXHAUSTED, detail="head reduction ran out of fuel")
        if type(term) is Abs:
            steps.append(MachineStep("bad", "lambda", 0, out.steps, term))
            return done(BAD_HEAD_SHAPE, detail="head normal form is an abstraction")
        _, head, args, _ = _spine(term, 0)  # a head normal form: nothing to contract
        if type(head) is not Var:
            raise AssertionError("head normal form must be headed by a variable")

        if head.name == f:
            steps.append(MachineStep("f-terminal", f, len(args), out.steps, term))
            if len(args) != 1:
                return done(
                    BAD_HEAD_SHAPE,
                    detail=f"terminal must carry exactly one argument, found {len(args)}",
                )
            tau = args[0]
            status, value, detail = _read_output(tau, n, fuel_left)
            return done(status, tau, value, detail)

        # the iterator at the head, v or an indexed variable: its value, its two
        # arguments and the rest; both kinds then expand the same way
        if head.name == nu:
            kind = "nu-head"
            if len(args) < 2:
                steps.append(MachineStep(kind, nu, len(args), out.steps, term))
                return done(BAD_HEAD_SHAPE, detail="the iterator needs at least two arguments")
            value, first, second, rest = n, args[0], args[1], args[2:]
        else:
            entry = registry.get(head.name)
            if entry is None:
                steps.append(MachineStep("bad", head.name, len(args), out.steps, term))
                return done(BAD_HEAD_SHAPE, detail=f"unexpected head variable {head.name}")
            kind = "indexed-head"
            if entry[3]:
                steps.append(MachineStep(kind, head.name, len(args), out.steps, term))
                return done(INDEXED_REUSE, detail=f"{head.name} was expanded twice")
            entry[3] = True
            value, first, second, _ = entry
            rest = args
        if value == 0:
            term = _rebuild((), first, rest)
        else:
            name = f"x_{value - 1}"
            while name in avoid or name in registry:
                name += "'"
            registry[name] = [value - 1, first, second, False]
            term = _rebuild((), App(second, Var(name)), rest)
        steps.append(MachineStep(kind, head.name, len(args), out.steps, term))


# ---------------------------------------------------------------------------
# concrete argument corpus


def _round_robin(families: Sequence[Iterable[Term]]) -> Iterator[Term]:
    pending = deque(iter(f) for f in families)
    while pending:
        it = pending.popleft()
        t = next(it, None)
        if t is not None:
            yield t
            pending.append(it)


# the corpus's two fixed terms, shared by every corpus: terms are immutable
_SUCC = BUILTINS["succ"]
_IDENT = parse_term("\\x x")


def theta_corpus(
    n: int,
    extra: int = 4,
    seed: int = 0,
    limit: Optional[int] = None,
) -> list[Term]:
    """Closed terms equal to the n-th numeral by construction, in varied shapes.

    There are four shape families, each equal to n for one reason:

    - the numeral itself;
    - succ^k applied to church(n - k), for k = 1..n: each succ adds one;
    - (\\x x) N and (\\x x) (\\x x) N for the numeral N: I M = M;
    - seeded wrappings of N in I or in a discarding redex (\\d M) I, where
      d is not free in M: either contracts to M.

    Terms are taken round-robin over the families, so every prefix mixes
    the shapes. Nothing is normalized here, and nothing past the first
    ``limit`` terms (None: all) is built, beyond the two identity wrappings.
    The test suite normalizes every term to check that it equals n.
    """
    if n < 0:
        raise ValueError("the stored value must be non-negative")
    target = church(n)
    wraps = (App(_IDENT, target), App(_IDENT, App(_IDENT, target)))

    def towers() -> Iterator[Term]:
        for k in range(1, n + 1):
            t: Term = church(n - k)
            for _ in range(k):
                t = App(_SUCC, t)
            yield t

    def seeded() -> Iterator[Term]:
        rng = random.Random(seed)
        for _ in range(extra):
            t = target
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    t = App(_IDENT, t)
                else:
                    # discard a throwaway binder around the current candidate
                    pad = fresh_name("d", t.fv)
                    t = App(Abs(pad, t), _IDENT)
            yield t

    return list(islice(_round_robin(((target,), towers(), wraps, seeded())), limit))


@dataclass(frozen=True, slots=True)
class BehavioralResult:
    ok: bool
    status: str
    tau_term: Optional[Term] = None  # what f received
    value: Optional[int] = None

    @property
    def tau(self) -> Optional[str]:
        """What f received, printed; None when the run did not reach f."""
        return None if self.tau_term is None else print_term(self.tau_term)


def behavioral_check(
    op: Term,
    theta: Term,
    n: int,
    fuel: int = DEFAULT_FUEL,
    cert: Optional[Certificate] = None,
) -> BehavioralResult:
    """Run the operator on one concrete argument and inspect the output.

    Head-reduces ((op) theta) f for a fresh f; the run must end as f applied
    to exactly one argument, which must normalize to the numeral n.

    ``cert``, when given, must come from certify at a fuel no larger than
    ``fuel``. When it is ok, for this n, and the argument f
    received is ``==`` (alpha-equal) to its tau, the verdict is the
    certificate's and nothing is normalized; otherwise the argument is
    normalized as without it.
    """
    f = fresh_name("f", op.fv | theta.fv)
    out = head_reduce(App(App(op, theta), Var(f)), fuel)
    if not out.completed:
        return BehavioralResult(False, FUEL_EXHAUSTED)
    r = out.result
    if not (type(r) is App and type(r.fn) is Var and r.fn.name == f):
        return BehavioralResult(False, BAD_HEAD_SHAPE)
    tau = r.arg
    if cert is not None and cert.ok and cert.n == n and tau == cert.tau_term:
        return BehavioralResult(True, OK, tau, cert.tau_value)
    status, value, _ = _read_output(tau, n, fuel)
    return BehavioralResult(status == OK, status, tau, value)
