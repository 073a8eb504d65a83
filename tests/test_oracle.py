"""The kernel against an independent reference reducer, at every fuel.

reference.py reduces nameless terms one leftmost-outermost step at a time.
Each case runs through it once; then head_reduce and normalize run at every
fuel from 1 to one past its step count, and each result must be alpha-equal
to the reference's term after that many steps, with the same count and the
same verdict on whether the run stopped on its own.
"""

import random

import pytest

from genterms import random_closed_term, random_term
from reference import app, head_step, lam, normal_step, trace
from storop.builtins import BUILTINS
from storop.reduction import head_reduce, normalize
from storop.terms import Abs, App, Var, church, print_term

# steps followed on a term that does not stop sooner
LIMIT = 60


def nameless(t, bound=()):
    """t as a reference term; bound holds the enclosing binders, innermost last."""
    if type(t) is Var:
        for index, name in enumerate(reversed(bound)):
            if name == t.name:
                return index
        return t.name
    if type(t) is Abs:
        return lam(nameless(t.body, bound + (t.binder,)))
    return app(nameless(t.fn, bound), nameless(t.arg, bound))


def named(t, depth=0):
    """A reference term as a Term; the binder k levels down is named #k,
    which no free variable is."""
    if type(t) is int:
        return Var(f"#{depth - 1 - t}")
    if type(t) is str:
        return Var(t)
    if t[0] == "lam":
        return Abs(f"#{depth}", named(t[1], depth + 1))
    return App(named(t[1], depth), named(t[2], depth))


def _cases():
    cases = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for i in range(200):
            if i % 3 == 0:
                cases.append(App(random_closed_term(rng, depth=5), random_closed_term(rng, depth=4)))
            elif i % 3 == 1:
                # free x and y go into binders named x and y, which get primed
                cases.append(App(random_term(rng, depth=5), random_term(rng, depth=4, scope=["x", "y"])))
            else:
                # (\x y M) a b, x and y free in M: two contractions in a row,
                # with values that M's own binders may capture
                body = random_term(rng, depth=5, scope=["x", "y"])
                while not {"x", "y"} <= body.fv:
                    body = random_term(rng, depth=5, scope=["x", "y"])
                a = random_term(rng, depth=3, scope=["z", "u"])
                while "y" in a.fv:
                    a = random_term(rng, depth=3, scope=["z", "u"])
                b = random_term(rng, depth=3, scope=["z", "u", "x"])
                cases.append(App(App(Abs("x", Abs("y", body)), a), b))
    succ = BUILTINS["succ"]
    thetas = [church(k) for k in range(4)]
    thetas += [App(succ, church(1)), App(succ, App(succ, church(0))), App(succ, church(2))]
    for name in ("T1", "T2", "T", "Tp"):
        cases += [App(App(BUILTINS[name], theta), Var("f")) for theta in thetas]
    return cases


CASES = _cases()


@pytest.mark.parametrize(
    "run, step", [(head_reduce, head_step), (normalize, normal_step)], ids=["head", "normal"]
)
def test_kernel_agrees_with_the_reference_at_every_fuel(run, step):
    for t in CASES:
        terms, stopped = trace(step, nameless(t), LIMIT)
        steps = len(terms) - 1
        for fuel in range(1, steps + 2 if stopped else steps + 1):
            out = run(t, fuel)
            taken = min(fuel, steps)
            where = (print_term(t), fuel)
            assert out.steps == taken, where
            assert out.result == named(terms[taken]), where
            assert out.completed == (stopped and fuel >= steps), where
