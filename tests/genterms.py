"""Seeded random term generators shared by tests and benchmarks."""

import random

from storop.terms import Abs, App, Term, Var, fresh_name

FREE_POOL = ["a", "b", "c", "g", "h"]
BINDER_POOL = ["x", "y", "z", "u", "w"]


def random_term(rng: random.Random, depth: int = 5, scope=(), binders=BINDER_POOL) -> Term:
    """Arbitrary term, possibly open; shadowing and divergence both possible.
    Its abstractions bind names drawn from binders."""
    scope = list(scope)
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return Var(rng.choice(scope + FREE_POOL))
    if roll < 0.65:
        b = rng.choice(binders)
        return Abs(b, random_term(rng, depth - 1, scope + [b], binders))
    return App(
        random_term(rng, depth - 1, scope, binders),
        random_term(rng, depth - 1, scope, binders),
    )


def random_closed_term(rng: random.Random, depth: int = 6, scope=()) -> Term:
    scope = list(scope)
    roll = rng.random()
    if depth == 0:
        if scope:
            return Var(rng.choice(scope))
        return Abs("x", Var("x"))
    if roll < 0.3 and scope:
        return Var(rng.choice(scope))
    if roll < 0.65 or not scope:
        b = rng.choice(BINDER_POOL)
        return Abs(b, random_closed_term(rng, depth - 1, scope + [b]))
    return App(
        random_closed_term(rng, depth - 1, scope),
        random_closed_term(rng, depth - 1, scope),
    )


def _positions(t: Term, scope=()):
    """(node, names bound around it, put) for every node of t, preorder;
    put(u) is t with that node replaced by u."""
    yield t, scope, lambda u: u
    if type(t) is Abs:
        for node, inner, put in _positions(t.body, scope + (t.binder,)):
            yield node, inner, lambda u, put=put, b=t.binder: Abs(b, put(u))
    elif type(t) is App:
        for node, inner, put in _positions(t.fn, scope):
            yield node, inner, lambda u, put=put, a=t.arg: App(put(u), a)
        for node, inner, put in _positions(t.arg, scope):
            yield node, inner, lambda u, put=put, f=t.fn: App(f, put(u))


def single_node_mutants(t: Term):
    """The terms one edit away from t, each edit at one node: a variable
    renamed to another name bound around it, an application swapped or
    replaced by its function or by its argument, any node wrapped as
    (\\i i) node, an abstraction eta-expanded."""
    for node, scope, put in _positions(t):
        if type(node) is Var:
            for name in dict.fromkeys(reversed(scope)):
                if name != node.name:
                    yield put(Var(name))
        elif type(node) is App:
            yield put(App(node.arg, node.fn))
            yield put(node.fn)
            yield put(node.arg)
        else:
            w = fresh_name("w", node.fv)
            yield put(Abs(w, App(node, Var(w))))
        yield put(App(Abs("i", Var("i")), node))
