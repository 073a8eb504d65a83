import gc
import hashlib
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from deep import collector_paused, deep
from genterms import random_closed_term, random_term
import storop
from storop import reduction
from storop.builtins import BUILTINS
from storop.reduction import (
    DEFAULT_FUEL,
    FUEL_EXHAUSTED,
    HEAD_NORMAL_FORM,
    NORMAL_FORM,
    beta_equiv,
    head_reduce,
    normalize,
)
from storop.terms import (
    _DEEP,
    Abs,
    App,
    Var,
    church,
    fresh_name,
    numeral_of,
    parse_term,
    print_term,
)


OMEGA = BUILTINS["omega"]


def parse(src):
    """src read with every builtin available as an @reference."""
    return parse_term(src, BUILTINS)


def test_head_step_contracts_head_redex():
    out = head_reduce(parse("((\\x x) a) b"), 1)
    assert out.steps == 1 and out.result == parse("(a) b")


def test_head_step_under_binders():
    out = head_reduce(parse("\\y (\\x (x) x) y"), 1)
    assert out.steps == 1 and out.result == parse("\\y (y) y")


def test_head_step_none_on_head_normal_form():
    assert head_reduce(parse("\\x x"), 1).steps == 0
    assert head_reduce(parse("(x) (\\y y) z"), 1).steps == 0  # head variable x


def test_head_reduce_counts_exactly():
    # (\x (x) x) \x x  ->  (\x x) \x x  ->  \x x
    t = parse("(\\x (x) x) \\x x")
    out = head_reduce(t)
    assert out.steps == 2
    assert out.status == HEAD_NORMAL_FORM
    assert out.result == parse("\\x x")


def test_head_reduce_zero_steps_on_hnf():
    out = head_reduce(parse("\\x f x"))
    assert out.steps == 0 and out.completed


def test_head_reduce_stops_at_head_normal_form_only():
    # head normal form whose argument still has a redex
    t = parse("(f) (\\x x) y")
    out = head_reduce(t)
    assert out.steps == 0
    assert out.result == t
    assert normalize(out.result).steps == 1


def test_head_reduce_fuel_exhaustion():
    out = head_reduce(OMEGA, fuel=50)
    assert out.status == FUEL_EXHAUSTED
    assert out.steps == 50
    assert not out.completed
    assert out.result == OMEGA  # omega steps to itself


def test_head_reduce_exact_fuel_still_reports_hnf():
    t = parse("(\\x (x) x) \\x x")
    out = head_reduce(t, fuel=2)
    assert out.steps == 2 and out.status == HEAD_NORMAL_FORM


@pytest.mark.parametrize("fuel", [-1, 2.5, True])
def test_fuel_must_be_positive_int(fuel):
    with pytest.raises(ValueError):
        head_reduce(Var("x"), fuel=fuel)
    with pytest.raises(ValueError):
        normalize(Var("x"), fuel=fuel)


@pytest.mark.parametrize(
    "src, head_status, normal_status",
    [
        ("y", HEAD_NORMAL_FORM, NORMAL_FORM),
        ("\\x f (f) x", HEAD_NORMAL_FORM, NORMAL_FORM),
        ("(f) (\\x x) y", HEAD_NORMAL_FORM, FUEL_EXHAUSTED),
        ("(\\x x) y", FUEL_EXHAUSTED, FUEL_EXHAUSTED),
        ("@omega", FUEL_EXHAUSTED, FUEL_EXHAUSTED),
    ],
)
def test_fuel_zero_returns_the_term_itself(src, head_status, normal_status):
    t = parse(src)
    for run, status in ((head_reduce, head_status), (normalize, normal_status)):
        out = run(t, 0)
        assert out.result is t and out.steps == 0
        assert out.status == status


def test_normalize_full():
    t = App(BUILTINS["succ"], church(1))
    out = normalize(t)
    assert out.status == NORMAL_FORM
    assert out.result == church(2)
    assert numeral_of(out.result) == 2


def test_normalize_is_normal_order():
    # the unused diverging argument is discarded, never evaluated
    t = parse("((\\d \\e e) @omega) y")
    out = normalize(t, fuel=100)
    assert out.completed
    assert out.result == Var("y")


def test_normalize_normalizes_inside_arguments():
    t = parse("(f) (\\x x) y")
    out = normalize(t)
    assert out.result == parse("(f) y")
    assert out.steps == 1


def test_normalize_fuel_exhaustion_returns_partial():
    out = normalize(OMEGA, fuel=10)
    assert out.status == FUEL_EXHAUSTED
    assert out.steps == 10
    assert out.result == OMEGA


def test_church_application_behaves_as_iterator():
    t = parse("((@church:3) a) g")
    out = normalize(t)
    assert out.result == parse("(g) (g) (g) a")


def test_is_head_normal_and_is_normal():
    assert head_reduce(parse("(x) (\\y y) z"), 1).steps == 0
    assert normalize(parse("(x) (\\y y) z"), 1).steps == 1
    assert normalize(church(4), 1).steps == 0
    assert head_reduce(parse("(\\x x) y"), 1).steps == 1


def test_normalize_returns_unchanged_subterms_as_themselves():
    t = church(90)
    out = normalize(t)
    assert (out.steps, out.status) == (0, NORMAL_FORM)
    assert out.result is t
    # only the first argument holds a redex; the second comes back as itself
    kept = parse("\\z (z) \\w w")
    out = normalize(App(App(Var("g"), parse("(\\x x) a")), kept))
    assert out.result == parse("(g) a \\z (z) \\w w")
    assert out.result.arg is kept


def test_head_reduce_returns_a_head_normal_form_as_itself():
    t = parse("\\z (z) ((\\x x) a) \\y y")
    out = head_reduce(t)
    assert (out.steps, out.status) == (0, HEAD_NORMAL_FORM)
    assert out.result is t


def test_contracting_a_variable_into_its_own_name_keeps_the_body():
    # (\\x M) x is M; substituting would return the argument's x for M's
    body, arg = Var("x"), Var("x")
    out = head_reduce(App(Abs("x", body), arg), 1)
    assert (out.steps, out.status) == (1, HEAD_NORMAL_FORM)
    assert out.result is body


def test_beta_equiv_positive():
    two = App(BUILTINS["succ"], App(BUILTINS["succ"], church(0)))
    assert beta_equiv(two, church(2)) is True


def test_beta_equiv_negative():
    assert beta_equiv(church(1), church(2)) is False


def test_beta_equiv_unknown_on_divergence():
    assert beta_equiv(OMEGA, church(1), fuel=200) is None
    assert beta_equiv(OMEGA, OMEGA, fuel=200) is None


def test_beta_equiv_stops_when_the_first_side_diverges(monkeypatch):
    seen = []

    def counting(t, fuel):
        seen.append(t)
        return normalize(t, fuel)

    monkeypatch.setattr(reduction, "normalize", counting)
    assert beta_equiv(OMEGA, church(1), fuel=200) is None
    assert seen == [OMEGA]


def test_is_solvable():
    assert head_reduce(church(3)).completed
    assert head_reduce(BUILTINS["theta0"]).completed
    assert not head_reduce(OMEGA, fuel=300).completed


def _numeral_with_inner_redex(n):
    """\\x f (f)^n ((\\y y) x): one redex at depth n, reducing to church(n)."""
    body = App(Abs("y", Var("y")), Var("x"))
    for _ in range(n):
        body = App(Var("f"), body)
    return Abs("x", Abs("f", body))


def test_normalize_normal_form_at_depth_100000():
    # normalize recursed once per argument and broke at church(30000)
    t = church(100_000)
    start = time.perf_counter()
    out = deep(normalize, t)
    same = deep(out.result.__eq__, t)
    assert time.perf_counter() - start < 5.0
    assert (out.steps, out.status, same) == (0, NORMAL_FORM, True)
    assert out.result is t


@pytest.mark.parametrize("fuel", [1, DEFAULT_FUEL])
def test_normalize_redex_at_depth_100000(fuel):
    with collector_paused():
        t = _numeral_with_inner_redex(100_000)
    start = time.perf_counter()
    out = deep(normalize, t, fuel)
    same = deep(out.result.__eq__, church(100_000))
    assert time.perf_counter() - start < 5.0
    assert (out.steps, out.status, same) == (1, NORMAL_FORM, True)


def test_default_fuel_is_reasonable():
    assert DEFAULT_FUEL >= 10_000


# sha256 of the kernel's output on 1,306 seeded inputs: printed term, step
# count and status, one line per input, plus ("steps") 300 more inputs
# reduced one step at a time, as head_reduce(t, 1) and as normalize(t, 1),
# one line per call, plus ("own_name") inputs that contract a variable into a
# binder of its own name, recorded before the kernel skipped those
# substitutions, plus ("every_fuel") inputs reduced at every fuel from 1 to
# one past their step count, recorded before the kernel fused contractions
# that follow one another, plus ("two_names") inputs reduced the same way
# whose second contraction follows the first at once, recorded before the
# kernel made both substitutions in one walk, plus ("captured") inputs
# reduced the same way whose first value would prime the binder that the
# second contraction removes, recorded before the kernel made the rename
# and both substitutions in one walk. Any change to a step count or to a
# primed binder name changes a digest; a faster kernel must keep all ten.
KERNEL_DIGESTS = {
    "subst1": "df10aa5f0284656451a392f2485867067835cef6b6b162befead059ef3ad8ec7",
    "head_reduce": "bee4e764dac2e4b77128671081c15012dcb54d9de593142fbc2ddaf0fad97ff6",
    "normalize": "c8bf1f75ec27d30b42a3a2bdd56bfddfa3cf9577c66e8bc5ea9741530e2cdfe3",
    "normalize_closed": "0c503baddcf8406073222306ac5b052dc76da784dd76bafec91defd00da1fd08",
    "steps": "f95861be2409849a6ddafee74f42d4d805412b4c66a43e26add6655e3cf1bfe6",
    "storage_run": "de6cc3ed35668e7dffa81da68dc327052a2cfed8f1556f109f8283f1c5ae51ad",
    "own_name": "cfa9d522561578d4c368d76233db8c659c2f1f7a0a3661fcee04b0087051a057",
    "every_fuel": "b34d4a3e7e3d53f6b0d90bd4fdc18b7a9b935a859cdf3325be806eb42ea436fa",
    "two_names": "dc22f0b17135ca1dc05d4ef2d83773c64745053c51c2a8e215f556ced21e8d73",
    "captured": "6f1537733728c36edcc5ead7ae10718cf25470368f1d68bab5e12b7af5e96830",
}


def _row(out, fuel):
    # a chain of contractions that ran past its fuel fails here, whatever
    # the digest; one that never stops fails at the per-test limit (conftest.py)
    assert out.steps <= fuel, f"{out.steps} steps on fuel {fuel}"
    return f"{print_term(out.result)}|{out.steps}|{out.status}"


def _without(rng, names, scope=()):
    t = random_term(rng, depth=3, scope=scope)
    while names & t.fv:
        t = random_term(rng, depth=3, scope=scope)
    return t


def _at_every_fuel(cases):
    for t in cases:
        for run in (head_reduce, normalize):
            steps = run(t, 80).steps
            for fuel in range(1, steps + 2):
                yield _row(run(t, fuel), fuel)


def _kernel_lines(family):
    if family == "subst1":
        rng = random.Random(101)
        for _ in range(300):
            t = random_term(rng, depth=5)
            value = random_term(rng, depth=3)
            name = rng.choice(sorted(t.fv) or ["a"])
            # _subst1 is only ever asked to substitute a name free in t
            yield print_term(reduction._subst1(t, name, value) if name in t.fv else t)
    elif family == "head_reduce":
        rng = random.Random(202)
        for _ in range(400):
            yield _row(head_reduce(random_term(rng, depth=rng.randint(2, 7)), 150), 150)
    elif family == "normalize":
        rng = random.Random(303)
        for _ in range(400):
            yield _row(normalize(random_term(rng, depth=rng.randint(2, 6)), 200), 200)
    elif family == "normalize_closed":
        rng = random.Random(404)
        for _ in range(200):
            yield _row(normalize(random_closed_term(rng, depth=6), 300), 300)
    elif family == "steps":
        # application-rooted inputs, so most take steps; the third kind
        # passes free x and y into binders named x and y, so binders get primed
        rng = random.Random(505)
        for i in range(300):
            if i % 3 == 0:
                t = App(random_closed_term(rng, depth=5), random_closed_term(rng, depth=4))
            elif i % 3 == 1:
                t = App(random_term(rng, depth=5), random_term(rng, depth=4))
            else:
                t = App(random_term(rng, depth=5), random_term(rng, depth=4, scope=["x", "y"]))
            for run in (head_reduce, normalize):
                cur = t
                for _ in range(60):
                    out = run(cur, 1)
                    yield _row(out, 1)
                    if out.steps == 0:
                        break
                    cur = out.result
    elif family == "own_name":
        # each input contracts a variable into a binder of the same name, as
        # normalizing \\x f ((n) x) f does; the small ones also one step at a time
        cases = []
        for k in (0, 1, 2, 3, 5, 8, 13, 21, 40):
            for src in (
                f"\\x f ((@church:{k}) x) f",
                f"((@succ) @church:{k})",
                f"(@T @church:{k}) \\y y",
                f"(@Tp ((\\x x) @church:{k})) \\y y",
            ):
                cases.append((parse(src), k <= 3))
        for a, b in ((0, 0), (0, 3), (1, 1), (2, 1), (3, 4), (4, 7), (9, 5)):
            src = f"((\\m n x f ((m) x) \\y ((n) y) f) @church:{a} @church:{b})"
            cases.append((parse(src), a + b <= 3))
        for t, _ in cases:
            yield _row(head_reduce(t), DEFAULT_FUEL)
            yield _row(normalize(t), DEFAULT_FUEL)
        for t in [t for t, small in cases if small]:
            for run in (head_reduce, normalize):
                cur = t
                for _ in range(60):
                    out = run(cur, 1)
                    yield _row(out, 1)
                    if out.steps == 0:
                        break
                    cur = out.result
    elif family == "every_fuel":
        # every partial reduct, so fuel runs out at each point of a chain of
        # contractions; the third kind of random input and the hand-made ones
        # pass free x and y into binders named x and y, so binders get primed
        rng = random.Random(606)
        cases = []
        for i in range(300):
            if i % 3 == 0:
                t = App(random_closed_term(rng, depth=5), random_closed_term(rng, depth=4))
            elif i % 3 == 1:
                t = App(random_term(rng, depth=5), random_term(rng, depth=4))
            else:
                t = App(random_term(rng, depth=5), random_term(rng, depth=4, scope=["x", "y"]))
            cases.append(t)
        for src in (
            "(\\a x y (a) x y) y x",
            "(\\a x y (a) x y) y x w",
            "(\\a b x y (a) (b) x y) x y u w",
            "(\\a x (\\y (a) x y) x) y",
            "\\z ((\\a x y z (y) (x) a) x) z y",
        ):
            cases.append(parse(src))
        cases.append(parse("((\\m n x f ((m) x) \\y ((n) y) f) @church:2 @church:3)"))
        for name in ("T", "Tp"):
            for k in range(4):
                cases.append(parse(f"(@{name} @church:{k}) f"))
        yield from _at_every_fuel(cases)
    elif family == "two_names":
        # (\x y M) a b with x and y free in M and y not free in a, so the
        # contraction of y follows that of x at once, as applying a numeral
        # to two arguments does. a, b or both are open in names that M may
        # bind, so either value can prime a binder; b is sometimes y itself,
        # and (\x (\y M) N) a b takes its second value from the body
        rng = random.Random(707)
        cases = []
        for i in range(240):
            body = random_term(rng, depth=5, scope=["x", "y"])
            while not {"x", "y"} <= body.fv:
                body = random_term(rng, depth=5, scope=["x", "y"])
            a = _without(rng, {"y"}, ["z", "u", "w"] if i % 3 != 1 else [])
            b = random_term(rng, depth=3, scope=["z", "u", "w", "x"] if i % 3 != 0 else [])
            if i % 8 == 7:
                b = Var("y")
            if i % 5 == 4:
                t = App(Abs("x", App(Abs("y", body), b)), a)
            else:
                t = App(App(Abs("x", Abs("y", body)), a), b)
            cases.append(App(t, Var("z")) if i % 4 == 3 else t)
        for src in (
            "(\\x y \\z (x) (y) z) a z",
            "(\\x y \\z (x) (y) z) z b",
            "(\\x y \\z (x) (y) z) z z",
            "(\\x y \\z \\u (x) (y) (z) u) u z w",
            "((@succ) m) x f",
            "((@succ) @church:2) x f",
            "((@succ) (@succ) @church:1) a g",
            "(@church:3) a g",
            "(@church:0) a g",
            "(\\x f ((@church:2) x) f) a g",
        ):
            cases.append(parse(src))
        yield from _at_every_fuel(cases)
    elif family == "captured":
        # (\x y M) a b with y free in a, so x := a primes y to y' before the
        # next step contracts y' := b, as T handing (T1 θ) f to a numeral
        # that binds f does. M may bind y' and names free in a or b; y' may
        # be free in M or in a, so the prime takes more than one mark; b is
        # sometimes y' or y itself, and y is sometimes not free in M.
        # (\x (\y M) N) a takes its second value from the body
        rng = random.Random(909)
        binders = ["x", "y", "y'", "z", "u", "w"]
        cases = []
        for i in range(240):
            scope = ["x", "y", "y'"] if i % 6 == 5 else ["x", "y"]
            want = {"x"} if i % 10 == 9 else {"x", "y"}
            body = random_term(rng, depth=5, scope=scope, binders=binders)
            while not want <= body.fv or ("y" in body.fv) != ("y" in want):
                body = random_term(rng, depth=5, scope=scope, binders=binders)
            a = random_term(rng, depth=2, scope=["z", "u", "w", "y'"] if i % 3 != 1 else [])
            a = App(a, Var("y")) if i % 2 else App(Var("y"), a)
            b = random_term(rng, depth=3, scope=["z", "u", "w", "x"] if i % 3 != 0 else [])
            if i % 8 == 7:
                b = Var("y'")
            elif i % 8 == 3:
                b = Var("y")
            if i % 5 == 4:
                t = App(Abs("x", App(Abs("y", body), b)), a)
            else:
                t = App(App(Abs("x", Abs("y", body)), a), b)
            cases.append(App(t, Var("z")) if i % 4 == 3 else t)
        for src in (
            "(\\x y \\y' (x) (y) y') y b",
            "(\\x y \\y' (x) (y) y') y y'",
            "(\\x y (x) \\y' (y) y') (y) y' z",
            "(\\x y (x) \\z (y) z) (y) z b",
            "(\\x y (x) \\z (y) z) y z",
            "(\\x y (x) \\x (y) x) y b",
            "(\\x y (x) (\\u u) y) y y",
            "(\\x y (x) x) y b",
            "(\\x f ((@church:2) x) f) f g",
            "(@church:3) f g",
        ):
            cases.append(parse(src))
        for name in ("T", "Tp"):
            for k in range(4):
                cases.append(parse(f"(@{name} @church:{k}) f"))
        yield from _at_every_fuel(cases)
    else:
        T = BUILTINS["T"]
        for n in range(6):
            yield _row(head_reduce(App(App(T, church(n)), Var("f")), 100_000), 100_000)


# A family takes under a second; a kernel that never stops fails at the
# suite's per-test limit (conftest.py) rather than hanging the suite
@pytest.mark.parametrize("family", sorted(KERNEL_DIGESTS))
def test_kernel_output_fingerprint(family):
    text = "\n".join(_kernel_lines(family))
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_DIGESTS[family]


def test_head_reduce_contracts_into_a_numeral_body_100000_deep():
    t = App(church(100_000), Var("y"))
    out = deep(head_reduce, t)
    assert (out.steps, out.status) == (1, HEAD_NORMAL_FORM)
    assert deep(Abs("y", out.result).__eq__, church(100_000))


def _capturing_chain(levels, binder, last=Var("a")):
    """\\b (b) \\b (b) .. last, levels binders deep, each named binder."""
    t = last
    for _ in range(levels):
        t = Abs(binder, App(Var(binder), t))
    return t


def test_head_reduce_renames_binders_in_a_chain_100000_deep():
    # every binder captures y, so each is primed and its body renamed first
    with collector_paused():
        t = App(Abs("a", _capturing_chain(100_000, "y")), Var("y"))
        want = _capturing_chain(100_000, "y'")
    out = deep(head_reduce, t)
    assert out.steps == 1
    assert deep(print_term, out.result) == deep(print_term, want).replace("a", "y")


@pytest.mark.parametrize("run", [head_reduce, normalize])
def test_numeral_applied_to_two_arguments_100000_deep(run):
    # both substitutions go down the numeral's body in one walk
    t = App(App(church(100_000), Var("a")), Var("g"))
    with collector_paused():
        want = Var("a")
        for _ in range(100_000):
            want = App(Var("g"), want)
    out = deep(run, t)
    assert out.steps == 2
    assert deep(out.result.__eq__, want)


def test_second_value_primes_every_binder_of_a_chain_100000_deep():
    # every binder z captures the second value z, so both walks run in turn
    with collector_paused():
        chain = _capturing_chain(100_000, "z", App(Var("x"), Var("y")))
        t = App(App(Abs("x", Abs("y", chain)), Var("a")), Var("z"))
        want = _capturing_chain(100_000, "z'", App(Var("a"), Var("z")))
    out = deep(head_reduce, t)
    assert out.steps == 2
    assert deep(print_term, out.result) == deep(print_term, want)


def test_two_names_in_one_walk_as_in_two():
    # the first value, the second or both are open in a name that t may
    # bind, so each of them primes binders; a part of t that holds neither
    # name comes back as itself
    rng = random.Random(808)
    for i in range(3000):
        t = random_term(rng, depth=6, scope=["x", "y"])
        while not {"x", "y"} <= t.fv:
            t = random_term(rng, depth=6, scope=["x", "y"])
        a = _without(rng, {"y"}, ["x"])
        if i % 4 in (0, 2):
            a = App(a, Var(rng.choice(["z", "u", "w"])))
        b = random_term(rng, depth=3, scope=["x", "y"])
        if i % 4 in (1, 2):
            b = App(Var(rng.choice(["z", "u", "w"])), b)
        kept = _without(rng, {"x", "y"}, ["z", "u", "w"])
        t = App(t, kept) if i % 2 else App(kept, t)
        once = reduction._subst1(t, "x", a, "y", b)
        twice = reduction._subst1(reduction._subst1(t, "x", a), "y", b)
        assert print_term(once) == print_term(twice)
        assert (once.arg if i % 2 else once.fn) is kept


def test_captured_contraction_in_one_walk_as_in_three():
    # the first value is open in y, so a contraction of \y t primes y to y'
    # before y' := b removes it; t may bind y', x and names free in either
    # value, and y' may be free in the first value, so the prime takes more
    # than one mark; a part of t that holds neither name comes back as itself
    rng = random.Random(909)
    binders = ["x", "y", "y'", "z", "u", "w"]
    for i in range(3000):
        t = random_term(rng, depth=6, scope=["x", "y"], binders=binders)
        while not {"x", "y"} <= t.fv:
            t = random_term(rng, depth=6, scope=["x", "y"], binders=binders)
        a = random_term(rng, depth=3, scope=["x", "y"])
        a = App(a, Var(rng.choice(["y", "z", "y'"]))) if i % 3 else Var("y")
        if "y" not in a.fv:
            a = App(Var("y"), a)
        b = random_term(rng, depth=3, scope=["x", "y", "y'"])
        if i % 4 in (1, 2):
            b = App(Var(rng.choice(["z", "u", "w"])), b)
        elif i % 8 == 3:
            b = Var("y'")
        kept = _without(rng, {"x", "y"}, ["z", "u", "w"])
        t = App(t, kept) if i % 2 else App(kept, t)
        primed = fresh_name("y", a.fv | t.fv)
        once = reduction._subst1(t, "x", a, "y", b, primed)
        thrice = reduction._subst1(
            reduction._subst1(reduction._subst1(t, "y", Var(primed)), "x", a), primed, b
        )
        assert print_term(once) == print_term(thrice)
        assert (once.arg if i % 2 else once.fn) is kept


@pytest.mark.parametrize("n", [10, 90])
def test_storage_run_renames_no_numeral_binder(n, monkeypatch):
    # T hands (T1 θ) f to a numeral that binds f itself; contracting the
    # primed binder in the walk that primes it keeps the work linear in n
    # with a small factor, where renaming first built 7n + 2 applications
    built = [0]
    init = App.__init__

    def counted(self, fn, arg):
        built[0] += 1
        init(self, fn, arg)

    t = App(App(BUILTINS["T"], church(n)), Var("f"))
    monkeypatch.setattr(App, "__init__", counted)
    out = head_reduce(t)
    monkeypatch.undo()
    assert out.status == HEAD_NORMAL_FORM and out.result.fn == Var("f")
    assert built[0] <= 6 * n + 10


@pytest.mark.parametrize("run", [head_reduce, normalize])
def test_contraction_past_the_recursion_limit(run):
    # _subst1 takes two frames a level, far more than the default limit allows
    t = App(Abs("a", _capturing_chain(12_000, "y")), Var("y"))
    out = deep(run, t)
    want = _capturing_chain(12_000, "y'")
    assert out.steps == 1
    assert deep(print_term, out.result) == deep(print_term, want).replace("a", "y")


@pytest.mark.parametrize("run", [head_reduce, normalize])
@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_collector_paused_in_the_kernel_and_restored(run, collecting, monkeypatch):
    seen = []  # whether the collector ran, and the recursion limit, while the spine loop worked
    spine = reduction._spine

    def watched(t, fuel):
        seen.append((gc.isenabled(), sys.getrecursionlimit()))
        return spine(t, fuel)

    monkeypatch.setattr(reduction, "_spine", watched)
    limit = sys.getrecursionlimit()
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        out = run(parse("(@T1 @church:2) f"))
        after = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    assert out.steps > 0
    assert seen and set(seen) == {(False, _DEEP)}
    assert after is collecting
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("run", [head_reduce, normalize])
def test_collector_restarts_after_a_kernel_error(run, monkeypatch):
    seen = []

    def broken(t, fuel):
        seen.append(sys.getrecursionlimit())
        raise RuntimeError("spine broke")

    monkeypatch.setattr(reduction, "_spine", broken)
    limit = sys.getrecursionlimit()
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="spine broke"):
        run(OMEGA)
    assert gc.isenabled()
    assert seen == [_DEEP]
    assert sys.getrecursionlimit() == limit


_HASH_A_DAG_RESULT = """
import time
from storop.reduction import head_reduce
from storop.terms import parse_term

k = 24
e = f"(g) x{k} x{k}"
for i in range(k, 0, -1):
    p = f"x{i-1}" if i > 1 else "z"
    e = f"(\\\\x{i} {e}) ((g) {p} {p})"
out = head_reduce(parse_term(e))
start = time.perf_counter()
hash(out.result)
print(out.steps, out.completed, time.perf_counter() - start)
"""


def test_hash_of_a_result_whose_tree_is_exponential_in_its_nodes():
    # the head normal form is the normal form: g applied to values that each
    # occur twice, 2**27 - 3 tree nodes over 77 distinct ones; hashing
    # walked the tree and ran out of 200 MB (normalize reaches the same term
    # but enters each occurrence of an argument, so it walks the tree too)
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(storop.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _HASH_A_DAG_RESULT],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    steps, completed, elapsed = run.stdout.split()
    assert (steps, completed) == ("24", "True")
    assert float(elapsed) < 1.0
