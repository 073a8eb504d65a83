import hashlib
import random

import pytest

from genterms import random_closed_term, random_term
from storop.builtins import BUILTINS, parse
from storop.reduction import (
    DEFAULT_FUEL,
    FUEL_EXHAUSTED,
    HEAD_NORMAL_FORM,
    NORMAL_FORM,
    _subst1,
    beta_equiv,
    head_reduce,
    head_step,
    is_head_normal,
    is_normal,
    is_solvable,
    normalize,
)
from storop.terms import App, Var, church, numeral_of, print_term


OMEGA = BUILTINS["omega"]


def test_head_step_contracts_head_redex():
    t = parse("((\\x x) a) b")
    assert head_step(t) == parse("(a) b")


def test_head_step_under_binders():
    t = parse("\\y (\\x (x) x) y")
    assert head_step(t) == parse("\\y (y) y")


def test_head_step_none_on_head_normal_form():
    assert head_step(parse("\\x x")) is None
    assert head_step(parse("(x) (\\y y) z")) is None  # head variable x


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
    assert not is_normal(out.result)


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


@pytest.mark.parametrize("fuel", [0, -1, 2.5, True])
def test_fuel_must_be_positive_int(fuel):
    with pytest.raises(ValueError):
        head_reduce(Var("x"), fuel=fuel)
    with pytest.raises(ValueError):
        normalize(Var("x"), fuel=fuel)


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
    assert is_head_normal(parse("(x) (\\y y) z"))
    assert not is_normal(parse("(x) (\\y y) z"))
    assert is_normal(church(4))
    assert not is_head_normal(parse("(\\x x) y"))


def test_beta_equiv_positive():
    two = App(BUILTINS["succ"], App(BUILTINS["succ"], church(0)))
    assert beta_equiv(two, church(2)) is True


def test_beta_equiv_negative():
    assert beta_equiv(church(1), church(2)) is False


def test_beta_equiv_unknown_on_divergence():
    assert beta_equiv(OMEGA, church(1), fuel=200) is None
    assert beta_equiv(OMEGA, OMEGA, fuel=200) is None


def test_is_solvable():
    assert is_solvable(church(3)) is True
    assert is_solvable(BUILTINS["theta0"]) is True
    assert is_solvable(OMEGA, fuel=300) is None


def test_default_fuel_is_reasonable():
    assert DEFAULT_FUEL >= 10_000


# sha256 of the kernel's output on 1,306 seeded inputs: printed term, step
# count and status, one line per input. Any change to a step count or to a
# primed binder name changes a digest; a faster kernel must keep all five.
KERNEL_DIGESTS = {
    "subst1": "df10aa5f0284656451a392f2485867067835cef6b6b162befead059ef3ad8ec7",
    "head_reduce": "bee4e764dac2e4b77128671081c15012dcb54d9de593142fbc2ddaf0fad97ff6",
    "normalize": "c8bf1f75ec27d30b42a3a2bdd56bfddfa3cf9577c66e8bc5ea9741530e2cdfe3",
    "normalize_closed": "0c503baddcf8406073222306ac5b052dc76da784dd76bafec91defd00da1fd08",
    "storage_run": "de6cc3ed35668e7dffa81da68dc327052a2cfed8f1556f109f8283f1c5ae51ad",
}


def _row(out):
    return f"{print_term(out.result)}|{out.steps}|{out.status}"


def _kernel_lines(family):
    if family == "subst1":
        rng = random.Random(101)
        for _ in range(300):
            t = random_term(rng, depth=5)
            value = random_term(rng, depth=3)
            name = rng.choice(sorted(t.fv) or ["a"])
            yield print_term(_subst1(t, name, value))
    elif family == "head_reduce":
        rng = random.Random(202)
        for _ in range(400):
            yield _row(head_reduce(random_term(rng, depth=rng.randint(2, 7)), 150))
    elif family == "normalize":
        rng = random.Random(303)
        for _ in range(400):
            yield _row(normalize(random_term(rng, depth=rng.randint(2, 6)), 200))
    elif family == "normalize_closed":
        rng = random.Random(404)
        for _ in range(200):
            yield _row(normalize(random_closed_term(rng, depth=6), 300))
    else:
        T = BUILTINS["T"]
        for n in range(6):
            yield _row(head_reduce(App(App(T, church(n)), Var("f")), 100_000))


@pytest.mark.parametrize("family", sorted(KERNEL_DIGESTS))
def test_kernel_output_fingerprint(family):
    text = "\n".join(_kernel_lines(family))
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_DIGESTS[family]
