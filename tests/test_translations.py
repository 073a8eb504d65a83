import hashlib
import random

import pytest

from storop.formulas import (
    Bot,
    FormulaError,
    FoVar,
    ForallBot,
    Formula,
    PredAbstraction,
    bot_transform,
    forget_first_order,
    fv_bot,
    fv_pred,
    godel_star,
    instantiate,
    is_bot_type,
    n_bot_type,
    n_star_type,
    n_type,
    parse_formula,
    polarity,
    print_formula,
    subst_pred,
)

from genformulas import random_formula

F = parse_formula


def test_star_on_numeral_type_display():
    assert (
        print_formula(godel_star(n_type(FoVar("x"))))
        == "!X {~X(0), !y (~X(y) -> ~X(s(y))) -> ~X(x)}"
    )


def test_bot_transform_on_numeral_type_display():
    assert (
        print_formula(bot_transform(n_type(FoVar("x"))))
        == "!X_| {X_|(0), !y (X_|(y) -> X_|(s(y))) -> X_|(x)}"
    )


def test_forget_on_numeral_type_display():
    assert print_formula(forget_first_order(n_type(FoVar("x")))) == "!X {X, (X -> X) -> X}"


def test_star_matches_macro():
    assert godel_star(n_type(FoVar("x"))) == F("N*[x]")
    assert godel_star(n_type()) == F("Nstar")


def test_bot_matches_macro():
    assert bot_transform(n_type(FoVar("x"))) == F("N_|[x]")
    assert bot_transform(n_type()) == F("Nbot")


def test_star_negates_every_atom_kind():
    assert godel_star(F("$P(x)")) == F("~$P(x)")
    assert godel_star(F("X(0) -> bot")) == F("~X(0) -> bot")
    assert godel_star(Bot()) == Bot()


def test_star_requires_unbottomed_input():
    with pytest.raises(FormulaError):
        godel_star(F("X_|(x)"))
    with pytest.raises(FormulaError):
        godel_star(F("!X_| X_|"))


def test_bot_transform_requires_unbottomed_input():
    with pytest.raises(FormulaError):
        bot_transform(F("X_| -> X"))


def test_bot_transform_moves_whole_namespace():
    a = F("!X (X(x) -> Y)")
    out = bot_transform(a)
    assert out == F("!X_| (X_|(x) -> Y_|)")
    assert fv_pred(out) == frozenset()
    assert fv_bot(out) == {"Y"}


def test_forget_drops_fo_layer():
    assert forget_first_order(F("!x X(x, s(y))")) == F("X")
    assert forget_first_order(F("$P(x) -> X_|(y)")) == F("$P -> X_|")
    assert forget_first_order(F("!x !y $Le(x, y)")) == F("$Le")


def test_forget_is_idempotent_random():
    rng = random.Random(616)
    for _ in range(100):
        a = random_formula(rng, depth=4, allow_bot_vars=True)
        d = forget_first_order(a)
        assert forget_first_order(d) == d


def test_translations_commute_with_forget():
    # (A*)<> == (A<>)* and (A_|)<> == (A<>)_| on formulas without bot vars
    rng = random.Random(717)
    checked = 0
    for _ in range(100):
        a = random_formula(rng, depth=4, allow_bot_vars=False)
        left_star = forget_first_order(godel_star(a))
        right_star = godel_star(forget_first_order(a))
        assert left_star == right_star, print_formula(a)
        left_bot = forget_first_order(bot_transform(a))
        right_bot = bot_transform(forget_first_order(a))
        assert left_bot == right_bot, print_formula(a)
        checked += 1
    assert checked == 100


def test_star_and_bot_do_not_commute_with_each_other():
    # star is undefined on bottomed formulas, so the only composition order
    # that typechecks is bot after star; spot-check it differs from star
    a = n_type(FoVar("x"))
    assert bot_transform(a) != godel_star(a)


def test_translations_preserve_propositional_shape():
    n = n_type()
    assert forget_first_order(n) == n  # no first-order layer to erase
    assert forget_first_order(n_star_type()) == n_star_type()
    assert forget_first_order(n_bot_type()) == n_bot_type()


def test_forget_numeral_types_align():
    # the propositional variants are exactly the forgetful images
    assert forget_first_order(n_type(FoVar("x"))) == n_type()
    assert forget_first_order(n_star_type(FoVar("x"))) == n_star_type()
    assert forget_first_order(n_bot_type(FoVar("x"))) == n_bot_type()


# sha256 over the outputs below for 600 seeded formulas, one line each;
# first recorded before the formula classes shared an atom and a quantifier
# base, and recorded again, with nothing else changed, when the arity query
# whose outputs it also covered was deleted.
TRANSLATION_DIGEST = "6a4044edf6836be8aa66c5b67066b8276194719567f2a01f4ff4baa4714720d0"
_WITNESSES = (
    PredAbstraction(("x",), F("!y (X(x, y) -> U_|(z))")),
    PredAbstraction((), F("!Y (Y -> V_| -> Z(y))")),
)


def _outcome(fn, *args) -> str:
    """fn(*args) as text: printed when it is a formula, the error text when it raises."""
    try:
        out = fn(*args)
    except FormulaError as exc:
        return f"error: {exc}"
    return print_formula(out) if isinstance(out, Formula) else str(out)


def _subst_bot(a, name, abst):
    """abst for the free bottomed variable name of a: the instance of !name_| a."""
    return instantiate(ForallBot(name, a), abst)


def test_translation_output_fingerprint():
    rng = random.Random(8080)
    outputs = []
    for _ in range(600):
        a = random_formula(rng, depth=5, allow_bot_vars=True)
        outputs += [_outcome(op, a) for op in (godel_star, bot_transform, forget_first_order)]
        outputs.append(_outcome(is_bot_type, a))
        for kind, free, subst in (("pred", fv_pred, subst_pred), ("bot", fv_bot, _subst_bot)):
            for name in sorted(free(a)):
                outputs.append(_outcome(polarity, a, name, kind))
                outputs += [_outcome(subst, a, name, w) for w in _WITNESSES]
    assert sum("'" in out for out in outputs) > 150  # primed binders
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == TRANSLATION_DIGEST
