from importlib import resources

import pytest

from builders import (
    PREBUILT,
    build_prebuilt,
    eq_demo_derivation,
    numeral_derivation,
    succ_derivation,
    t1_star_derivation,
)
from storop.builtins import BUILTINS
from storop.formulas import parse_formula, print_formula
from storop.prebuilt import load_prebuilt, prebuilt_check_args, prebuilt_names
from storop.terms import church
from storop.typecheck import Context, check_derivation, write_derivation

NAMES = prebuilt_names()

EXPECTED_TYPES = {
    "zero": "!X {X(0), !y (X(y) -> X(s(y))) -> X(0)}",
    "one": "!X {X(0), !y (X(y) -> X(s(y))) -> X(s(0))}",
    "two": "!X {X(0), !y (X(y) -> X(s(y))) -> X(s(s(0)))}",
    "three": "!X {X(0), !y (X(y) -> X(s(y))) -> X(s(s(s(0))))}",
    "four": "!X {X(0), !y (X(y) -> X(s(y))) -> X(s(s(s(s(0)))))}",
    "five": "!X {X(0), !y (X(y) -> X(s(y))) -> X(s(s(s(s(s(0))))))}",
    "succ": "!x (N[x] -> N[s(x)])",
    "zero_prop": "N",
    "succ_prop": "N -> N",
    "theta0_star": "Nstar[0]",
    "t1_star": "!x (Nstar[x] -> ~~N[x])",
    "t1_bot": "!x (Nbot[x] -> ~~N[x])",
    "t2_star": "Nstar -> ~~N",
    "t2_fperp": "Nbot -> ~~N",
    "t_bot": "!x (Nbot[x] -> ~~N[x])",
    "tp_bot": "!x (Nbot[x] -> ~~N[x])",
    "eq_demo": "N[y]",
}

EXPECTED_TERMS = {
    "zero": BUILTINS["zero"],
    "one": church(1),
    "two": church(2),
    "three": church(3),
    "four": church(4),
    "five": church(5),
    "succ": BUILTINS["succ"],
    "zero_prop": BUILTINS["zero"],
    "succ_prop": BUILTINS["succ"],
    "theta0_star": BUILTINS["theta0"],
    "t1_star": BUILTINS["T1"],
    "t1_bot": BUILTINS["T1"],
    "t2_star": BUILTINS["T2"],
    "t2_fperp": BUILTINS["T2"],
    "t_bot": BUILTINS["T"],
    "tp_bot": BUILTINS["Tp"],
}


def test_registry_is_covered():
    assert set(NAMES) == set(EXPECTED_TYPES)
    assert set(EXPECTED_TERMS) <= set(NAMES)


def test_names_are_the_bundled_files_and_the_builders():
    bundle = resources.files("storop").joinpath("data/derivations")
    files = [p.name for p in bundle.iterdir()]
    stems = sorted(name.removesuffix(".deriv") for name in files if name.endswith(".deriv"))
    assert NAMES == tuple(stems)
    assert sorted(PREBUILT) == stems


@pytest.mark.parametrize("name", NAMES)
def test_prebuilt_checks(name):
    d = build_prebuilt(name)
    rep = check_derivation(d, **prebuilt_check_args(name))
    assert rep.ok, rep.failures


@pytest.mark.parametrize("name", NAMES)
def test_prebuilt_concludes_the_advertised_type(name):
    d = build_prebuilt(name)
    assert d.type == parse_formula(EXPECTED_TYPES[name]), print_formula(d.type)


@pytest.mark.parametrize("name", sorted(EXPECTED_TERMS))
def test_prebuilt_subject_is_the_combinator(name):
    d = build_prebuilt(name)
    assert d.term == EXPECTED_TERMS[name]


@pytest.mark.parametrize("name", NAMES)
def test_golden_files_match_the_builders(name):
    text = resources.files("storop").joinpath(f"data/derivations/{name}.deriv").read_text()
    assert write_derivation(build_prebuilt(name)) == text


@pytest.mark.parametrize("name", NAMES)
def test_golden_files_load_and_check(name):
    d = load_prebuilt(name)
    assert d == build_prebuilt(name)
    rep = check_derivation(d, **prebuilt_check_args(name))
    assert rep.ok, rep.failures


def test_unknown_prebuilt_name():
    with pytest.raises(KeyError, match="no bundled derivation named 't9_star'"):
        build_prebuilt("t9_star")
    with pytest.raises(KeyError, match="no bundled derivation named 't9_star'"):
        load_prebuilt("t9_star")


def test_eq_demo_needs_its_equations():
    d = eq_demo_derivation()
    rep = check_derivation(d)
    assert not rep.ok
    assert "no equations are in scope" in rep.failures[0][1]


def test_propositional_derivations_pass_the_fperp_check():
    for name in ("zero_prop", "succ_prop", "t2_star", "t2_fperp"):
        assert check_derivation(build_prebuilt(name), fragment="fperp").ok


def test_first_order_derivations_fail_the_fperp_check():
    assert not check_derivation(build_prebuilt("succ"), fragment="fperp").ok
    assert not check_derivation(build_prebuilt("t1_star"), fragment="fperp").ok
    assert not check_derivation(build_prebuilt("theta0_star"), fragment="fperp").ok


def test_builders_freshen_against_ambient_contexts():
    busy = (
        Context()
        .extended("x", parse_formula("N[x]"))
        .extended("f", parse_formula("~N[x]"))
        .extended("n", parse_formula("X(x)"))
    )
    for build in (
        lambda: numeral_derivation(2, busy),
        lambda: succ_derivation(busy),
        lambda: t1_star_derivation(busy),
    ):
        d = build()
        rep = check_derivation(d)
        assert rep.ok, rep.failures
        # the ambient entries survive untouched at the root
        assert d.ctx == busy


def test_ambient_freshening_renames_the_generalized_variable():
    busy = Context().extended("v", parse_formula("N[x]"))
    d = succ_derivation(busy)
    assert d.type.var != "x"
    assert d.type == parse_formula("!x (N[x] -> N[s(x)])")


def test_numeral_derivation_rejects_negative_indices():
    with pytest.raises(ValueError):
        numeral_derivation(-1)


def test_node_counts_are_stable():
    # coarse shape guard: the structural builders should not silently grow
    counts = {name: build_prebuilt(name).node_count() for name in NAMES}
    assert counts["zero"] == 4
    assert counts["eq_demo"] == 2
    assert 10 <= counts["succ"] <= 20
    assert 30 <= counts["t1_star"] <= 50
    assert counts["t1_bot"] == counts["t1_star"] + 2
    assert counts["tp_bot"] > counts["t_bot"] > counts["t1_bot"]
