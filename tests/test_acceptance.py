"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single `criterion N: PASS/FAIL` verdict line (visible with
`pytest -s`); the test outcome carries the same information for plain runs.
Criterion 6 has a second half that is expected to fail: no first-order star
typing of the recursor-shaped operator exists to lift, so that test is a
strict xfail and would flag loudly if such a derivation ever appeared.
"""

import functools
import random
import time
from pathlib import Path

import pytest

import test_mutations as mutations
from builders import t1_star_derivation, t2_star_derivation
from genformulas import random_formula
from genterms import random_closed_term, random_term
from storop.builtins import BUILTINS
from storop.formulas import (
    FoVar,
    bot_transform,
    forget_first_order,
    godel_star,
    n_type,
    parse_formula,
    print_formula,
)
from storop.prebuilt import load_prebuilt, prebuilt_check_args, prebuilt_names
from storop.reduction import (
    beta_equiv,
    head_reduce,
    normalize,
)
from storop.storage import (
    BAD_HEAD_SHAPE,
    FUEL_EXHAUSTED,
    TAU_WRONG_VALUE,
    behavioral_check,
    certify,
    theta_corpus,
)
from storop.terms import (
    App,
    church,
    numeral_of,
    parse_term,
    print_term,
    substitute,
    term_size,
)
from storop.typecheck import check_derivation, lift_star_to_bot

STORAGE_OPERATORS = ("T1", "T2", "T", "Tp")


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL  {title}")
                raise
            print(f"criterion {num}: PASS  {title}")

        return wrapper

    return deco


def succ_tower(n):
    t = church(0)
    for _ in range(n):
        t = App(BUILTINS["succ"], t)
    return t


def apply_args(t, args):
    for a in args:
        t = App(t, a)
    return t


# ---------------------------------------------------------------------------


@criterion(1, "the four operators certify for n = 0..10, in under five seconds")
def test_criterion_01_storage_certification_positive():
    started = time.monotonic()
    for name in STORAGE_OPERATORS:
        certs = [certify(BUILTINS[name], n) for n in range(0, 11)]
        assert all(c.ok for c in certs), name
        if name in ("T1", "T2"):
            # the iterator-style operators rebuild the numeral as a successor tower
            for n, cert in enumerate(certs):
                assert parse_term(cert.tau) == succ_tower(n), (name, n, cert.tau)
    assert time.monotonic() - started < 5.0


@criterion(2, "failing operators report the exact failure reason")
def test_criterion_02_storage_certification_negative():
    const = parse_term("\\v f (f) @church:0", BUILTINS)
    cert = certify(const, 1)
    assert cert.status == TAU_WRONG_VALUE and cert.tau_value == 0

    swapped = parse_term("\\v f (v) f")
    assert certify(swapped, 0).status == BAD_HEAD_SHAPE

    diverging = parse_term("\\v f @omega", BUILTINS)
    assert certify(diverging, 0, fuel=2000).status == FUEL_EXHAUSTED


@criterion(3, "concrete runs agree with the certificates on a varied corpus")
def test_criterion_03_behavioral_cross_check():
    for name in STORAGE_OPERATORS:
        op = BUILTINS[name]
        for n in range(0, 11):
            cert = certify(op, n)
            assert cert.ok
            expected_tau = parse_term(cert.tau)
            for theta in theta_corpus(n, limit=4):
                res = behavioral_check(op, theta, n)
                assert res.ok, (name, n, res)
                tau = print_term(res.tau_term)
                assert parse_term(tau) == expected_tau, (name, n, tau)


@criterion(4, "head reduction lengths: substitution and application identities")
def test_criterion_04_head_step_count_identities():
    # h(sigma u, sigma v) = h(u, v): substituting for free variables neither
    # shortens nor lengthens the path between a term and its k-step reduct
    rng = random.Random(20260816)
    done = attempts = 0
    while done < 200:
        attempts += 1
        assert attempts < 20000, "generator stopped producing usable cases"
        u = random_term(rng, depth=5)
        path = [u]
        while len(path) <= 14:
            out = head_reduce(path[-1], 1)
            if out.steps == 0:
                break
            path.append(out.result)
        if len(path) < 2 or not u.fv:
            continue
        k = rng.randint(1, len(path) - 1)
        names = rng.sample(sorted(u.fv), k=min(len(u.fv), rng.randint(1, 2)))
        sigma = {nm: random_closed_term(rng, depth=3) for nm in names}
        cur = substitute(u, sigma)
        for _ in range(k):
            out = head_reduce(cur, 1)
            assert out.steps == 1, print_term(u)
            cur = out.result
        assert cur == substitute(path[k], sigma), print_term(u)
        done += 1

    # h((u)w.., w) = h((v)w.., w) + h(u, v) whenever the u -> v prefix stays
    # at the head of the applied term (application-rooted intermediates)
    rng = random.Random(816)
    done = attempts = 0
    while done < 200:
        attempts += 1
        assert attempts < 40000, "generator stopped producing usable cases"
        u = random_term(rng, depth=5)
        if type(u) is not App:
            continue
        path = [u]
        while type(path[-1]) is App and len(path) <= 12:
            out = head_reduce(path[-1], 1)
            if out.steps == 0:
                break
            path.append(out.result)
        max_k = 0
        for i in range(len(path) - 1):
            if type(path[i]) is not App:
                break
            max_k = i + 1
        if max_k == 0:
            continue
        k = rng.randint(1, max_k)
        ws = [random_closed_term(rng, depth=3) for _ in range(rng.randint(1, 2))]
        full = head_reduce(apply_args(u, ws), 400)
        if not full.completed:
            continue
        tail = head_reduce(apply_args(path[k], ws), 400)
        assert tail.completed
        assert full.steps == tail.steps + k, (print_term(u), k)
        assert full.result == tail.result
        done += 1


@criterion(5, "every bundled derivation checks; every single-node mutation is killed")
def test_criterion_05_derivation_suite_and_mutation_kill():
    bundle = {name: load_prebuilt(name) for name in prebuilt_names()}
    for name, d in bundle.items():
        assert check_derivation(d, **prebuilt_check_args(name)).ok, name

    # the advertised statements, spelled out
    for name, k in (("zero", 0), ("one", 1), ("two", 2), ("three", 3), ("four", 4), ("five", 5)):
        snum = "s(" * k + "0" + ")" * k
        assert bundle[name].type == parse_formula(f"N[{snum}]")
        assert bundle[name].term == church(k)
    assert bundle["succ"].type == parse_formula("!y (N[y] -> N[s(y)])")
    assert bundle["theta0_star"].type == parse_formula("Nstar[0]")
    assert bundle["theta0_star"].term == BUILTINS["theta0"]
    assert bundle["t1_star"].type == parse_formula("!x (Nstar[x] -> ~~N[x])")
    assert bundle["t1_bot"].type == parse_formula("!x (Nbot[x] -> ~~N[x])")
    assert bundle["t2_star"].type == parse_formula("Nstar -> ~~N")
    assert bundle["t2_fperp"].type == parse_formula("Nbot -> ~~N")
    for name, combinator in (("t_bot", "T"), ("tp_bot", "Tp")):
        assert bundle[name].type == parse_formula("!x (Nbot[x] -> ~~N[x])")
        assert bundle[name].term == BUILTINS[combinator]

    applied = killed = 0
    for name, d in bundle.items():
        kwargs = prebuilt_check_args(name)
        for path, node in mutations.paths(d):
            for op in mutations.OPERATORS.values():
                mutated = op(node)
                if mutated is None:
                    continue
                applied += 1
                mutant = mutations.rebuild_at(d, path, lambda _n, _m=mutated: _m)
                rep = check_derivation(mutant, **kwargs)
                if not rep.ok and rep.failures[0][0] == path:
                    killed += 1
    assert applied > 400
    assert killed == applied, f"{applied - killed} mutants survived or were misreported"


@criterion(6, "the star-to-bot lift rebuilds the iterator operator's bot typing")
def test_criterion_06_lift_star_to_bot_t1():
    lifted = lift_star_to_bot(t1_star_derivation())
    assert check_derivation(lifted).ok
    assert lifted.type == parse_formula("!x (Nbot[x] -> ~~N[x])")
    assert lifted.term == BUILTINS["T1"]


T2_LIFT_BLOCKED = (
    "the recursor-shaped operator has no derivation at !x (Nstar[x] -> ~~N[x]) to lift: "
    "any such typing forces s(w) = 0 to be provable for some w, which an adequate "
    "equation set never is; only the propositional star typing (bundled as t2_star) "
    "exists, and the lift needs a first-order quantifier at the root"
)


@pytest.mark.xfail(strict=True, reason=T2_LIFT_BLOCKED)
def test_criterion_06_lift_star_to_bot_t2_first_order():
    print("criterion 6: EXPECTED-FAIL  " + T2_LIFT_BLOCKED)
    lifted = lift_star_to_bot(t2_star_derivation())
    assert check_derivation(lifted).ok
    assert lifted.type == parse_formula("!x (Nbot[x] -> ~~N[x])")
    assert lifted.term == BUILTINS["T2"]


@criterion(7, "translation displays are frozen and commute with the propositional trace")
def test_criterion_07_translation_displays_and_commutation():
    numeral_type = n_type(FoVar("x"))
    assert (
        print_formula(godel_star(numeral_type))
        == "!X {~X(0), !y (~X(y) -> ~X(s(y))) -> ~X(x)}"
    )
    assert (
        print_formula(bot_transform(numeral_type))
        == "!X_| {X_|(0), !y (X_|(y) -> X_|(s(y))) -> X_|(x)}"
    )
    assert print_formula(forget_first_order(numeral_type)) == "!X {X, (X -> X) -> X}"

    rng = random.Random(7117)
    for _ in range(100):
        a = random_formula(rng, depth=4, allow_bot_vars=False)
        assert forget_first_order(godel_star(a)) == godel_star(forget_first_order(a))
        assert forget_first_order(bot_transform(a)) == bot_transform(forget_first_order(a))


@criterion(8, "numeral recognition is exact on numerals and rejects everything else")
def test_criterion_08_numeral_classification():
    for n in range(0, 201):
        assert numeral_of(church(n)) == n

    rng = random.Random(2468)
    rejected = attempts = 0
    while rejected < 50:
        attempts += 1
        assert attempts < 20000, "generator stopped producing normalizing terms"
        out = normalize(random_term(rng, depth=5), 200)
        if not out.completed:
            continue
        nf = out.result
        # independent oracle: a normal term is a numeral iff it alpha-equals one
        # small enough to fit in it
        oracle = next((k for k in range(term_size(nf) + 1) if nf == church(k)), None)
        assert numeral_of(nf) == oracle, print_term(nf)
        if oracle is None:
            rejected += 1


@criterion(9, "every bundled subject term normalizes within the default fuel")
def test_criterion_09_bundled_terms_normalize():
    for name in prebuilt_names():
        d = load_prebuilt(name)
        assert normalize(d.term).completed, name


@criterion(10, "the non-numeral inhabitant: typing holds, value does not, output is frozen")
def test_criterion_10_theta0_regression_and_golden():
    d = load_prebuilt("theta0_star")
    assert check_derivation(d).ok
    assert d.type == parse_formula("Nstar[0]")

    theta0 = BUILTINS["theta0"]
    assert beta_equiv(theta0, church(0)) is False

    golden = (Path(__file__).parent / "golden" / "t2_theta0_hnf.txt").read_text()
    out = head_reduce(parse_term("(@T2 @theta0) f", BUILTINS))
    assert out.completed and out.steps == 5
    regenerated = (
        "term: (@T2 @theta0) f\n"
        "strategy: head\n"
        f"steps: {out.steps}\n"
        f"result: {print_term(out.result)}\n"
    )
    assert regenerated == golden
    # the argument is passed on unevaluated, yet still denotes zero
    assert normalize(out.result.arg).result == church(0)
