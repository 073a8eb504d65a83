import hashlib
import itertools
import operator
import random
import time
import tracemalloc

import pytest

from storop import formulas
from storop.formulas import (
    Arrow,
    Bot,
    BotVarApp,
    Equation,
    EquationSet,
    FoApp,
    FormulaError,
    FoVar,
    ForallBot,
    ForallFo,
    ForallPred,
    PredAbstraction,
    PredSymApp,
    PredVarApp,
    Quantifier,
    _is_propositional,
    _parse_foterm_src,
    apply_equation,
    bot_transform,
    fo_subst,
    fo_vars,
    fv_bot,
    fv_fo,
    fv_pred,
    forget_first_order,
    godel_star,
    instantiate,
    is_bot_type,
    n_bot_type,
    n_star_type,
    n_type,
    neg,
    parse_equations,
    parse_formula,
    polarity,
    print_formula,
    print_foterm,
    subst_fo,
    subst_pred,
)
from storop.terms import Abs, Var, church, parse_term, print_term
from storop.typecheck import read_derivation

from deep import collector_paused, deep
from genformulas import alpha_variant, random_formula
from genterms import random_term

F = parse_formula


def subst_bot(a, name, abst):
    """abst for the free bottomed variable name of a: the instance of !name_| a."""
    return instantiate(ForallBot(name, a), abst)


# ------------------------------------------------------------------ parsing


def test_parse_atoms():
    assert F("bot") == Bot()
    assert F("X") == PredVarApp("X")
    assert F("X(0)") == PredVarApp("X", (FoApp("0"),))
    assert F("X_|(x)") == BotVarApp("X", (FoVar("x"),))
    assert F("$P(x, s(y))") == PredSymApp("P", (FoVar("x"), FoApp("s", (FoVar("y"),))))


def test_parse_arrow_right_assoc():
    assert F("X -> Y -> Z") == Arrow(F("X"), Arrow(F("Y"), F("Z")))


def test_parse_comma_groups_premises():
    assert F("{X, Y -> Z}") == Arrow(F("X"), Arrow(F("Y"), F("Z")))


def test_parse_negation():
    assert F("~X") == neg(F("X"))
    assert F("~~X") == neg(neg(F("X")))
    assert F("~X -> Y") == Arrow(neg(F("X")), F("Y"))


def test_parse_quantifiers_by_case():
    assert F("!x X(x)") == ForallFo("x", PredVarApp("X", (FoVar("x"),)))
    assert F("!X X") == ForallPred("X", PredVarApp("X"))
    assert F("!X_| X_|") == ForallBot("X", BotVarApp("X"))


def test_quantifier_body_is_tight():
    assert F("!x X(x) -> Y") == Arrow(F("!x X(x)"), F("Y"))


def test_parse_macros():
    assert F("N[x]") == n_type(FoVar("x"))
    assert F("N*[x]") == n_star_type(FoVar("x"))
    assert F("Nstar[x]") == n_star_type(FoVar("x"))
    assert F("N_|[x]") == n_bot_type(FoVar("x"))
    assert F("Nbot[x]") == n_bot_type(FoVar("x"))
    assert F("N") == n_type()
    assert F("N[s(s(0))]") == n_type(FoApp("s", (FoApp("s", (FoApp("0"),)),)))


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "x",
        "X ->",
        "!x",
        "X(",
        "~",
        "N(x)",
        "!Nstar X",
        "X -> y",
        "X,",
        "{X -> Y",
        "X *",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(FormulaError):
        F(bad)


def test_unicode_forms():
    assert F("∀x X(x)") == F("!x X(x)")
    assert F("⊥") == Bot()


# ------------------------------------------------------------------ printing


def test_print_known():
    assert print_formula(n_type(FoVar("x"))) == "!X {X(0), !y (X(y) -> X(s(y))) -> X(x)}"
    assert print_formula(F("~X")) == "~X"
    assert print_formula(F("X -> Y -> Z")) == "X -> Y -> Z"
    assert print_formula(F("(X -> Y) -> Z")) == "(X -> Y) -> Z"
    assert print_formula(F("!x (X(x) -> Y)")) == "!x (X(x) -> Y)"
    assert print_foterm(FoApp("s", (FoVar("y"),))) == "s(y)"


def test_print_parse_roundtrip_random():
    rng = random.Random(515)
    for _ in range(300):
        a = random_formula(rng, depth=4, allow_bot_vars=True)
        assert parse_formula(print_formula(a)) == a


# ------------------------------------------------------------------ alpha


def test_alpha_quantifiers():
    assert F("!X X") == F("!Y Y")
    assert F("!x X(x)") == F("!z X(z)")
    assert F("!X_| X_|") == F("!Y_| Y_|")
    assert F("!x X(x)") != F("!x Y(x)")
    assert F("!X X") != F("!X_| X_|")


def test_alpha_free_names_matter():
    assert F("X") != F("Y")
    assert F("X(x)") != F("X(y)")


def test_namespaces_are_separate():
    # a bound predicate name does not capture a bottomed variable of the same name
    assert F("!X X_|") == F("!Y X_|")
    assert F("!X X_|") != F("!Y Y_|")


def test_a_shared_subformula_is_equal_only_under_the_same_bindings():
    # both sides hold s itself, or s and a copy t already found equal to it,
    # so == checks the bindings of its free variables instead of walking it
    s = Arrow(PredVarApp("X", (FoVar("x"),)), BotVarApp("Y"))
    t = Arrow(PredVarApp("X", (FoVar("x"),)), BotVarApp("Y"))
    assert s == t and s._k is t
    for u in (s, t):
        assert ForallFo("x", s) != ForallFo("y", u)
        assert ForallPred("X", s) != ForallPred("Z", u)
        assert ForallBot("Y", s) != ForallBot("Z", u)
        assert ForallFo("x", ForallFo("y", s)) != ForallFo("y", ForallFo("x", u))
        assert ForallFo("x", ForallPred("X", s)) == ForallFo("x", ForallPred("X", u))
        assert ForallFo("x", ForallFo("y", s)) == ForallFo("x", ForallFo("z", u))
        assert ForallFo("x", ForallFo("y", s)) != ForallFo("x", ForallFo("x", u))


def test_hash_agrees_with_alpha():
    a, b = F("!X {X, (X -> X) -> X}"), F("!Y {Y, (Y -> Y) -> Y}")
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize(
    "a, printed",
    [
        (F("!x !X X(x)"), "!v0 !V1 V1(v0)"),
        (F("!X X_|"), "!V0 X_|"),
        (F("!X_| (X(x) -> !x X_|(x))"), "!V0_| (X(x) -> !v1 V0_|(v1))"),
        # one name bound in all three namespaces at once
        (ForallFo("x", ForallPred("x", ForallBot("x", BotVarApp("x", (FoVar("x"),))))), None),
    ],
)
def test_alpha_variant_across_namespaces(a, printed):
    b = alpha_variant(a, {}, itertools.count())
    if printed is not None:
        assert print_formula(b) == printed
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_alpha_variant_is_equal_and_hashes_alike():
    rng = random.Random(5)
    for _ in range(500):
        a = random_formula(rng, depth=5, allow_bot_vars=True)
        b = alpha_variant(a, {}, itertools.count())
        assert a == b and not a != b
        assert hash(a) == hash(b)


def _arrow_chain(n, var):
    """!var (X(var) -> !var (X(var) -> ... bot)), n arrows deep."""
    a = Bot()
    for _ in range(n):
        a = ForallFo(var, Arrow(PredVarApp("X", (FoVar(var),)), a))
    return a


def test_equality_and_hash_at_depth_100000():
    # == and hash walk an explicit stack; recursion broke at depth 30000
    with collector_paused():
        a, b = _arrow_chain(100_000, "x"), _arrow_chain(100_000, "y")
        shorter = _arrow_chain(99_999, "x")
    start = time.perf_counter()
    equal, unequal = deep(operator.eq, a, b), deep(operator.ne, a, shorter)
    same_hash = deep(hash, a) == deep(hash, b)
    elapsed = time.perf_counter() - start
    assert equal and unequal and same_hash
    assert elapsed < 5.0


def test_a_repeated_pair_is_walked_once(monkeypatch):
    walks = []

    def counted(a, b):
        walks.append((a, b))
        return walk(a, b)

    walk = formulas._alpha_eq
    monkeypatch.setattr(formulas, "_alpha_eq", counted)
    a, b = F("!x !X {X(x), X_|} -> !y X(y)"), F("!z !Y {Y(z), X_|} -> !w X(w)")
    assert a == b and a == b and b == a
    assert len(walks) == 1


def _chain_levels(depth):
    """The levels of the chain !x_i (X(x_i) -> ... -> bot), innermost first."""
    a, levels = Bot(), []
    for i in range(depth):
        a = ForallFo(f"x{i}", Arrow(PredVarApp("X", (FoVar(f"x{i}"),)), a))
        levels.append(a)
    return levels


def test_comparing_levels_keeps_no_memory():
    # == caches nothing as large as a formula, so comparing every level of a
    # chain keeps memory linear in the depth, not quadratic
    levels = _chain_levels(500), _chain_levels(500)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert all(a == b for a, b in zip(*levels))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000


def test_comparing_levels_walks_each_level_once():
    # each level's body is the level below, found equal just before, so it is
    # not walked again: 17 s at depth 4,000 while only the root pair was skipped
    levels = _chain_levels(4000), _chain_levels(4000)
    start = time.perf_counter()
    assert all(a == b for a, b in zip(*levels))
    assert time.perf_counter() - start < 1.0


def _numeral_term(n, base=FoApp("0")):
    t = base
    for _ in range(n):
        t = FoApp("s", (t,))
    return t


def test_first_order_equality_and_hash_at_depth_100000():
    # FoApp's == walks _alpha_eq's stack and its hash reads the head alone;
    # the dataclass ones recursed
    with collector_paused():
        a, b = _numeral_term(100_000), _numeral_term(100_000)
        other = _numeral_term(100_000, FoVar("x"))
    assert deep(operator.eq, a, b)
    assert deep(hash, a) == deep(hash, b)
    assert deep(operator.ne, a, a.args[0])
    assert deep(operator.ne, a, other)
    assert deep(operator.ne, a, FoVar("x")) and deep(operator.ne, FoVar("x"), a)


def test_first_order_equality_is_structural():
    x, y = FoVar("x"), FoVar("y")
    assert FoApp("0") == FoApp("0", ()) and hash(FoApp("0")) == hash(FoApp("0", ()))
    assert FoApp("p", (x, y)) == FoApp("p", (FoVar("x"), FoVar("y")))
    assert FoApp("p", (x, y)) != FoApp("p", (y, x))
    assert FoApp("p", (x,)) != FoApp("q", (x,))
    # the walk compares argument counts: p(s(x), 0) is not p(s(x, 0))
    assert FoApp("p", (FoApp("s", (x,)), FoApp("0"))) != FoApp("p", (FoApp("s", (x, FoApp("0"))),))
    assert {FoApp("s", (x,)): 1}[FoApp("s", (FoVar("x"),))] == 1


# == and != on every pair (i <= j) of ten seeded pools of 120, 145,200 pairs
# in all; the digests were recorded when each syntax compared by its own
# recursive walker, so they pin the relation itself.
EQUALITY_DIGESTS = {
    "formulas": "78c7234910eb7ce137afb96517ab1c2ee78877faf16bbfb1096600a1d4e81021",
    "terms": "db31f68c6d4ade2212881e8ad78c021c32281a48a0cc5eca4c2a3a5ab904b64e",
}
_POOL_MEMBER = {
    "formulas": lambda rng: random_formula(rng, allow_bot_vars=True),
    "terms": random_term,
}


@pytest.mark.parametrize("family", sorted(EQUALITY_DIGESTS))
def test_equality_relation_fingerprint(family):
    bits = []
    for seed in range(10):
        rng = random.Random(seed)
        pool = [_POOL_MEMBER[family](rng) for _ in range(120)]
        for i, a in enumerate(pool):
            for b in pool[i:]:
                eq, ne = a == b, a != b
                bits.append(f"{eq:d}{ne:d}")
                # a second time, in the other order: formula == may then answer from _k
                assert (b == a, b != a) == (eq, ne)
                if eq:
                    assert hash(a) == hash(b)
    digest = hashlib.sha256("".join(bits).encode()).hexdigest()
    assert digest == EQUALITY_DIGESTS[family]


# Each syntax's tokens, then the pieces that are drawn one time in 25: a few
# stray ASCII characters and, for terms, the tokens that fail in the tokenizer.
_PARSE_PIECES = {
    "terms": (
        "\\ \\ λ ( ( ( ) ) ) x x f x' y1 _ @church:2 @church:12 @church @id",
        "@church: @id:3 @ : 3 ' ? . # - $",
    ),
    "formulas": (
        "-> -> -> ( ( ) ) { } [ ] , , ~ $ * ! ∀ ⊥ bot 0 12 x y' s X X Y1 P N Nstar Nbot"
        " X_| N_| _ _|",
        "= | - > ? # . : @ \\",
    ),
}
_PARSE_BUILTINS = {"id": Abs("x", Var("x"))}


def _parse_sources(family, rng):
    """Seeded strings, alternately: 1-12 pieces joined with or without
    whitespace, and a printed random term or formula with one piece put in
    or one character taken out at a random place, or left whole."""
    tokens, strays = (pieces.split(" ") for pieces in _PARSE_PIECES[family])
    for n in range(6_000):
        if n % 2:
            if family == "terms":
                src = print_term(random_term(rng))
            else:
                src = print_formula(random_formula(rng, allow_bot_vars=True))
            at, roll = rng.randrange(len(src) + 1), rng.random()
            if roll < 1 / 3:
                src = src[:at] + rng.choice(tokens) + src[at:]
            elif roll < 2 / 3:
                src = src[:at] + src[at + 1 :]
            yield src
            continue
        src = ""
        for _ in range(rng.randint(1, 12)):
            piece = rng.choice(strays if rng.random() < 0.04 else tokens)
            gap = rng.choice(["", "", "", " ", "\n\t "])
            if src[-1:].isdigit() and piece[0].isdigit():
                gap = " "  # no runs of digits longer than one piece: no huge numerals
            src += gap + piece
        yield src


def _parse_outcomes(family):
    """Per seeded string, its printed parse or its error's class and message;
    a formula string is also read as a first-order term."""
    if family == "terms":
        readers = [(lambda s: parse_term(s, _PARSE_BUILTINS), print_term)]
    else:
        readers = [(parse_formula, print_formula), (_parse_foterm_src, print_foterm)]
    for src in _parse_sources(family, random.Random(71)):
        for parse, show in readers:
            try:
                out = show(parse(src))
            except Exception as exc:
                out = f"{type(exc).__name__}: {exc}"
            yield f"{src!r} {out}"


# sha256 over _parse_outcomes, one line each; recorded when both parsers
# recursed, so they pin every result, error message and offset.
PARSE_DIGESTS = {
    "formulas": "4c8f343bcafe4554366b74a0dc7cc5cfc0178409e0905d8b845f66a0ba3f7cc4",
    "terms": "0d6d693f4c364167b013c011d307465c68b4c0403777e0abe408912f7ada687a",
}


@pytest.mark.parametrize("family", sorted(PARSE_DIGESTS))
def test_parse_outcome_fingerprint(family):
    text = "\n".join(_parse_outcomes(family))
    assert hashlib.sha256(text.encode()).hexdigest() == PARSE_DIGESTS[family]


# ------------------------------------------------------------------ free vars


def test_free_variable_sets():
    a = F("!x (X(x, y) -> X_|(z))")
    assert fv_fo(a) == {"y", "z"}
    assert fv_pred(a) == {"X"}
    assert fv_bot(a) == {"X"}
    assert fv_pred(F("!X X(x)")) == frozenset()
    assert fv_fo(F("N[x]")) == {"x"}


# uncached reference walkers for the free-variable and propositional caches


def ref_term_vars(t):
    if isinstance(t, FoVar):
        return frozenset((t.name,))
    return frozenset().union(*map(ref_term_vars, t.args))


REF_QUANT = {ForallFo: "fo", ForallPred: "pred", ForallBot: "bot"}
REF_ATOM = {PredVarApp: "pred", BotVarApp: "bot"}


def ref_fv(a, ns):
    ta = type(a)
    if ta is Arrow:
        return ref_fv(a.left, ns) | ref_fv(a.right, ns)
    if ta in REF_QUANT:
        out = ref_fv(a.body, ns)
        return out - {a.var} if REF_QUANT[ta] == ns else out
    if ta is Bot:
        return frozenset()
    if ns == "fo":
        return frozenset().union(*map(ref_term_vars, a.args))
    return frozenset((a.name,)) if REF_ATOM.get(ta) == ns else frozenset()


def ref_is_propositional(a):
    ta = type(a)
    if ta is Arrow:
        return ref_is_propositional(a.left) and ref_is_propositional(a.right)
    if ta is ForallFo:
        return False
    if ta in REF_QUANT:
        return ref_is_propositional(a.body)
    return ta is Bot or not a.args


def subformulas(a):
    out, stack = [], [a]
    while stack:
        x = stack.pop()
        out.append(x)
        if type(x) is Arrow:
            stack += (x.left, x.right)
        elif type(x) in REF_QUANT:
            stack.append(x.body)
    return out


def cached_answers(a):
    return (fv_fo(a), fv_pred(a), fv_bot(a), _is_propositional(a))


def reference_answers(a):
    return (ref_fv(a, "fo"), ref_fv(a, "pred"), ref_fv(a, "bot"), ref_is_propositional(a))


def test_cached_free_variables_match_an_uncached_walk():
    rng = random.Random(0)
    changed = 0
    for _ in range(500):
        a = random_formula(rng, allow_bot_vars=True)
        nodes = subformulas(a)
        rng.shuffle(nodes)  # some nodes are asked before, some after, their parents
        first = [cached_answers(x) for x in nodes]
        assert first == [reference_answers(x) for x in nodes]
        results = [subst_fo(a, {"x": FoApp("s", (FoVar("y"),)), "z": FoVar("x")})]
        # X may occur with any arity up to 2; only a matching abstraction applies
        for params in ((), ("z",), ("z", "w")):
            try:
                results.append(subst_pred(a, "X", PredAbstraction(params, F("!y Y(y, x) -> X(z)"))))
            except FormulaError:
                pass
        assert [cached_answers(x) for x in nodes] == first
        for b in results:
            changed += b is not a
            fresh = subformulas(b)
            assert [cached_answers(x) for x in fresh] == [reference_answers(x) for x in fresh]
    assert changed > 200


def test_free_variables_at_depth_100000():
    a = PredVarApp("X", (FoVar("z"),))
    with collector_paused():
        for _ in range(100_000):
            a = ForallPred("Y", Arrow(PredVarApp("Y", (FoVar("x"),)), a))
    start = time.perf_counter()
    answers = deep(cached_answers, a)
    assert time.perf_counter() - start < 5
    assert answers == (frozenset("xz"), frozenset("X"), frozenset(), False)


PAIRS = 25_000  # of layers, each a binder over an arrow: 100,000 nodes deep


def _alternating_chain():
    """!x (Y(x) -> !Y (Y(x) -> !x ... Z)), 2 * PAIRS binders; the outer Y(x) and Z are free."""
    a, y = PredVarApp("Z"), PredVarApp("Y", (FoVar("x"),))
    for i in range(2 * PAIRS):
        a = ForallFo("x", Arrow(y, a)) if i % 2 else ForallPred("Y", Arrow(y, a))
    return a


@pytest.fixture(scope="module")
def chain():
    with collector_paused():
        return _alternating_chain()


def _spine(a):
    """Each binder, as (class, var), and each premise on a's right spine, then its end."""
    out = []
    while True:
        if type(a) is Arrow:
            out.append(a.left)
            a = a.right
        elif isinstance(a, Quantifier):
            out.append((type(a), a.var))
            a = a.body
        else:
            return out + [a]


def test_translations_at_depth_100000(chain):
    y, bot_y = PredVarApp("Y", (FoVar("x"),)), BotVarApp("Y", (FoVar("x"),))
    star = [(ForallFo, "x"), neg(y), (ForallPred, "Y"), neg(y)]
    assert _spine(deep(godel_star, chain)) == star * PAIRS + [PredVarApp("Z"), Bot()]
    bottomed = deep(bot_transform, chain)
    layers = [(ForallFo, "x"), bot_y, (ForallBot, "Y"), bot_y]
    assert _spine(bottomed) == layers * PAIRS + [BotVarApp("Z")]
    assert deep(is_bot_type, bottomed)
    forgot = deep(forget_first_order, chain)
    bare_y = PredVarApp("Y")
    assert _spine(forgot) == [bare_y, (ForallPred, "Y"), bare_y] * PAIRS + [PredVarApp("Z")]
    assert deep(_is_propositional, forgot)


def test_queries_at_depth_100000(chain):
    assert deep(polarity, chain, "Z") == "positive"
    assert deep(polarity, chain, "Y") == "negative"
    assert not deep(is_bot_type, chain)
    assert not deep(_is_propositional, chain)


def test_print_parse_and_repr_at_depth_100000(chain):
    # printing, parsing and repr recursed once per level and broke at 20,000
    text = "!x (Y(x) -> !Y (Y(x) -> " * PAIRS + "Z" + "))" * PAIRS
    assert deep(print_formula, chain) == text
    assert deep(operator.eq, deep(parse_formula, text), chain)
    assert deep(repr, chain) == f"<{text}>"


def test_read_at_depth_100000(chain):
    # the reader interns while it parses, so it builds the chain and the
    # numeral straight into its table, at any depth
    text = "!x (Y(x) -> !Y (Y(x) -> " * PAIRS + "Z" + "))" * PAIRS
    numeral = "\\\\x f " + "(f) " * 100_000 + "x"
    d = read_derivation(f'(rule ax (ctx (v "{text}")) (term "{numeral}") (type "{text}"))')
    assert d.ctx.lookup("v") is d.type
    assert deep(operator.eq, d.type, chain)
    assert deep(operator.eq, d.term, church(100_000))


def test_parameterless_abstraction_applies_without_a_walk(monkeypatch):
    calls = []
    subst = formulas._subst

    def counted(a, fo, so):
        calls.append(a)
        return subst(a, fo, so)

    monkeypatch.setattr(formulas, "_subst", counted)
    body = F("!X {X(0), !y (X(y) -> X(s(y))) -> Y}")
    assert PredAbstraction((), body).apply(()) is body
    assert calls == [body]


def test_instantiate_builds_each_instance_once_per_witness_object(monkeypatch):
    q, w = F("!x (X(x) -> !y Y(x, y))"), FoApp("s", (FoVar("y"),))
    first = instantiate(q, w)
    assert print_formula(first) == "X(s(y)) -> !y' Y(s(y), y')"
    calls = []
    subst = formulas._subst

    def counted(a, fo, so):
        calls.append(a)
        return subst(a, fo, so)

    monkeypatch.setattr(formulas, "_subst", counted)
    assert instantiate(q, w) is first
    assert calls == []
    # an equal witness that is another object is substituted afresh
    again = instantiate(q, FoApp("s", (FoVar("y"),)))
    assert again == first and again is not first
    assert calls == [q.body]


def test_subst_walks_each_first_order_replacement_once(monkeypatch):
    # every binder the witness passes asks for its variables; it used to walk them anew
    ys = [f"y{i}" for i in range(100)]
    q = F("!x " + " ".join("!" + y for y in ys) + f" X({', '.join(ys)}, x)")
    with collector_paused():
        w = _numeral_term(20_000)
    walks = 0
    fo_vars = formulas.fo_vars

    def counted(t):
        nonlocal walks
        walks += t is w
        return fo_vars(t)

    monkeypatch.setattr(formulas, "fo_vars", counted)
    out = instantiate(q, w)
    assert walks == 1
    for y in ys:
        assert type(out) is ForallFo and out.var == y
        out = out.body
    assert out.args[-1] is w


# ------------------------------------------------------------------ substitution


def test_subst_fo_basic():
    a = F("X(x) -> Y(x, y)")
    out = subst_fo(a, {"x": FoApp("s", (FoVar("y"),))})
    assert out == F("X(s(y)) -> Y(s(y), y)")


def test_subst_fo_capture_renames():
    a = F("!y X(y, x)")
    out = subst_fo(a, {"x": FoApp("s", (FoVar("y"),))})
    assert out == F("!w X(w, s(y))")


def test_subst_fo_shadowed_is_noop():
    a = F("!x X(x)")
    assert subst_fo(a, {"x": FoApp("0")}) is a


def test_subst_pred_instantiates_atoms():
    a = F("!y (X(y) -> X(s(y)))")
    out = subst_pred(a, "X", PredAbstraction(("w",), F("~Y(w)")))
    assert out == F("!y (~Y(y) -> ~Y(s(y)))")


def test_subst_pred_respects_shadowing():
    a = F("!X (X -> X)")
    assert subst_pred(a, "X", PredAbstraction((), F("Y"))) is a


def test_subst_pred_avoids_fo_capture():
    out = subst_pred(F("!y X(y)"), "X", PredAbstraction(("w",), F("$P(y, w)")))
    assert out == F("!z $P(y, z)")


def test_subst_pred_avoids_pred_capture():
    # substitute X := Y inside !Y (X -> Y): the bound Y must be renamed
    out = subst_pred(F("!Y (X -> Y)"), "X", PredAbstraction((), F("Y")))
    assert out == F("!Z (Y -> Z)")


def test_subst_pred_arity_mismatch():
    with pytest.raises(FormulaError):
        subst_pred(F("X(0)"), "X", PredAbstraction((), F("Y")))


def test_subst_bot():
    a = F("X_|(0) -> X_|(s(0))")
    out = subst_bot(a, "X", PredAbstraction(("w",), F("~Y(w)")))
    assert out == F("~Y(0) -> ~Y(s(0))")
    # bot namespace is untouched by subst_pred
    assert subst_pred(a, "X", PredAbstraction(("w",), F("Y(w)"))) is a


@pytest.mark.parametrize(
    "src, subst, name, body, expected",
    [
        # a bottomed binder captures a bottomed witness
        ("!Y_| (X_| -> Y_|)", subst_bot, "X", "Y_|", "!Y'_| (Y_| -> Y'_|)"),
        # a predicate binder captures the witness of a bottomed variable
        ("!Y (X_| -> Y)", subst_bot, "X", "~Y", "!Y' (~Y -> Y')"),
        # a bottomed binder captures the witness of a predicate variable
        ("!Y_| (X -> Y_|)", subst_pred, "X", "Y_|", "!Y'_| (Y_| -> Y'_|)"),
    ],
)
def test_second_order_subst_renames_capturing_binders(src, subst, name, body, expected):
    out = subst(F(src), name, PredAbstraction((), F(body)))
    assert print_formula(out) == expected


@pytest.mark.parametrize(
    "src, subst, body, expected",
    [
        ("!Y (X -> !Y' (Y -> Y'))", subst_pred, "Y", "!Z (Y -> !W (Z -> W))"),
        ("!Y_| (X_| -> !Y'_| (Y_| -> Y'_|))", subst_bot, "Y_|", "!Z_| (Y_| -> !W_| (Z_| -> W_|))"),
    ],
    ids=["pred", "bot"],
)
def test_second_order_subst_renames_nested_binders_apart(src, subst, body, expected):
    # priming the outer binder to Y' must not let the inner Y' capture it
    assert subst(F(src), "X", PredAbstraction((), F(body))) == F(expected)


# names next to their primed forms, so that a binder primed to avoid capture
# can meet a binder that already has the primed name
_PRIMED_FO = ("x", "y", "y'")
_PRIMED_SO = ("X", "Y", "Y'")


def _primed_term(rng):
    if rng.random() < 0.2:
        return FoApp("s", (_primed_term(rng),))
    return FoVar(rng.choice(_PRIMED_FO))


def _primed_formula(rng, depth):
    """A random formula over the primed names in all three namespaces; atoms are unary."""
    roll = rng.random()
    if depth == 0 or roll < 0.1:
        return rng.choice((PredVarApp, BotVarApp))(rng.choice(_PRIMED_SO), (_primed_term(rng),))
    if roll < 0.5:
        return Arrow(_primed_formula(rng, depth - 1), _primed_formula(rng, depth - 1))
    quant = rng.choice((ForallFo, ForallPred, ForallBot))
    names = _PRIMED_FO if quant is ForallFo else _PRIMED_SO
    return quant(rng.choice(names), _primed_formula(rng, depth - 1))


def test_substitution_agrees_on_alpha_variants():
    # the variant's binders are apart from every name, so substituting into
    # it needs no renaming: its result is the reference
    rng = random.Random(11)
    fo_map = {"x": FoVar("y"), "y": FoApp("s", (FoVar("y'"),))}
    abst = PredAbstraction(("w",), F("Y(w) -> Y_|(y)"))
    for _ in range(1000):
        a = _primed_formula(rng, 7)
        b = alpha_variant(a, {}, itertools.count())
        assert subst_fo(a, fo_map) == subst_fo(b, fo_map)
        assert subst_pred(a, "X", abst) == subst_pred(b, "X", abst)
        assert subst_bot(a, "X", abst) == subst_bot(b, "X", abst)


def test_subst_bot_respects_shadowing():
    a = F("!X_| (X_| -> Y)")
    assert subst_bot(a, "X", PredAbstraction((), F("bot"))) is a


def test_abstraction_validation():
    with pytest.raises(FormulaError):
        PredAbstraction(("w", "w"), F("X"))
    with pytest.raises(FormulaError):
        PredAbstraction(("w",), F("X")).apply(())


# ------------------------------------------------------------------ bot types


def test_is_bot_type():
    assert is_bot_type(F("bot"))
    assert is_bot_type(F("X_|(x)"))
    assert is_bot_type(F("X -> bot"))
    assert is_bot_type(F("!x !X (X -> X_|)"))
    assert is_bot_type(n_bot_type(FoVar("x")))
    # the negative translation ends in a negated atom, so it is bottomed too
    assert is_bot_type(n_star_type(FoVar("x")))
    assert not is_bot_type(F("X"))
    assert not is_bot_type(F("bot -> X"))
    assert not is_bot_type(n_type(FoVar("x")))


# ------------------------------------------------------------------ polarity


def test_polarity_signs():
    assert polarity(F("X -> Y"), "X") == "negative"
    assert polarity(F("X -> Y"), "Y") == "positive"
    assert polarity(F("(X -> Y) -> Z"), "X") == "positive"
    assert polarity(F("X -> X"), "X") == "both"
    assert polarity(F("!X X"), "X") == "absent"
    assert polarity(F("Y"), "X") == "absent"
    assert polarity(F("~X"), "X") == "negative"
    assert polarity(F("~~X"), "X") == "positive"
    assert polarity(F("X_| -> Y_|"), "X", kind="bot") == "negative"
    assert polarity(F("X_|"), "X", kind="pred") == "absent"
    with pytest.raises(ValueError):
        polarity(F("X"), "X", kind="nope")


# ------------------------------------------------------------------ equations


def test_parse_equations_and_signature():
    eqs = parse_equations(
        """
        # predecessor laws
        p0: p(0) = 0
        ps: p(s(x)) = x
        """
    )
    assert len(eqs) == 2
    assert eqs.get("p0") == Equation(FoApp("p", (FoApp("0"),)), FoApp("0"), "p0")
    assert eqs.signature == {"0": 0, "s": 1, "p": 1}
    with pytest.raises(KeyError):
        eqs.get("nope")


def test_equation_set_is_fixed_when_made():
    # the checker keeps its verdicts against an EquationSet object, so the
    # set keeps no reference to the iterable it was made from
    unnamed, twin = Equation(FoVar("x"), FoVar("x")), Equation(FoApp("0"), FoApp("0"))
    named = Equation(FoApp("p", (FoApp("0"),)), FoApp("0"), "p0")
    source = [unnamed, twin, named]
    eqs = EquationSet(source)
    source.clear()
    assert eqs.equations == (unnamed, twin, named) and len(eqs) == 3
    # the first equation of each name wins, the unnamed ones' included
    assert eqs.get("") is unnamed and eqs.get("p0") is named
    with pytest.raises(KeyError) as exc:
        eqs.get("qq")
    assert exc.value.args == ("no equation named 'qq'",)


def test_parse_equations_rejects():
    with pytest.raises(FormulaError):
        parse_equations("a: f(x) = f(x, x)")
    with pytest.raises(FormulaError):
        parse_equations("just some words")
    with pytest.raises(FormulaError):
        parse_equations("a: x = 0\na: y = 0")


def test_apply_equation_forward_and_back():
    eqs = parse_equations("ps: p(s(x)) = x")
    a = F("X(p(s(y)))")
    out = apply_equation(a, eqs.get("ps"), (0,), "lr")
    assert out == F("X(y)")
    assert apply_equation(out, eqs.get("ps"), (0,), "rl") == a


def test_apply_equation_inside_quantified_formula():
    eqs = parse_equations("ps: p(s(x)) = x")
    a = n_type(FoApp("p", (FoApp("s", (FoVar("y"),)),)))
    out = apply_equation(a, eqs.get("ps"), (0, 1, 1, 0), "lr")
    assert out == n_type(FoVar("y"))


def test_apply_equation_subterm_position():
    eqs = parse_equations("p0: p(0) = 0")
    a = F("X(s(p(0)))")
    out = apply_equation(a, eqs.get("p0"), (0, 0), "lr")
    assert out == F("X(s(0))")


def test_apply_equation_mismatch():
    eqs = parse_equations("p0: p(0) = 0")
    with pytest.raises(FormulaError):
        apply_equation(F("X(s(0))"), eqs.get("p0"), (0,), "lr")


def test_apply_equation_bad_paths():
    eqs = parse_equations("p0: p(0) = 0")
    a = F("X(p(0)) -> Y")
    with pytest.raises(FormulaError):
        apply_equation(a, eqs.get("p0"), (), "lr")
    with pytest.raises(FormulaError):
        apply_equation(a, eqs.get("p0"), (2, 0), "lr")
    with pytest.raises(FormulaError):
        apply_equation(a, eqs.get("p0"), (0, 5), "lr")
    with pytest.raises(FormulaError):
        apply_equation(a, eqs.get("p0"), (0, 0, 0, 0), "lr")


def test_apply_equation_rejects_captured_occurrence():
    eqs = parse_equations("ps: p(s(x)) = x")
    a = F("!y X(p(s(y)))")
    with pytest.raises(FormulaError):
        apply_equation(a, eqs.get("ps"), (0, 0), "lr")


def test_apply_equation_rejects_undetermined_vars():
    eqs = parse_equations("w: f(x, y) = x")
    with pytest.raises(FormulaError):
        apply_equation(F("X(0)"), eqs.get("w"), (0,), "rl")


def test_apply_equation_direction_validation():
    eqs = parse_equations("p0: p(0) = 0")
    with pytest.raises(FormulaError):
        apply_equation(F("X(p(0))"), eqs.get("p0"), (0,), "sideways")


@pytest.mark.parametrize(
    "eq, src, path, direction, message",
    [
        ("p0: p(0) = 0", "X(p(0)) -> Y", (0,), "lr",
         "path stops at an atom, not at a term position"),
        ("p0: p(0) = 0", "X(p(0)) -> Y", (), "lr", "path stops before reaching an atom"),
        ("p0: p(0) = 0", "X(p(0)) -> Y", (0, 1), "lr", "no such atom argument"),
        ("p0: p(0) = 0", "X(p(0)) -> Y", (0, -1), "lr", "no such atom argument"),
        ("p0: p(0) = 0", "X(p(0)) -> Y", (2, 0), "lr", "arrow children are 0 and 1"),
        ("p0: p(0) = 0", "!x X(p(x))", (1, 0), "lr", "quantifier child is 0"),
        ("p0: p(0) = 0", "X(p(0)) -> Y", (0, 0, 0, 0), "lr", "path leaves the term"),
        ("p0: p(0) = 0", "X(p(y))", (0, 0, 0, 0), "lr", "path leaves the term"),
        ("p0: p(0) = 0", "X(p(0)) -> bot", (1, 0), "lr", "path leaves the formula"),
        ("p0: p(0) = 0", "X(s(0))", (0,), "lr", "equation side p(0) does not match s(0)"),
        ("ps: p(s(x)) = x", "!y X(p(s(y)))", (0, 0), "lr",
         "occurrence mentions ['y'] bound above it; "
         "the equation does not apply to captured positions"),
        ("w: f(x, y) = x", "X(0)", (0,), "rl",
         "rewrite would not determine ['y']; "
         "these variables occur only in the replacement side"),
        ("p0: p(0) = 0", "X(p(0))", (0,), "sideways", "direction must be 'lr' or 'rl'"),
    ],
)
def test_apply_equation_messages(eq, src, path, direction, message):
    (equation,) = parse_equations(eq).equations
    with pytest.raises(FormulaError) as exc:
        apply_equation(F(src), equation, path, direction)
    assert str(exc.value) == message


DEPTH = 30_000  # each scan and rewrite level was one Python frame


def test_parse_equations_at_depth_30000():
    eqs = deep(parse_equations, "deep: " + "p(" * DEPTH + "x" + ")" * DEPTH + " = x")
    assert eqs.signature == {"0": 0, "s": 1, "p": 1}
    with collector_paused():
        lhs = FoVar("x")
        for _ in range(DEPTH):
            lhs = FoApp("p", (lhs,))
    assert deep(operator.eq, eqs.get("deep").lhs, lhs)
    with pytest.raises(FormulaError, match="function symbol p used with conflicting arities"):
        deep(parse_equations, "deep: " + "p(" * DEPTH + "p(0, 0)" + ")" * DEPTH + " = 0")


def test_apply_equation_at_a_path_of_30001_indices():
    (p0,) = parse_equations("p0: p(0) = 0").equations
    with collector_paused():
        a = PredVarApp("X", (_numeral_term(DEPTH, FoApp("p", (FoApp("0"),))),))
        expected = PredVarApp("X", (_numeral_term(DEPTH),))
    out = deep(apply_equation, a, p0, (0,) * (DEPTH + 1))
    assert deep(operator.eq, out, expected)
    assert deep(apply_equation, out, p0, (0,) * (DEPTH + 1), "rl") == a


def test_fo_helpers():
    t = FoApp("s", (FoVar("x"),))
    assert fo_vars(t) == {"x"}
    assert fo_subst(t, {"x": FoApp("0")}) == FoApp("s", (FoApp("0"),))
    assert print_foterm(FoApp("0")) == "0"
