import gc
import itertools
import operator
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storop import terms
from storop.terms import (
    _DEEP,
    Abs,
    App,
    ParseError,
    Var,
    church,
    fresh_name,
    match_holes,
    numeral_of,
    parse_term,
    print_term,
    substitute,
    term_size,
    _alpha_eq,
    _tokenize,
)

from deep import collector_paused, deep
from genterms import random_term


def P(src):
    return parse_term(src)


# ---------------------------------------------------------------- parsing


def test_parse_variable():
    assert P("x") == Var("x")


def test_parse_application_left_assoc():
    t = P("(h) a b")
    assert t == App(App(Var("h"), Var("a")), Var("b"))


def test_parse_compound_argument_is_greedy():
    # an argument starting with ( runs to the end of the group
    t = P("(h) a (g) b")
    assert t == App(App(Var("h"), Var("a")), App(Var("g"), Var("b")))


def test_parse_juxtaposition_inside_parens():
    expected = App(App(Var("h"), Var("a")), Var("b"))
    assert P("(h a b)") == expected
    assert P("(h a) b") == expected
    assert P("((h) a b)") == expected


def test_parse_group_head_with_builtin_args():
    table = {"id": Abs("x", Var("x"))}
    t = parse_term("(@id @church:2) f", table)
    assert t == App(App(Abs("x", Var("x")), church(2)), Var("f"))


def test_parse_lambda_argument_is_greedy():
    t = P("(h) \\x (x) y z")
    assert t == App(Var("h"), Abs("x", App(App(Var("x"), Var("y")), Var("z"))))


def test_parse_trailing_var_run_is_body():
    assert P("\\x f x") == Abs("x", Abs("f", Var("x")))
    assert P("\\x y") == Abs("x", Var("y"))


def test_parse_binder_then_group_body():
    t = P("\\x y (x) y")
    assert t == Abs("x", Abs("y", App(Var("x"), Var("y"))))


def test_parse_parenthesized_lambda():
    t = P("(\\x x) y")
    assert t == App(Abs("x", Var("x")), Var("y"))


def test_parse_church_reference():
    assert P("@church:3") == church(3)
    assert P("(f) @church:0") == App(Var("f"), church(0))


def test_parse_builtin_table():
    table = {"id": Abs("x", Var("x"))}
    assert parse_term("(@id) y", table) == App(Abs("x", Var("x")), Var("y"))


def test_parse_primes_in_names():
    t = P("\\x' (x') y")
    assert t == Abs("x'", App(Var("x'"), Var("y")))


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "(x",
        "x)",
        "\\x",
        "\\ (x) y",
        "(h) a b )",
        "@church:x",
        "@church:²",  # a digit to str.isdigit, not to int
        "@nosuch",
        "@zero:3",
        "?x",
        "x y",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        P(bad)


def test_church_suffix_takes_at_most_six_digits():
    # the tokenizer alone, so no numeral is built
    assert _tokenize("@church:999999")[0] == ("at", ("church", 999_999), 0)
    assert _tokenize("@church:000001")[0] == ("at", ("church", 1), 0)
    with pytest.raises(ParseError, match=r"more than 6 digits after ':' \(at offset 9\)"):
        _tokenize(" @church:1000000")


def test_lambda_unicode_synonym():
    assert P("λx f x") == P("\\x f x")


# ---------------------------------------------------------------- printing


@pytest.mark.parametrize(
    "src",
    [
        "x",
        "\\x f x",
        "\\n x f (f) (n) x f",
        "(h) a b",
        "(h) a (g) b",
        "((h) (g) b) a",
        "\\x y (x) \\z (y) (s) z",
        "(\\x (x) x) \\x (x) x",
        "\\x f z (x) (\\d z) \\x x",
    ],
)
def test_print_parse_roundtrip(src):
    t = P(src)
    assert parse_term(print_term(t)) == t


def test_print_known_forms():
    assert print_term(church(0)) == "\\x f x"
    assert print_term(church(2)) == "\\x f (f) (f) x"
    assert print_term(App(App(Var("h"), Var("a")), Var("b"))) == "(h) a b"
    # a compound non-final argument forces regrouping of the head
    t = App(App(Var("h"), App(Var("g"), Var("b"))), Var("a"))
    assert print_term(t) == "((h) (g) b) a"
    assert parse_term(print_term(t)) == t


def _print_tops(t):
    """The nodes of t whose text stands on its own: t, then the body of each
    abstraction chain and the head and arguments of each spine, variables left out."""
    tops, todo = [], [t]
    while todo:
        cur = todo.pop()
        if type(cur) is Var:
            continue
        tops.append(cur)
        if type(cur) is Abs:
            while type(cur) is Abs:
                cur = cur.body
            todo.append(cur)
        else:
            while type(cur) is App:
                todo.append(cur.arg)
                cur = cur.fn
            todo.append(cur)
    return tops


def test_shared_print_cache_holds_each_top_printed_alone():
    rng = random.Random(17)
    terms = [random_term(rng, depth=rng.randint(1, 8)) for _ in range(400)]
    # the later terms reuse the earlier ones as spine heads and arguments
    terms += [App(a, b) for a, b in zip(terms, terms[1:])]
    cache = {}
    assert [print_term(t, cache) for t in terms] == [print_term(t) for t in terms]
    tops = {id(top): top for t in terms for top in _print_tops(t)}
    assert cache.keys() == tops.keys()
    assert all(text == print_term(tops[key]) for key, text in cache.items())


def _nested_groups(n):
    """((h) ((h) .. x a) a) a, n deep: arguments that close a parenthesis."""
    h, a, t = Var("h"), Var("a"), Var("x")
    for _ in range(n):
        t = App(App(h, t), a)
    return t


def _nested_lambdas(n):
    """\\x (x) \\x (x) .. y, n deep: chains inside spines inside chains."""
    x, t = Var("x"), Var("y")
    for _ in range(n):
        t = Abs("x", App(x, t))
    return t


def test_print_past_the_recursion_limit():
    n = 30_000  # printing recursed once per level and broke at 20,000
    with collector_paused():
        groups, lambdas = _nested_groups(n), _nested_lambdas(n)
    assert deep(print_term, groups) == "((h) " * (n - 1) + "(h) x a" + ") a" * (n - 1)
    assert deep(print_term, lambdas) == "\\x (x) " * n + "y"


@pytest.mark.parametrize(
    "build", [church, _nested_lambdas, _nested_groups], ids=["church", "lambdas", "groups"]
)
def test_print_parse_roundtrip_at_depth_100000(build):
    # parsing recursed once per group or lambda body and broke at 20,000
    with collector_paused():
        t = build(100_000)
    assert deep(operator.eq, deep(parse_term, deep(print_term, t)), t)


# ---------------------------------------------------------------- alpha


def test_alpha_equality_basic():
    assert P("\\x x") == P("\\y y")
    assert P("\\x f (f) x") == P("\\a b (b) a")
    assert P("\\x x") != P("\\x y")
    assert Var("x") != Var("y")


def test_alpha_distinguishes_binding_structure():
    assert P("\\x \\y (x) y") != P("\\x \\y (y) x")
    assert P("\\x (x) z") != P("\\x (x) w")


def test_hash_agrees_with_alpha():
    pairs = [
        (P("\\x x"), P("\\y y")),
        (P("\\x f (f) (f) x"), church(2)),
        (P("(a) \\u u"), P("(a) \\w w")),
    ]
    for t, u in pairs:
        assert t == u
        assert hash(t) == hash(u)
    seen = {P("\\x x"): "id"}
    assert seen[P("\\q q")] == "id"


# ---------------------------------------------------------------- substitution


def test_substitute_avoids_capture():
    t = P("\\x (x) y")
    out = substitute(t, {"y": Var("x")})
    assert out == P("\\z (z) x")


def test_substitute_simultaneous_swap():
    t = P("(x) y")
    out = substitute(t, {"x": Var("y"), "y": Var("x")})
    assert out == P("(y) x")


def test_substitute_respects_shadowing():
    t = P("\\x (x) y")
    assert substitute(t, {"x": Var("z")}) == t


def test_substitute_noop_returns_same_object():
    t = P("\\x (x) y")
    assert substitute(t, {"q": Var("z")}) is t
    assert substitute(t, {}) is t


def test_substitute_into_nested_binders():
    t = P("\\x \\y (x) (y) z")
    out = substitute(t, {"z": App(Var("x"), Var("y"))})
    assert out == P("\\a \\b (a) (b) (x) y")


def test_substitute_into_a_body_100000_deep():
    body = church(100_000).body.body
    limit = sys.getrecursionlimit()
    out = deep(substitute, body, {"x": Var("y")})
    assert deep(Abs("y", Abs("f", out)).__eq__, church(100_000))
    assert sys.getrecursionlimit() == limit


def _reference_subst(t, m):
    """Simultaneous substitution by the rule substitute followed before it
    ran on the kernel's walk: a binder that would capture is primed until it
    avoids every value's free names, the body's and the keys."""
    if not (t.fv & m.keys()):
        return t
    if type(t) is Var:
        return m.get(t.name, t)
    if type(t) is App:
        return App(_reference_subst(t.fn, m), _reference_subst(t.arg, m))
    body = t.body
    live = {k: v for k, v in m.items() if k != t.binder and k in body.fv}
    if not live:
        return t
    captured = set()
    for v in live.values():
        captured |= v.fv
    if t.binder in captured:
        new_binder = fresh_name(t.binder, captured | body.fv | set(live))
        live[t.binder] = Var(new_binder)
        return Abs(new_binder, _reference_subst(body, live))
    return Abs(t.binder, _reference_subst(body, live))


def test_substitute_agrees_with_a_reference_substitution_on_seeded_terms():
    # keys, inner binders and the values' free names all come from one pool
    # of names, primed ones included, so values collide with the binders they
    # pass under, a primed binder with the body's free names, and values with
    # the keys themselves; some maps swap two keys or map keys to themselves,
    # and one seed in eight has no key free
    names = ["x", "y", "z", "x'", "y'"]
    for seed in range(300):
        rng = random.Random(seed)
        t = random_term(rng, depth=6, scope=names)
        while len(t.fv) < 2:
            t = random_term(rng, depth=6, scope=names)
        pool = sorted(t.fv) if seed % 8 else sorted(set(names) - t.fv) or ["q"]
        keys = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
        m = {k: random_term(rng, depth=3, scope=names) for k in keys}
        if seed % 4 == 1:
            m[keys[0]] = Var(keys[0])
        elif seed % 4 == 2 and len(keys) > 1:
            m[keys[0]], m[keys[1]] = Var(keys[1]), Var(keys[0])
        elif seed % 4 == 3:
            m = {k: Var(k) for k in keys}
        got = substitute(t, m)
        assert got == _reference_subst(t, m)
        if seed % 4 == 3:
            assert got == t
        if not (t.fv & m.keys()):
            assert got is t
    t = P("\\y (x) (y) z")
    assert substitute(t, {"x": Var("z"), "z": Var("x")}) == P("\\y (z) (y) x")
    assert substitute(t, {"x": Var("x"), "z": Var("z")}) == t
    assert substitute(t, {"x": Var("y"), "z": Var("x")}) == P("\\w (y) (w) x")
    assert substitute(t, {"y": Var("x"), "q": Var("x")}) is t


@pytest.mark.parametrize(
    "walker, call",
    [
        ("_subst1", lambda: substitute(P("(x) z"), {"x": Var("y")})),
        ("_match", lambda: match_holes(P("x"), P("y"), {"x"})),
    ],
    ids=["substitute", "match_holes"],
)
def test_recursion_limit_lifted_while_walking_and_restored_on_error(walker, call, monkeypatch):
    seen = []

    def broken(*args):
        seen.append(sys.getrecursionlimit())
        raise RuntimeError("walk broke")

    monkeypatch.setattr(terms, walker, broken)
    limit = sys.getrecursionlimit()
    with pytest.raises(RuntimeError, match="walk broke"):
        call()
    assert seen == [_DEEP]
    assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------- numerals


def test_church_numeral_roundtrip():
    for n in range(11):
        assert numeral_of(church(n)) == n


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_church_builds_with_the_collector_paused_and_restores_it(collecting):
    started = []  # the generation of each collection that started

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    gc.callbacks.append(hook)
    try:
        t = church(100_000)
        after = gc.isenabled()
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if before else gc.disable)()
    assert started == []
    assert after is collecting
    assert numeral_of(t) == 100_000


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_interned_numeral_builds_with_the_collector_paused_and_restores_it(collecting):
    # a parse into an intern table builds @church:N through the table's
    # makers, under the guard church builds under
    table: dict = {}
    var, lam, app = terms._term_makers(table)
    seen = set()

    def watched(a, b):
        seen.add((gc.isenabled(), sys.getrecursionlimit()))
        return app(a, b)

    table[terms._term_makers] = (var, lam, watched)
    before, limit = gc.isenabled(), sys.getrecursionlimit()
    (gc.enable if collecting else gc.disable)()
    try:
        t = parse_term("(@church:100000) y", table=table)
        after = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    # the application of the numeral to y is built after the guard is left
    assert seen == {(False, _DEEP), (collecting, limit)}
    assert after is collecting and sys.getrecursionlimit() == limit
    assert numeral_of(t.fn) == 100_000 and t.fn is parse_term("@church:100000", table=table)


def test_numeral_of_is_structural():
    assert numeral_of(P("\\x f (x) f")) is None
    assert numeral_of(P("\\x x")) is None
    # applying succ without normalizing is not a numeral yet
    succ = P("\\n x f (f) (n) x f")
    assert numeral_of(App(succ, church(1))) is None


def test_numeral_of_same_binder_names():
    # \x\x x is alpha-equal to \a\b b, which is not any numeral
    assert numeral_of(P("\\x \\x x")) is None


def test_fresh_name():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x'"
    assert fresh_name("x", {"x", "x'"}) == "x''"


# ---------------------------------------------------------------- matching


def test_match_holes_simple():
    pat = P("(f) H")
    t = P("(f) (s) z")
    assert match_holes(pat, t, {"H"}) == {"H": P("(s) z")}


def test_match_holes_two_occurrences_consistent():
    pat = App(Var("H"), Var("H"))
    t = P("(\\a a) \\b b")
    got = match_holes(pat, t, {"H"})
    assert got == {"H": P("\\a a")}
    t2 = P("(\\a a) \\b (b) b")
    assert match_holes(pat, t2, {"H"}) is None


def test_match_holes_rejects_escaping_binder():
    pat = Abs("x", Var("H"))
    t = P("\\x (x) x")
    assert match_holes(pat, t, {"H"}) is None
    t2 = P("\\x (y) y")
    assert match_holes(pat, t2, {"H"}) == {"H": P("(y) y")}


def test_match_holes_binder_shadows_hole():
    pat = Abs("H", Var("H"))
    assert match_holes(pat, P("\\q q"), {"H"}) == {}
    assert match_holes(pat, P("\\q (q) q"), {"H"}) is None


def test_match_holes_structure_mismatch():
    pat = App(Var("H"), Var("z"))
    assert match_holes(pat, P("\\x x"), {"H"}) is None
    assert match_holes(pat, P("(a) w"), {"H"}) is None


def test_match_holes_on_a_body_100000_deep():
    with collector_paused():
        pat = church(100_000).body.body
        t = App(Var("g"), Var("z"))
        for _ in range(100_000):
            t = App(Var("f"), t)
    limit = sys.getrecursionlimit()
    assert deep(match_holes, pat, t, {"x"}) == {"x": P("(g) z")}
    assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------- misc



def test_equality_and_hash_at_depth_100000():
    # == and hash walk an explicit stack; recursion broke at church(30000)
    a, b, shorter = church(100_000), church(100_000), church(99_999)
    start = time.perf_counter()
    equal, unequal = deep(operator.eq, a, b), deep(operator.ne, a, shorter)
    same_hash = deep(hash, a) == deep(hash, b)
    elapsed = time.perf_counter() - start
    assert equal and unequal and same_hash
    assert elapsed < 5.0


def test_lockstep_equality_agrees_with_nameless_forms_on_the_seeded_pools():
    # the pools of test_equality_relation_fingerprint[terms], each member
    # also against an alpha-variant and under binders of either name
    for seed in range(10):
        rng = random.Random(seed)
        pool = [random_term(rng) for _ in range(120)]
        for i, a in enumerate(pool):
            for b in pool[i:]:
                assert (a == b) == (_nameless(a) == _nameless(b)) == (b == a)
            assert a == _alpha_variant(a)
            for x, y in (("x", "y"), ("a", "x"), ("x", "x")):
                u, v = Abs(x, a), Abs(y, a)  # one body, two binders
                assert (u == v) == (_nameless(u) == _nameless(v))


def test_lockstep_equality_of_one_node_under_two_bindings():
    n = P("(x) y")
    assert not _alpha_eq(Abs("x", Abs("y", n)), Abs("y", Abs("x", n)))
    assert _alpha_eq(Abs("x", Abs("y", n)), Abs("x", Abs("y", n)))
    assert not _alpha_eq(Abs("x", n), n) and not _alpha_eq(Abs("x", n), Abs("z", n))
    # shared below binders that the two sides name apart: equal exactly when
    # the shared node's free names resolve to the same binders
    m = P("(a) b")
    assert _alpha_eq(Abs("x", App(Var("x"), m)), Abs("y", App(Var("y"), m)))
    assert not _alpha_eq(Abs("a", App(Var("a"), m)), Abs("y", App(Var("y"), m)))


def test_lockstep_equality_at_depth_100000():
    a, b, shorter = church(100_000), church(100_000), church(99_999)
    assert deep(_alpha_eq, a, b)
    assert not deep(_alpha_eq, a, shorter)


def _chain(node, layers, last):
    # (node) (node) ... last, one shared node at every layer
    t = last
    for _ in range(layers):
        t = App(node, t)
    return t


def test_equality_down_a_chain_of_one_shared_closed_node_at_depth_100000():
    s = P("\\n x f (f) ((n) x) f")
    with collector_paused():
        a, b = _chain(s, 100_000, church(0)), _chain(s, 100_000, church(0))
        c = _chain(s, 100_000, P("\\x f f"))
    assert deep(_alpha_eq, a, b) and deep(_alpha_eq, b, a)
    assert not deep(_alpha_eq, a, c) and not deep(_alpha_eq, c, a)
    # the chain may end on a node both sides share, or on different shapes
    assert deep(_alpha_eq, App(s, a), App(s, a))
    assert not deep(_alpha_eq, App(s, a), App(s, s)) and not _alpha_eq(App(s, a), a)


def test_a_shared_function_node_with_a_free_variable_is_not_skipped():
    # h is one node on both sides, but its z is bound on one side only
    h, a = P("(z) c"), Var("a")
    assert not _alpha_eq(Abs("z", App(h, a)), Abs("y", App(h, a)))
    assert not _alpha_eq(Abs("z", _chain(h, 3, a)), Abs("y", _chain(h, 3, a)))
    assert _alpha_eq(Abs("z", _chain(h, 3, a)), Abs("z", _chain(h, 3, a)))
    # below a shared closed node, the chain's binders are still compared
    s = P("\\x x")
    assert not _alpha_eq(_chain(s, 2, Abs("z", App(h, a))), _chain(s, 2, Abs("y", App(h, a))))


def test_term_size():
    assert term_size(Var("x")) == 1
    assert term_size(P("\\x f x")) == 3
    assert term_size(P("(x) y")) == 3


# ---------------------------------------------------------------- properties

_names = st.sampled_from(["a", "b", "c", "x", "y", "z"])
_terms = st.deferred(
    lambda: st.one_of(
        _names.map(Var),
        st.tuples(_names, _terms).map(lambda p: Abs(p[0], p[1])),
        st.tuples(_terms, _terms).map(lambda p: App(p[0], p[1])),
    )
)


def _alpha_variant(t, env=None, counter=None):
    env = {} if env is None else env
    counter = itertools.count() if counter is None else counter
    if type(t) is Var:
        return Var(env.get(t.name, t.name))
    if type(t) is App:
        return App(
            _alpha_variant(t.fn, env, counter), _alpha_variant(t.arg, env, counter)
        )
    nb = f"v{next(counter)}"
    inner = dict(env)
    inner[t.binder] = nb
    return Abs(nb, _alpha_variant(t.body, inner, counter))


def _nameless(t, env=None, depth=0):
    """t as nested tuples: a bound variable is the depth of its binder (an
    int), a free one its name (a str)."""
    env = {} if env is None else env
    if type(t) is Var:
        return env.get(t.name, t.name)
    if type(t) is App:
        return (_nameless(t.fn, env, depth), _nameless(t.arg, env, depth))
    return ("abs", _nameless(t.body, {**env, t.binder: depth}, depth + 1))


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_prop_print_parse_roundtrip(t):
    assert parse_term(print_term(t)) == t


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_prop_alpha_variant_is_equal_and_hashes_alike(t):
    u = _alpha_variant(t)
    assert t == u
    assert hash(t) == hash(u)


@settings(max_examples=100, deadline=None)
@given(_terms)
def test_prop_fv_matches_printed_free_occurrences(t):
    # substituting every free variable by itself is the identity object-wise
    assert substitute(t, {v: Var(v) for v in t.fv}) == t


def test_generator_smoke():
    rng = random.Random(7)
    for _ in range(50):
        t = random_term(rng, depth=5)
        assert parse_term(print_term(t)) == t
