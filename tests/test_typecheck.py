import itertools
import random
import re
import sys
import time
from collections import Counter
from importlib import resources

import pytest

from deep import collector_paused, deep
from genformulas import (
    BOT_NAMES,
    FO_NAMES,
    PRED_NAMES,
    alpha_variant,
    random_foterm,
    random_formula,
)
import reader_reference as reference
from storop.formulas import (
    Arrow,
    Bot,
    BotVarApp,
    FoApp,
    FormulaError,
    FoVar,
    ForallBot,
    ForallFo,
    ForallPred,
    PredAbstraction,
    PredVarApp,
    Quantifier,
    instantiate,
    is_bot_type,
    n_star_type,
    n_type,
    neg,
    parse_equations,
    parse_formula,
    print_formula,
    subst_bot,
    subst_fo,
    subst_pred,
)
from storop import typecheck
from storop.terms import Abs, App, Var
from storop.typecheck import (
    Context,
    Derivation,
    check_derivation,
    forget_derivation,
    lift_star_to_bot,
    read_derivation,
    write_derivation,
)
from storop.prebuilt import build_prebuilt, load_prebuilt, prebuilt_names


def F(src):
    return parse_formula(src)


def test_context_basics():
    c = Context().extended("x", F("A")).extended("y", F("bot"))
    assert c.lookup("x") == F("A")
    assert c.lookup("z") is None
    assert c.names() == ("x", "y")
    assert len(c) == 2


def test_context_rejects_duplicates():
    c = Context().extended("x", F("A"))
    with pytest.raises(ValueError):
        c.extended("x", F("B"))


def test_context_equality_is_order_sensitive():
    a = Context((("x", F("A")), ("y", F("B"))))
    b = Context((("y", F("B")), ("x", F("A"))))
    assert a != b
    assert a == Context((("x", F("A")), ("y", F("B"))))


# a tiny correct derivation: x : A |- \y (x) y ... keep simpler: identity


def identity_derivation(a_src="A"):
    a = F(a_src)
    c1 = Context().extended("x", a)
    leaf = Derivation("ax", c1, Var("x"), a)
    return Derivation("abs", Context(), Abs("x", Var("x")), Arrow(a, a), None, (leaf,))


def test_identity_checks():
    rep = check_derivation(identity_derivation())
    assert rep.ok
    assert rep.failures == []
    assert rep.first_message() == ""


def test_apply_node_checks():
    a, b = F("A"), F("B")
    ctx = Context().extended("f", Arrow(a, b)).extended("u", a)
    df = Derivation("ax", ctx, Var("f"), Arrow(a, b))
    du = Derivation("ax", ctx, Var("u"), a)
    d = Derivation("app", ctx, App(Var("f"), Var("u")), b, None, (df, du))
    assert check_derivation(d).ok


def test_ax_failures():
    a = F("A")
    ctx = Context().extended("x", a)
    bad_name = Derivation("ax", ctx, Var("y"), a)
    rep = check_derivation(bad_name)
    assert not rep.ok and "not in the context" in rep.first_message()

    bad_type = Derivation("ax", ctx, Var("x"), F("B"))
    assert "context gives" in check_derivation(bad_type).first_message()

    bad_subject = Derivation("ax", ctx, Abs("z", Var("z")), a)
    assert "must be a variable" in check_derivation(bad_subject).first_message()


def test_unknown_rule_and_arity():
    d = identity_derivation()
    bad = Derivation("cut", d.ctx, d.term, d.type, None, d.premises)
    assert "unknown rule" in check_derivation(bad).first_message()

    no_premise = Derivation("abs", d.ctx, d.term, d.type, None, ())
    assert "expects 1 premises" in check_derivation(no_premise).first_message()


def test_abs_failures():
    a = F("A")
    good = identity_derivation()

    not_arrow = Derivation("abs", Context(), good.term, a, None, good.premises)
    assert "must be an arrow" in check_derivation(not_arrow).first_message()

    # duplicate binder names cannot even form a context
    shadow_ctx = Context().extended("x", F("B"))
    with pytest.raises(ValueError):
        shadow_ctx.extended("x", a)

    wrong_ctx = Derivation(
        "abs",
        Context(),
        Abs("x", Var("x")),
        Arrow(a, a),
        None,
        (Derivation("ax", Context().extended("y", a), Var("y"), a),),
    )
    rep = check_derivation(wrong_ctx)
    assert not rep.ok
    # the premise subject y is fine for its own context, the abs node is at fault
    assert rep.failures[0][0] == ()

    wrong_body = Derivation(
        "abs",
        Context(),
        Abs("x", Var("x")),
        Arrow(a, a),
        None,
        (Derivation("ax", Context().extended("x", a), Var("x''"), a),),
    )
    assert not check_derivation(wrong_body).ok


def test_app_failures():
    a, b = F("A"), F("B")
    ctx = Context().extended("f", Arrow(a, b)).extended("u", b)
    df = Derivation("ax", ctx, Var("f"), Arrow(a, b))
    du = Derivation("ax", ctx, Var("u"), b)
    d = Derivation("app", ctx, App(Var("f"), Var("u")), b, None, (df, du))
    rep = check_derivation(d)
    assert not rep.ok and "argument type" in rep.first_message()

    d2 = Derivation("app", ctx, App(Var("f"), Var("u")), a, None, (df, Derivation("ax", ctx, Var("u"), b)))
    assert not check_derivation(d2).ok


def test_gen_fo_freshness():
    a = n_type(FoVar("x"))
    ctx = Context().extended("v", a)
    leaf = Derivation("ax", ctx, Var("v"), a)
    d = Derivation("gen-fo", ctx, Var("v"), ForallFo("x", a), None, (leaf,))
    rep = check_derivation(d)
    assert not rep.ok
    assert "occurs free in the context" in rep.first_message()

    # a different variable is fine
    d2 = Derivation("gen-fo", ctx, Var("v"), ForallFo("z", a), None, (leaf,))
    assert check_derivation(d2).ok


def test_inst_fo_checks_the_conclusion():
    a = ForallFo("x", n_type(FoVar("x")))
    ctx = Context().extended("v", a)
    leaf = Derivation("ax", ctx, Var("v"), a)
    good = Derivation("inst-fo", ctx, Var("v"), n_type(FoApp("0")), FoApp("0"), (leaf,))
    assert check_derivation(good).ok

    wrong = Derivation("inst-fo", ctx, Var("v"), n_type(FoApp("s", (FoApp("0"),))), FoApp("0"), (leaf,))
    assert "instantiation yields" in check_derivation(wrong).first_message()

    no_witness = Derivation("inst-fo", ctx, Var("v"), n_type(FoApp("0")), None, (leaf,))
    assert "witness" in check_derivation(no_witness).first_message()


def test_gen_pred_freshness():
    a = F("X -> X")
    ctx = Context().extended("v", a)
    leaf = Derivation("ax", ctx, Var("v"), a)
    d = Derivation("gen-pred", ctx, Var("v"), ForallPred("X", a), None, (leaf,))
    assert "occurs free" in check_derivation(d).first_message()


def test_inst_pred_arity_mismatch_is_reported():
    a = ForallPred("X", F("X -> X"))
    ctx = Context().extended("v", a)
    leaf = Derivation("ax", ctx, Var("v"), a)
    unary = PredAbstraction(("w",), PredVarApp("Y", (FoVar("w"),)))
    d = Derivation("inst-pred", ctx, Var("v"), F("Y -> Y"), unary, (leaf,))
    rep = check_derivation(d)
    assert not rep.ok


def test_inst_pred_renames_nested_binders_apart():
    # opening X at Y primes the outer Y to Y'; the inner Y' must then move too
    a = F("!X !Y (X -> !Y' (Y -> Y'))")
    ctx = Context().extended("v", a)
    leaf = Derivation("ax", ctx, Var("v"), a)
    w = PredAbstraction((), F("Y"))
    right = Derivation("inst-pred", ctx, Var("v"), F("!Z (Y -> !W (Z -> W))"), w, (leaf,))
    wrong = Derivation("inst-pred", ctx, Var("v"), F("!Z (Y -> !W (W -> W))"), w, (leaf,))
    assert check_derivation(right).ok
    assert "instantiation yields" in check_derivation(wrong).first_message()


INST_RULES = ("inst-fo", "inst-pred", "inst-bot")  # by the quantifier's namespace


def inst_node(rule, q, stated, w):
    """One inst node that opens q at w, stating stated, over an axiom for q."""
    ctx = Context().extended("u", q)
    leaf = Derivation("ax", ctx, Var("u"), q)
    return Derivation(rule, ctx, Var("u"), stated, w, (leaf,))


def _size(a):
    kids = (a.left, a.right) if type(a) is Arrow else (a.body,) if isinstance(a, Quantifier) else ()
    return 1 + sum(map(_size, kids))


# what a mutated node becomes
_MUTATIONS = (
    lambda x: Arrow(x, x),
    lambda x: Bot(),
    neg,
    lambda x: ForallFo("x", x),
    lambda x: PredVarApp("X"),
)


def mutant(a, rng):
    """a with one node, drawn at random, replaced by a node built from it."""
    target, mutate, count = rng.randrange(_size(a)), rng.choice(_MUTATIONS), itertools.count()

    def rebuild(x):
        if next(count) == target:
            return mutate(x)
        if type(x) is Arrow:
            return Arrow(rebuild(x.left), rebuild(x.right))
        if isinstance(x, Quantifier):
            return type(x)(x.var, rebuild(x.body))
        return x

    return rebuild(a)


def random_opening(rng, ns):
    """A random quantifier of namespace ns and a witness for its variable."""
    body = random_formula(rng, depth=4, allow_bot_vars=True)
    if ns == 0:
        return ForallFo(rng.choice(FO_NAMES), body), random_foterm(rng)
    inner = random_formula(rng, depth=3, allow_bot_vars=True)
    if ns == 2 and not is_bot_type(inner):
        inner = neg(inner)
    w = PredAbstraction(tuple(rng.sample(FO_NAMES, rng.randint(0, 2))), inner)
    if ns == 1:
        return ForallPred(rng.choice(PRED_NAMES), body), w
    return ForallBot(rng.choice(BOT_NAMES), body), w


def test_inst_check_agrees_with_instantiate():
    """On one inst node, the checker's verdict and message are those of
    instantiate(q, w) compared with the stated type by ==, and of
    instantiate's error at a wrong arity. The names come from pools of two
    or three, so capture and shadowing are common."""
    rng = random.Random(1717)
    seen = Counter()
    for i in range(9000):
        ns = i % 3
        q, w = random_opening(rng, ns)
        try:
            expect = instantiate(q, w)
        except FormulaError as exc:
            stated, want, outcome = q.body, str(exc), "arity"
        else:
            how = rng.randrange(3)
            if how == 0:
                stated = expect
            elif how == 1:
                stated = alpha_variant(expect, {}, itertools.count())
            else:
                stated = mutant(expect, rng)
            if stated == expect:
                want, outcome = None, "equal"
            else:
                want, outcome = f"instantiation yields {print_formula(expect)}", "unequal"
        report = check_derivation(inst_node(INST_RULES[ns], q, stated, w))
        assert report.failures == ([] if want is None else [((), want)]), (q, w, stated)
        seen[ns, outcome] += 1
    assert all(seen[ns, o] > 300 for ns in range(3) for o in ("equal", "unequal")), seen
    assert seen[1, "arity"] > 300 and seen[2, "arity"] > 300, seen


def test_bot_rules_and_fragments():
    d = build_prebuilt("t2_fperp")
    assert check_derivation(d).ok
    assert check_derivation(d, fragment="fperp").ok
    rep = check_derivation(d, fragment="af2")
    assert not rep.ok
    assert "not part of the af2 fragment" in rep.first_message()

    with pytest.raises(ValueError):
        check_derivation(d, fragment="af3")


def test_inst_bot_requires_bottomed_witness_body():
    d = build_prebuilt("t2_fperp")

    def find(node, rule):
        if node.rule == rule:
            return node
        for p in node.premises:
            got = find(p, rule)
            if got is not None:
                return got
        return None

    node = find(d, "inst-bot")
    assert node is not None
    bad_witness = PredAbstraction((), n_type(None))
    bad = Derivation(node.rule, node.ctx, node.term, node.type, bad_witness, node.premises)
    rep = check_derivation(bad)
    assert not rep.ok
    assert any("bottomed type" in m for _, m in rep.failures)


def test_fperp_rejects_first_order_content():
    d = build_prebuilt("succ")
    rep = check_derivation(d, fragment="fperp")
    assert not rep.ok
    msgs = " ".join(m for _, m in rep.failures)
    assert "propositional fragment" in msgs


def test_eq_rule():
    eqs = parse_equations("ps: p(s(x)) = x")
    ty = n_type(FoApp("p", (FoApp("s", (FoVar("y"),)),)))
    ctx = Context().extended("v", ty)
    leaf = Derivation("ax", ctx, Var("v"), ty)
    good = Derivation("eq", ctx, Var("v"), n_type(FoVar("y")), (("ps", "lr", (0, 1, 1, 0)),), (leaf,))
    assert check_derivation(good, equations=eqs).ok

    rep = check_derivation(good)
    assert "no equations are in scope" in rep.first_message()

    missing = Derivation("eq", ctx, Var("v"), n_type(FoVar("y")), (("nope", "lr", (0,)),), (leaf,))
    assert "no equation named" in check_derivation(missing, equations=eqs).first_message()

    bad_path = Derivation("eq", ctx, Var("v"), n_type(FoVar("y")), (("ps", "lr", (0, 1)),), (leaf,))
    assert not check_derivation(bad_path, equations=eqs).ok

    empty = Derivation("eq", ctx, Var("v"), n_type(FoVar("y")), (), (leaf,))
    assert "non-empty" in check_derivation(empty, equations=eqs).first_message()

    wrong_goal = Derivation("eq", ctx, Var("v"), n_type(FoVar("z")), (("ps", "lr", (0, 1, 1, 0)),), (leaf,))
    assert "rewrites yield" in check_derivation(wrong_goal, equations=eqs).first_message()


def test_failures_are_premises_first():
    # break a leaf deep inside; the first reported failure must sit at that leaf
    d = build_prebuilt("succ")

    def first_leaf_path(node, path=()):
        if not node.premises:
            return path
        return first_leaf_path(node.premises[0], path + (0,))

    target = first_leaf_path(d)

    def rebuild(node, path):
        if not path:
            return Derivation(node.rule, node.ctx, node.term, Arrow(node.type, node.type), node.witness, node.premises)
        i = path[0]
        ps = list(node.premises)
        ps[i] = rebuild(ps[i], path[1:])
        return Derivation(node.rule, node.ctx, node.term, node.type, node.witness, tuple(ps))

    rep = check_derivation(rebuild(d, target))
    assert not rep.ok
    assert rep.failures[0][0] == target


# serialization


def test_write_read_roundtrip_small():
    d = identity_derivation()
    txt = write_derivation(d)
    d2 = read_derivation(txt)
    assert d2 == d
    assert write_derivation(d2) == txt


def test_read_rejects_malformed_input():
    with pytest.raises(ValueError):
        read_derivation("(rule ax (ctx) (term \"x\")")
    with pytest.raises(ValueError):
        read_derivation('(rule ax (ctx) (term "x") (type "A")) (rule ax (ctx) (term "x") (type "A"))')
    with pytest.raises(ValueError):
        read_derivation('(rule ax (ctx) (term "x"))')
    with pytest.raises(ValueError):
        read_derivation('(rule ax (ctx) (term "x) (type "A"))')
    with pytest.raises(ValueError):
        read_derivation('(banana ax (ctx) (term "x") (type "A"))')
    with pytest.raises(ValueError):
        read_derivation('(rule ax (ctx) (term "x") (type "A") (witness (magic)))')


@pytest.mark.parametrize(
    "src, message",
    [
        ('(rule ax (ctx) (term "x', "unterminated string in derivation file"),
        ('(rule ax (ctx) (term "x\\"))', "unterminated string in derivation file"),
        ('(rule ax (ctx) (term "x") (type "A")))', "unbalanced parentheses"),
        ('(rule ax (ctx) (term "x") (type "A")', "unbalanced parentheses"),
    ],
    ids=["unterminated", "escaped-quote", "extra-close", "unclosed"],
)
def test_read_errors_keep_their_messages(src, message):
    with pytest.raises(ValueError) as exc:
        read_derivation(src)
    assert str(exc.value) == message


def test_read_rejects_many_escaped_quotes_after_a_bare_one_quickly():
    # each bare quote starts a string that runs to the end of the text; the
    # reader must raise at the first one, not scan on from every one
    src = '"' + '\\"' * 20_000
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        read_derivation(src)
    assert time.perf_counter() - start < 5.0
    assert str(exc.value) == "unterminated string in derivation file"


def test_read_parses_each_term_text_once(monkeypatch):
    # the reader calls each parser by its module name, once per distinct text
    # of a file: the per-layer counts perfbench reads
    calls = Counter()

    def counted(parse):
        def parse_once(src):
            calls[parse.__name__, src] += 1
            return parse(src)

        return parse_once

    monkeypatch.setattr(typecheck, "parse_formula", counted(typecheck.parse_formula))
    monkeypatch.setattr(typecheck, "parse_term", counted(typecheck.parse_term))
    for name in prebuilt_names():
        calls.clear()
        load_prebuilt(name)
        formulas, terms = section_texts(bundled_text(name))
        assert set(calls.values()) == {1}, name
        assert set(calls) == {("parse_formula", src) for src in formulas} | {
            ("parse_term", src) for src in terms
        }, name
        assert len(formulas) > len({src for src in formulas}), name
    monkeypatch.undo()

    text = write_derivation(identity_chain(5))
    first, second = read_derivation(text), read_derivation(text)
    terms = {id(node.term) for node in derivation_nodes(first) if node.rule != "ax"}
    assert len(terms) == 1
    assert first.term == second.term and first.term is not second.term
    # a premise's subject is the very subterm of its conclusion's
    shared = Counter()
    for name in prebuilt_names():
        d = load_prebuilt(name)
        for node in derivation_nodes(d):
            if node.rule == "abs":
                assert node.premises[0].term is node.term.body, name
            elif node.rule == "app":
                pf, pa = node.premises
                assert pf.term is node.term.fn and pa.term is node.term.arg, name
            shared[node.rule] += 1
        again = load_prebuilt(name)
        assert not {id(n.term) for n in derivation_nodes(d)} & {
            id(n.term) for n in derivation_nodes(again)
        }
    assert shared["abs"] and shared["app"]


def bundled_text(name: str) -> str:
    return resources.files("storop").joinpath(f"data/derivations/{name}.deriv").read_text()


def section_texts(text: str) -> tuple[list, list]:
    """The formula texts (context entries, types, abstraction bodies) and the
    term texts of a derivation file, one item per occurrence."""
    formulas, terms = [], []
    stack = reference._sexp_parse(text)
    while stack:
        form = stack.pop()
        if type(form) is not list or not form:
            continue
        head = form[0]
        if head == ("atom", "ctx"):
            formulas += [entry[1][1] for entry in form[1:]]
        elif head in (("atom", "type"), ("atom", "abst")):
            formulas.append(form[-1][1])
        elif head == ("atom", "term"):
            terms.append(form[1][1])
        stack += form
    return formulas, terms


# tokens of a derivation text: a string, a parenthesis or an atom
SEXP_TOKENS = re.compile(r'"(?:[^"\\]|\\.)*"|[()]|[^\s()"]+')


def collapsed(text: str) -> str:
    """text without whitespace between its tokens, but the space two atoms need."""
    out, atom_before = [], False
    for tok in SEXP_TOKENS.findall(text):
        atom = tok[0] not in '"()'
        out.append(" " + tok if atom and atom_before else tok)
        atom_before = atom
    return "".join(out)


def sharing(d: Derivation) -> list:
    """Which of the contexts, subjects, types and their parts, node by node,
    are one object: each as the index of its object's first appearance."""
    first: dict = {}
    out = []
    for node in derivation_nodes(d):
        objects = [node.ctx, *node.ctx.formulas(), node.term, node.type]
        objects += [getattr(node.term, slot, None) for slot in ("fn", "arg", "body")]
        objects += [getattr(node.type, slot, None) for slot in ("left", "right", "body")]
        out += [first.setdefault(id(x), len(first)) for x in objects if x is not None]
    return out


@pytest.mark.parametrize("spacing", ["as-written", "collapsed"])
@pytest.mark.parametrize("name", prebuilt_names())
def test_read_agrees_with_the_two_pass_reference(name, spacing):
    text = bundled_text(name)
    if spacing == "collapsed":
        text = collapsed(text)
        assert len(text) < len(bundled_text(name)) and "\n" not in text
    d, expected = read_derivation(text), reference.read_derivation(text)
    assert d == expected
    assert sharing(d) == sharing(expected)
    for node in derivation_nodes(d):
        if node.rule == "app":
            assert all(p.ctx is node.ctx for p in node.premises)
            assert node.premises[0].term is node.term.fn and node.premises[1].term is node.term.arg
        elif node.rule == "abs":
            assert node.premises[0].term is node.term.body


def read_outcome(read, text: str):
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name, step", [("tp_bot", 97), ("zero", 1), ("one", 1), ("eq_demo", 1)])
def test_a_cut_file_fails_as_in_the_reference(name, step):
    whole = bundled_text(name)
    assert whole.isascii()  # so a cut at a character is a cut at a byte
    failed = 0
    for cut in range(0, len(whole), step):
        text = whole[:cut]
        got, expected = read_outcome(read_derivation, text), read_outcome(reference.read_derivation, text)
        assert got == expected, cut
        failed += type(expected) is tuple
    # only the cut of the final newline leaves a whole derivation
    assert failed == len(range(0, len(whole), step)) - (step == 1)


AX = '(rule ax (ctx) (term "x") (type "A"))'
BAD_TYPE = '(rule ax (ctx) (term "x") (type "(("))'
# texts with more than one fault: which one is reported
MALFORMED = {
    "form-count-over-node": BAD_TYPE + " (extra)",
    "extra-close-over-node": BAD_TYPE + ")",
    "extra-close-before-unterminated": AX + ') "x',
    "unterminated-over-unclosed": '(rule ax (ctx) (term "x',
    "premise-over-header": f"(banana (ctx) (premises {BAD_TYPE}))",
    "premise-over-section": f'(rule ax (ctx) (term "x") (type "A") (bogus) (premises {BAD_TYPE}))',
    "first-premise-over-second": f"(rule app (ctx) (term \"x\") (type \"A\") (premises {BAD_TYPE} (rule)))",
    "premises-in-the-header": f"(rule (premises {BAD_TYPE}))",
    "header-shows-its-premises": f"(rule (premises {AX}))",
    "last-premises-section-only": f'(rule ax (ctx) (term "x") (type "A") (premises {BAD_TYPE}) (premises))',
    "token-as-premise": '(rule ax (ctx) (term "x") (type "A") (premises foo "bar"))',
    "token-as-root": '"(rule ax)"',
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_text_fails_as_in_the_reference(name):
    text = MALFORMED[name]
    expected = read_outcome(reference.read_derivation, text)
    assert type(expected) is tuple
    assert read_outcome(read_derivation, text) == expected


def test_read_cuts_a_long_run_of_trailing_whitespace_at_once():
    # the token pattern scanned trailing whitespace again from each of its
    # characters, in quadratic time: 40,000 spaces took 70 s on a 2-vCPU host
    text = write_derivation(identity_derivation()) + " \t\r\n" * 25_000
    start = time.perf_counter()
    assert read_derivation(text) == identity_derivation()
    assert time.perf_counter() - start < 5.0


REPEATED = {
    "ctx": '(rule ax (ctx (x "A")) (ctx (x "A")) (term "x") (type "A"))',
    "term": '(rule ax (ctx (x "A")) (term "x") (term "x") (type "A"))',
    "type": '(rule ax (ctx (x "A")) (term "x") (type "A") (type "A"))',
    "witness": (
        '(rule inst-fo (ctx (v "!x X(x)")) (term "v") (type "X(y)") (witness (foterm "y"))'
        ' (witness (foterm "y")) (premises (rule ax (ctx (v "!x X(x)")) (term "v") (type "!x X(x)"))))'
    ),
    # the first premises section is wrong, the second right; neither may win
    "premises": (
        '(rule abs (ctx) (term "\\\\y y") (type "Q -> Q")'
        ' (premises (rule ax (ctx) (term "y") (type "Q")))'
        ' (premises (rule ax (ctx (y "Q")) (term "y") (type "Q"))))'
    ),
}


@pytest.mark.parametrize("section", sorted(REPEATED))
def test_read_rejects_a_repeated_section(section):
    src = REPEATED[section]
    with pytest.raises(ValueError, match=f"repeated {section} section"):
        read_derivation(src)
    # kept once, the section reads
    first = src.index(f"({section} ")
    second = src.index(f"({section} ", first + 1)
    assert check_derivation(read_derivation(src[:first] + src[second:])).ok


def test_serialized_strings_are_escaped():
    # backslashes in lambda terms survive the quoting
    d = identity_derivation()
    txt = write_derivation(d)
    assert '"\\\\x x"' in txt


def derivation_nodes(d):
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.premises)


def formula_nodes(d):
    """Every formula node a derivation holds: contexts, types, witness bodies."""
    stack = []
    for node in derivation_nodes(d):
        stack += node.ctx.formulas() + (node.type,)
        if isinstance(node.witness, PredAbstraction):
            stack.append(node.witness.body)
    while stack:
        a = stack.pop()
        yield a
        if type(a) is Arrow:
            stack += (a.left, a.right)
        elif hasattr(a, "body"):
            stack.append(a.body)


@pytest.mark.parametrize("name", prebuilt_names())
def test_read_shares_one_object_per_formula_text(name):
    d = load_prebuilt(name)
    by_text = {}
    for node in derivation_nodes(d):
        for a in node.ctx.formulas() + (node.type,):
            by_text.setdefault(print_formula(a), set()).add(id(a))
    assert all(len(ids) == 1 for ids in by_text.values())
    entries = [a for node in derivation_nodes(d) for a in node.ctx.formulas()]
    if entries:
        assert len({id(a) for a in entries}) < len(entries)


def test_read_shares_quantifier_bodies_with_gen_premises():
    gens = [
        node
        for name in prebuilt_names()
        for node in derivation_nodes(load_prebuilt(name))
        if node.rule.startswith("gen-")
    ]
    assert {node.rule for node in gens} >= {"gen-fo", "gen-pred"}
    assert all(node.premises[0].type is node.type.body for node in gens)


def test_read_keeps_alpha_variants_apart():
    src = '(rule ax (ctx (a "!x X(x)") (b "!y X(y)")) (term "a") (type "!y X(y)"))'
    d = read_derivation(src)
    a, b = d.ctx.lookup("a"), d.ctx.lookup("b")
    assert a == b and a is not b
    assert (print_formula(a), print_formula(b)) == ("!x X(x)", "!y X(y)")
    assert d.type is b
    assert check_derivation(d).ok
    bad = read_derivation(src.replace('(type "!y X(y)")', '(type "!y X(y) -> !x X(x)")'))
    assert check_derivation(bad).first_message() == (
        "at []: context gives a : !x X(x), node says !y X(y) -> !x X(x)"
    )


def test_reads_share_no_formula_node():
    text = write_derivation(load_prebuilt("t2_star"))
    first, second = read_derivation(text), read_derivation(text)
    assert not {id(a) for a in formula_nodes(first)} & {id(a) for a in formula_nodes(second)}


def test_read_shares_one_context_per_equal_context():
    d = load_prebuilt("tp_bot")
    apps = [node for node in derivation_nodes(d) if node.rule == "app"]
    assert len(apps) == 24
    assert all(p.ctx is node.ctx for node in apps for p in node.premises)
    by_entries = {}
    for node in derivation_nodes(d):
        by_entries.setdefault(node.ctx.entries, set()).add(id(node.ctx))
    assert all(len(ids) == 1 for ids in by_entries.values())


def test_reads_share_no_context():
    text = write_derivation(load_prebuilt("tp_bot"))
    first, second = read_derivation(text), read_derivation(text)
    assert first == second
    assert not {id(n.ctx) for n in derivation_nodes(first)} & {
        id(n.ctx) for n in derivation_nodes(second)
    }


# nodes whose premise context, subject or type equals the expected one
# without being the same object: the checker's identity test misses, and
# its == fallback decides


def test_abs_accepts_an_equal_premise_built_apart():
    arrow = Arrow(F("!x X(x)"), F("!y X(y)"))
    ctx = Context((("v", F("bot")),))
    # alpha-variants of the arrow's halves, in a context and subject of their own
    premise_ctx = Context((("v", F("bot")), ("u", F("!z X(z)"))))
    leaf = Derivation("ax", premise_ctx, Var("u"), F("!w X(w)"))
    d = Derivation("abs", ctx, Abs("u", Var("u")), arrow, None, (leaf,))
    assert premise_ctx.entries[0][1] is not ctx.entries[0][1]
    assert leaf.term is not d.term.body
    assert check_derivation(d).ok


def test_app_accepts_equal_premises_built_apart():
    a, b = F("!x X(x)"), F("!y X(y)")
    fn_type = Arrow(a, F("bot"))
    ctx = Context((("f", fn_type), ("u", b)))
    twin = Context((("f", Arrow(F("!z X(z)"), F("bot"))), ("u", F("!w X(w)"))))
    df = Derivation("ax", twin, Var("f"), Arrow(F("!z X(z)"), F("bot")))
    du = Derivation("ax", Context(ctx.entries), Var("u"), F("!w X(w)"))
    d = Derivation("app", ctx, App(Var("f"), Var("u")), F("bot"), None, (df, du))
    assert df.ctx is not ctx and du.ctx is not ctx and du.term is not d.term.arg
    assert check_derivation(d).ok


def test_inst_accepts_an_equal_premise_built_apart():
    q = F("!X (X -> X)")
    w = PredAbstraction((), F("bot"))
    ctx = Context((("u", q),))
    leaf = Derivation("ax", Context((("u", F("!Y (Y -> Y)")),)), Var("u"), F("!Y (Y -> Y)"))
    d = Derivation("inst-pred", ctx, Var("u"), F("bot -> bot"), w, (leaf,))
    assert leaf.ctx is not ctx and leaf.term is not d.term
    assert check_derivation(d).ok


@pytest.mark.parametrize(
    "entry",
    [("y", F("A")), ("x", F("B")), ("x", F("A -> A"))],
    ids=["wrong-name", "wrong-formula", "wrong-arrow-source"],
)
def test_abs_rejects_a_wrong_context_extension(entry):
    message = "at []: premise context must extend the conclusion context with the binder"
    a = F("A")
    ctx = Context((("v", F("bot")),))
    premise_ctx = Context(ctx.entries + (entry,))
    leaf = Derivation("ax", premise_ctx, Var(entry[0]), entry[1])
    d = Derivation("abs", ctx, Abs("x", Var("x")), Arrow(a, a), None, (leaf,))
    assert check_derivation(d).first_message() == message
    # read back, where both contexts are interned
    assert check_derivation(read_derivation(write_derivation(d))).first_message() == message
    # an extension of a context other than the conclusion's is rejected too
    stray = Derivation("ax", Context((("x", a),)), Var("x"), a)
    d = Derivation("abs", ctx, Abs("x", Var("x")), Arrow(a, a), None, (stray,))
    assert check_derivation(d).first_message() == message


# forgetting


def test_forget_collapses_first_order_nodes():
    d = build_prebuilt("succ")
    f = forget_derivation(d)
    assert f.term == d.term
    assert f.type == F("(!X {X, (X -> X) -> X}) -> !X {X, (X -> X) -> X}")
    assert f.node_count() < d.node_count()
    assert check_derivation(f, fragment="fperp").ok

    def rules(node):
        yield node.rule
        for p in node.premises:
            yield from rules(p)

    assert "gen-fo" not in set(rules(f))
    assert "inst-fo" not in set(rules(f))


def test_forget_drops_eq_nodes():
    d = build_prebuilt("eq_demo")
    f = forget_derivation(d)
    assert f.rule == "ax"
    assert f.type == F("!X {X, (X -> X) -> X}")
    assert check_derivation(f, fragment="fperp").ok


def test_forget_commutes_with_checking_on_the_star_derivation():
    d = build_prebuilt("t1_star")
    f = forget_derivation(d)
    assert check_derivation(f, fragment="fperp").ok
    want = F("(!X {~X, (~X -> ~X) -> ~X}) -> ~~(!X {X, (X -> X) -> X})")
    assert f.type == want


# lifting


def test_lift_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        lift_star_to_bot(build_prebuilt("zero"))
    with pytest.raises(ValueError):
        lift_star_to_bot(build_prebuilt("succ"))


def test_lift_produces_the_bottomed_typing():
    from storop.prebuilt import t1_star_derivation

    lifted = lift_star_to_bot(t1_star_derivation())
    rep = check_derivation(lifted)
    assert rep.ok
    want = F(
        "!x ((!X_| {X_|(0), !y (X_|(y) -> X_|(s(y))) -> X_|(x)})"
        " -> ~~(!X {X(0), !y (X(y) -> X(s(y))) -> X(x)}))"
    )
    assert lifted.type == want


# deep derivations: no walker is bounded by the recursion limit

PAIRS = 15_000  # of gen-fo/inst-fo nodes: a chain 30,002 nodes deep


def fo_pairs(core: Derivation, var: str, pairs: int) -> Derivation:
    """core under pairs of inst-fo var over gen-fo var, an inst-fo at the root."""
    gen = ForallFo(var, core.type)
    d = core
    for _ in range(pairs):
        d = Derivation("gen-fo", core.ctx, core.term, gen, None, (d,))
        d = Derivation("inst-fo", core.ctx, core.term, core.type, FoVar(var), (d,))
    return d


def identity_chain(pairs: int) -> Derivation:
    """The identity \\y y : X(x) -> X(x) under pairs of gen-fo x / inst-fo x nodes."""
    a = F("X(x)")
    leaf = Derivation("ax", Context().extended("y", a), Var("y"), a)
    core = Derivation("abs", Context(), Abs("y", Var("y")), Arrow(a, a), None, (leaf,))
    return fo_pairs(core, "x", pairs)


@pytest.fixture(scope="module")
def chain():
    with collector_paused():
        return identity_chain(PAIRS)


def test_count_and_forget_a_chain_30002_nodes_deep(chain):
    assert deep(chain.node_count) == 2 * PAIRS + 2
    forgot = deep(forget_derivation, chain)
    assert forgot == forget_derivation(chain.premises[0].premises[0])
    assert forgot.node_count() == 2
    assert forgot.type == F("X -> X")


def test_equality_and_repr_of_a_chain_30002_nodes_deep(chain):
    # the same chain over an axiom that names a different variable
    a = F("X(x)")
    leaf = Derivation("ax", Context().extended("z", a), Var("z"), a)
    core = Derivation("abs", Context(), Abs("z", Var("z")), Arrow(a, a), None, (leaf,))
    with collector_paused():
        twin, other = identity_chain(PAIRS), fo_pairs(core, "x", PAIRS)
    assert deep(chain.__eq__, twin)
    assert not deep(chain.__eq__, other)
    assert deep(repr, chain) == (
        "Derivation(rule='inst-fo', term=<\\y y>, type=<X(x) -> X(x)>, premises=1)"
    )


def test_lift_above_an_axiom_30000_nodes_deep():
    star = n_star_type(FoVar("x"))
    ctx = Context().extended("nu", star)
    with collector_paused():
        body = fo_pairs(Derivation("ax", ctx, Var("nu"), star), "z", PAIRS)
    absd = Derivation("abs", Context(), Abs("nu", Var("nu")), Arrow(star, star), None, (body,))
    d = Derivation("gen-fo", Context(), absd.term, ForallFo("x", absd.type), None, (absd,))
    lifted = deep(lift_star_to_bot, d)
    # the axiom opens in three nodes: ax, inst-bot, gen-pred
    assert lifted.node_count() == d.node_count() + 2 == 2 * PAIRS + 5
    assert lifted.type == F("!x (N_|[x] -> N*[x])")
    assert deep(check_derivation, lifted).ok


def test_write_read_round_trip_past_a_lowered_recursion_limit():
    limit = 300
    d = identity_chain(limit // 2 + 150)  # 602 nodes
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        text = deep(write_derivation, d)
        back = deep(read_derivation, text)
    finally:
        sys.setrecursionlimit(saved)
    assert back.node_count() == d.node_count() == 602
    assert write_derivation(back) == text


LAYERS = 50_000  # binders, each over an arrow: quantifier bodies 100,000 nodes deep


def binder_chain(binder, atom, layers=LAYERS):
    """!binder (atom(binder) -> !binder (atom(binder) -> ... bot)), layers binders deep."""
    a, v = Bot(), FoVar(binder)
    for _ in range(layers):
        a = ForallFo(binder, Arrow(atom(v), a))
    return a


def primed_chain(atom):
    """The text of binder_chain("y'", ...) whose atoms print as atom."""
    return f"!y' ({atom} -> " * (LAYERS - 1) + f"!y' ~{atom}" + ")" * (LAYERS - 1)


def test_inst_fo_over_a_body_100000_deep():
    # s(y) goes in under 50,000 binders of y, each of which must not capture it
    w = FoApp("s", (FoVar("y"),))
    with collector_paused():
        q = ForallFo("x", binder_chain("y", lambda v: PredVarApp("X", (FoVar("x"), v))))
        opened = binder_chain("z", lambda v: PredVarApp("X", (w, v)))
        wrong = binder_chain("z", lambda v: PredVarApp("X", (v, w)))
    assert deep(check_derivation, inst_node("inst-fo", q, opened, w)).ok
    # a wrong stated type is reported with the instance, its binders primed
    report = deep(check_derivation, inst_node("inst-fo", q, wrong, w))
    assert report.failures == [((), "instantiation yields " + primed_chain("X(s(y), y')"))]


def test_inst_pred_over_a_body_100000_deep():
    # each X(y) opens to ~Z(y', y) with the free y of the witness kept apart
    w = PredAbstraction(("t",), neg(PredVarApp("Z", (FoVar("t"), FoVar("y")))))
    with collector_paused():
        q = ForallPred("X", binder_chain("y", lambda v: PredVarApp("X", (v,))))
        opened = binder_chain("z", lambda v: neg(PredVarApp("Z", (v, FoVar("y")))))
        wrong = binder_chain("z", lambda v: neg(PredVarApp("Z", (FoVar("y"), v))))
    assert deep(check_derivation, inst_node("inst-pred", q, opened, w)).ok
    report = deep(check_derivation, inst_node("inst-pred", q, wrong, w))
    assert report.failures == [((), "instantiation yields " + primed_chain("~Z(y', y)"))]


def numeral_term(depth, base):
    """s(s(...s(base))), depth applications of s."""
    t = base
    for _ in range(depth):
        t = FoApp("s", (t,))
    return t


def test_inst_fo_with_first_order_terms_100000_deep():
    # the witness is brought in under the binder y, which must not capture it
    with collector_paused():
        w = numeral_term(100_000, FoApp("0"))
        arg = numeral_term(100_000, FoVar("x"))
    q = F("!x !y X(x, y)")
    opened = ForallFo("y", PredVarApp("X", (w, FoVar("y"))))
    assert deep(check_derivation, inst_node("inst-fo", q, opened, w)).ok
    # an atom whose argument is deep is opened at a shallow witness
    q = ForallFo("x", PredVarApp("X", (arg,)))
    w = FoApp("0")
    with collector_paused():
        opened = PredVarApp("X", (numeral_term(100_000, w),))
    assert deep(check_derivation, inst_node("inst-fo", q, opened, w)).ok
    report = deep(check_derivation, inst_node("inst-fo", q, PredVarApp("X", (w,)), w))
    assert report.failures == [((), "instantiation yields X(" + "s(" * 100_000 + "0" + ")" * 100_001)]


def test_substitution_over_a_body_100000_deep():
    # every binder y would capture the y brought in, so each is primed to y'
    y, s_y = FoVar("y"), FoApp("s", (FoVar("y"),))
    with collector_paused():
        body = binder_chain("y", lambda v: PredVarApp("X", (FoVar("x"), v)))
    assert print_formula(deep(subst_fo, body, {"x": s_y})) == primed_chain("X(s(y), y')")
    with collector_paused():
        body = binder_chain("y", lambda v: PredVarApp("X", (v,)))
    pred = PredAbstraction(("t",), PredVarApp("Z", (FoVar("t"), y)))
    assert print_formula(deep(subst_pred, body, "X", pred)) == primed_chain("Z(y', y)")
    with collector_paused():
        body = binder_chain("y", lambda v: BotVarApp("X", (v,)))
    bot = PredAbstraction(("t",), BotVarApp("Z", (FoVar("t"), y)))
    assert print_formula(deep(subst_bot, body, "X", bot)) == primed_chain("Z_|(y', y)")
    assert print_formula(deep(instantiate, ForallBot("X", body), bot)) == primed_chain("Z_|(y', y)")


def test_inst_failures_print_each_witness_own_binder():
    # the two witnesses are == but distinct objects; the instance cached on q
    # for the first must not word the failure of the second
    q = F("!X (X -> Z)")
    first, second = PredAbstraction((), F("!y Y(y)")), PredAbstraction((), F("!z Y(z)"))
    assert first == second and first is not second
    for w, text in ((first, "!y Y(y) -> Z"), (second, "!z Y(z) -> Z")):
        report = check_derivation(inst_node("inst-pred", q, F("Z"), w))
        assert report.failures == [((), f"instantiation yields {text}")]
