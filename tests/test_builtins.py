from storop.builtins import BUILTINS
from storop.reduction import head_reduce, normalize
from storop.terms import App, Var, church, numeral_of, parse_term, print_term


def parse(src):
    """src read with every builtin available as an @reference."""
    return parse_term(src, BUILTINS)


def test_table_contents():
    for name in ["zero", "succ", "delta", "G", "F", "T1", "T2", "T", "Tp", "T_2", "Tp_2", "omega", "theta0"]:
        assert name in BUILTINS
        assert BUILTINS[name].fv == frozenset(), name


def test_zero_is_church_zero():
    assert BUILTINS["zero"] == church(0)


def test_printed_forms_are_stable():
    assert print_term(BUILTINS["zero"]) == "\\x f x"
    assert print_term(BUILTINS["succ"]) == "\\n x f (f) (n) x f"
    assert print_term(BUILTINS["delta"]) == "\\f (f) \\x f x"


def test_builtins_roundtrip_through_printer():
    for name, t in BUILTINS.items():
        assert parse_term(print_term(t)) == t, name


def test_succ_computes_successor():
    for n in range(6):
        out = normalize(App(BUILTINS["succ"], church(n)))
        assert numeral_of(out.result) == n + 1


def test_succ_tower():
    t = church(0)
    for _ in range(4):
        t = App(BUILTINS["succ"], t)
    assert normalize(t).result == church(4)


def test_delta_feeds_zero():
    out = normalize(App(BUILTINS["delta"], Var("g")))
    assert out.result == parse("(g) \\x f x")


def test_G_unfolds():
    # ((G) a) b head-reduces to (a) \z (b) ((succ) z) in two steps
    out = head_reduce(parse("((@G) a) b"))
    assert out.steps == 2
    assert out.result == parse("(a) \\z (b) (@succ) z")


def test_F_unfolds():
    out = head_reduce(parse("((@F) a) b"))
    assert out.steps == 2
    assert out.result == parse("(a) (@succ) b")


def test_theta0_discards_then_returns_stored_argument():
    out = normalize(parse("((@theta0) a) b"))
    assert out.result == parse("\\z (a) z")


def test_T1_on_zero_yields_delta():
    # (T1) zero -> ((zero) delta) G -> ... -> delta: zero G-iterations on delta
    out = head_reduce(parse("(@T1) @church:0"))
    assert out.steps == 3
    assert out.result == BUILTINS["delta"]


def test_storage_end_to_end_T():
    # (T) n f head-reduces to (f) tau with tau normalizing to the numeral
    for n in range(4):
        out = head_reduce(parse(f"((@T) @church:{n}) f"))
        assert out.completed
        res = out.result
        assert type(res) is App and res.fn == Var("f")
        assert numeral_of(normalize(res.arg).result) == n


def test_storage_end_to_end_Tp():
    for n in range(4):
        out = head_reduce(parse(f"((@Tp) @church:{n}) f"))
        assert out.completed
        res = out.result
        assert type(res) is App and res.fn == Var("f")
        assert numeral_of(normalize(res.arg).result) == n


def test_storage_end_to_end_T_2():
    for n in range(4):
        out = head_reduce(parse(f"((@T_2) @church:{n}) f"))
        assert out.completed
        res = out.result
        assert type(res) is App and res.fn == Var("f")
        assert numeral_of(normalize(res.arg).result) == n


def test_parse_helper_uses_table():
    assert parse("@T1") == BUILTINS["T1"]
