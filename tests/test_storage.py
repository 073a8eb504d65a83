import dataclasses
import hashlib

import pytest

from storop import storage
from storop.builtins import BUILTINS
from storop.cli import main
from storop.reduction import beta_equiv, head_reduce, normalize
from storop.storage import (
    BAD_HEAD_SHAPE,
    FUEL_EXHAUSTED,
    INDEXED_REUSE,
    OK,
    STEP_BUDGET_EXHAUSTED,
    TAU_NOT_NUMERAL,
    TAU_WRONG_VALUE,
    behavioral_check,
    certify,
    theta_corpus,
)
from storop.terms import (
    Abs,
    App,
    Var,
    church,
    numeral_of,
    parse_term,
    print_term,
    substitute,
)

from genterms import single_node_mutants


def test_registry_freshness():
    # x_0 is free in the operator, so the indexed variable worth 0 is primed
    cert = certify(parse_term("\\v f ((v) (f) x_0) \\y (f) y"), 1)
    assert [(name, level) for name, level, _, _ in cert.registry_terms] == [("x_0'", 0)]
    assert cert.tau == "x_0'"
    assert cert.status == TAU_NOT_NUMERAL


# the ids name T or T' (tp) over T1 or T2, fixed so that test history lines up
@pytest.mark.parametrize(
    "name",
    ["T", "T_2", "Tp", "Tp_2"],
    ids=["t_operator-1", "t_operator-2", "tp_operator-1", "tp_operator-2"],
)
def test_wrapped_operators_certify_small_values(name):
    op = BUILTINS[name]
    for n in range(0, 5):
        cert = certify(op, n)
        assert cert.ok, cert.to_text()
        assert cert.tau_value == cert.n
        # the recorded output really is the numeral
        tau = parse_term(cert.tau)
        assert beta_equiv(tau, church(cert.n)) is True


@pytest.mark.parametrize("name", ["T1", "T2"])
def test_raw_operators_certify_symbolically(name):
    for n in range(0, 4):
        cert = certify(BUILTINS[name], n)
        assert cert.ok
        assert cert.tau_value == cert.n


def test_certify_t_at_one_exact_trace():
    cert = certify(BUILTINS["T"], 1)
    assert cert.ok
    assert len(cert.steps) == 5
    assert cert.total_contractions == 8
    kinds = [s.kind for s in cert.steps]
    assert kinds == ["nu-head", "indexed-head", "nu-head", "indexed-head", "f-terminal"]
    assert cert.tau == "(\\n x f (f) (n) x f) \\x f x"
    assert cert.tau_value == 1


def test_certify_step_counts_grow_linearly():
    certs = [certify(BUILTINS["T"], n) for n in range(0, 5)]
    assert [len(c.steps) for c in certs] == [2 * n + 3 for n in range(0, 5)]
    assert [c.total_contractions for c in certs] == [4 * n + 4 for n in range(0, 5)]


def test_certificate_text_and_replay():
    a = certify(BUILTINS["T"], 2)
    b = certify(BUILTINS["T"], 2)
    assert a == b
    assert a.to_text() == b.to_text()
    text = a.to_text()
    assert "status: ok" in text
    assert "machine-steps: 7" in text
    assert "tau-value: 2" in text
    assert text.count("step ") == 7
    # one registry row per expansion; the wrapper walks the iterator twice
    assert "registry: 4 entries" in text
    assert "x_1 := level=1" in text and "x_0 := level=0" in text
    assert "x_1' := level=1" in text and "x_0' := level=0" in text


def test_printed_states_and_registry_rows():
    cert = certify(BUILTINS["T"], 1)
    assert [print_term(s.term) for s in cert.steps] == [
        "(\\x x) x_0",
        "(\\n ((n) \\f (f) \\x f x) \\x y (x) \\z (y) (\\n x f (f) (n) x f) z) v f",
        "(\\x y (x) \\z (y) (\\n x f (f) (n) x f) z) x_0' f",
        "(\\f (f) \\x f x) \\z (f) (\\n x f (f) (n) x f) z",
        "(f) (\\n x f (f) (n) x f) \\x f x",
    ]
    assert tuple(
        (name, level, print_term(first), print_term(second))
        for name, level, first, second in cert.registry_terms
    ) == (
        (
            "x_0",
            0,
            "(\\n ((n) \\f (f) \\x f x) \\x y (x) \\z (y) (\\n x f (f) (n) x f) z) v f",
            "\\x x",
        ),
        ("x_0'", 0, "\\f (f) \\x f x", "\\x y (x) \\z (y) (\\n x f (f) (n) x f) z"),
    )


# sha256 of the --out text of `certify OP --max-n 40`, recorded before the
# certificate states were printed lazily through a shared cache.
CERTIFICATE_DIGESTS = {
    "@T": "117fc609e29149b2b688b3a0c76e3120cdab6a324c5df696ce96efe6cd4b764f",
    "@T2": "49387ac8556e288b574d22928c6d48bf5b5aecea52eccc589aa0ef410833d8f1",
    "@Tp": "645b209e67fcc2730e0b168ee5c4098ff0b673810fc4c8b3d756374665bb7812",
}


@pytest.mark.parametrize("op", sorted(CERTIFICATE_DIGESTS))
def test_certificate_file_fingerprint(op, tmp_path, capsys):
    path = tmp_path / "certs.txt"
    assert main(["certify", op, "--max-n", "40", "--out", str(path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(path.read_text(encoding="utf-8").encode()).hexdigest()
    assert digest == CERTIFICATE_DIGESTS[op]


def test_certify_rejects_negative_values():
    with pytest.raises(ValueError):
        certify(BUILTINS["T"], -1)
    with pytest.raises(ValueError):
        theta_corpus(-2)


def test_constant_operator_wrong_value():
    op = parse_term("\\v f (f) \\x f x")
    assert certify(op, 0).ok
    cert = certify(op, 1)
    assert cert.status == TAU_WRONG_VALUE
    assert cert.tau_value == 0


def test_underapplied_iterator_is_bad_shape():
    cert = certify(parse_term("\\v f (v) f"), 0)
    assert cert.status == BAD_HEAD_SHAPE
    assert "two arguments" in cert.detail


def test_lambda_headed_state_is_bad_shape():
    # the operator ignores both inputs and returns an abstraction
    cert = certify(parse_term("\\v f \\z z"), 1)
    assert cert.status == BAD_HEAD_SHAPE
    assert "abstraction" in cert.detail


def test_terminal_with_extra_arguments_is_bad_shape():
    cert = certify(parse_term("\\v f ((f) \\x f x) \\x f x"), 0)
    assert cert.status == BAD_HEAD_SHAPE
    assert "exactly one argument" in cert.detail


def test_forwarder_output_is_not_a_numeral():
    cert = certify(parse_term("\\v f (f) v"), 1)
    assert cert.status == TAU_NOT_NUMERAL
    assert "normalizes to" in cert.detail


def test_diverging_operator_exhausts_fuel():
    cert = certify(parse_term("\\v f (\\x (x) x) \\x (x) x"), 0, fuel=500)
    assert cert.status == FUEL_EXHAUSTED


def _peeling(levels):
    # worth 0, ((v) M) f steps to M in one machine step, one level at a time
    body = "(f) x"
    for _ in range(levels):
        body = "((v) " + body + ") f"
    return parse_term("\\v f " + body)


def test_machine_step_budget():
    # at n = 0 the budget is 8 * (0 + 1) + 32 = 40 machine steps
    for levels in (40, 41):
        cert = certify(_peeling(levels), 0)
        assert cert.status == STEP_BUDGET_EXHAUSTED
        assert len(cert.steps) == 40
        assert cert.detail == "more than 40 machine steps"
    # 39 levels and the terminal fit: the free x is then no numeral
    cert = certify(_peeling(39), 0)
    assert cert.status == TAU_NOT_NUMERAL
    assert len(cert.steps) == 40


def test_indexed_variable_reuse_is_detected():
    # worth 1, the second argument duplicates its input: (x) x puts the
    # indexed variable back at the head after it has already been expanded
    op = parse_term("\\v f ((v) \\a (a) \\q q) \\x (x) x")
    cert = certify(op, 1)
    assert cert.status == INDEXED_REUSE
    assert "expanded twice" in cert.detail


def test_symbol_in_output_vanishing_under_normalization():
    src = ("\\v f (((v) \\g w (f) ((\\d (\\n x f (f) ((n) x) f) \\x f x) g))"
           " \\e (e) e) \\x f x")
    op = parse_term(src)
    cert = certify(op, 1)
    assert cert.ok
    assert "x_0" in cert.tau
    assert cert.tau_value == 1
    assert certify(op, 0).status == BAD_HEAD_SHAPE
    assert certify(op, 2).status == BAD_HEAD_SHAPE


def test_theta_corpus_is_verified_and_varied():
    corpus = theta_corpus(3, extra=5, seed=41)
    assert len(corpus) >= 8
    assert corpus[0] == church(3)
    printed = {print_term(t) for t in corpus}
    assert len(printed) >= 6
    for t in corpus:
        assert beta_equiv(t, church(3)) is True


@pytest.mark.parametrize("n", [3, 10, 90])
def test_theta_corpus_prefix_takes_one_term_per_family(n):
    succ = parse_term("\\n x f (f) ((n) x) f")
    ident = parse_term("\\x x")
    numeral, tower, wrap, seeded = theta_corpus(n, limit=4)
    assert numeral == church(n)
    assert tower == App(succ, church(n - 1))
    assert wrap == App(ident, church(n))
    # the first seeded insertion for seed 0
    assert seeded == App(ident, App(Abs("d", church(n)), ident))


def test_theta_corpus_reordering_keeps_the_terms():
    # sha256 of each n's sorted printed corpus, recorded before the families
    # were interleaved: the same terms, from the same seeded draws
    rows = []
    for n in range(0, 7):
        rows.append(" | ".join(sorted(print_term(t) for t in theta_corpus(n, extra=5, seed=41))))
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "68359db8261cb88671d1fae32e164f1cc70bfb1e1630b415b14e8a76a88c1552"


def test_theta_corpus_shares_its_fixed_terms_and_prints_as_before(monkeypatch):
    # sha256 of the corpora for n <= 10 under two seeds, recorded while each
    # call still parsed succ and \x x afresh
    rows = [print_term(t) for seed in (0, 7) for n in range(11) for t in theta_corpus(n, seed=seed)]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "749a32b4732cf47fef7c3ee48d3bddea0d78edef7c8dcc0964b2fcbc213e73f2"
    calls = []
    parse = storage.parse_term
    monkeypatch.setattr(storage, "parse_term", lambda *a: calls.append(a) or parse(*a))
    theta_corpus(10, seed=7)
    assert calls == []


def test_run_records_stay_frozen():
    # the kernel's and the certifier's records are slotted and still frozen
    out = head_reduce(parse_term("(\\x x) y"))
    cert = certify(BUILTINS["T"], 1)
    res = behavioral_check(BUILTINS["T"], church(1), 1)
    for record, field in ((out, "steps"), (cert.steps[0], "args"), (res, "ok")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))


def test_theta_corpus_is_seeded():
    a = [print_term(t) for t in theta_corpus(2, seed=9)]
    b = [print_term(t) for t in theta_corpus(2, seed=9)]
    c = [print_term(t) for t in theta_corpus(2, seed=10)]
    assert a == b
    assert a != c


# theta_corpus builds terms equal to n by construction and normalizes none,
# so this checks it: every corpus the command line draws (--max-n 90, the
# default extra and seed), some larger n, and every (n, extra, seed) the
# tests draw
@pytest.mark.parametrize(
    "ns, extra, seed",
    [(range(91), 4, 0), ((91, 200, 500), 4, 0), (range(7), 5, 41), (range(7), 3, 5)]
    + [(range(7), 4, seed) for seed in (9, 10)],
    ids=["n<=90", "n=91,200,500", "seed41", "seed5", "seed9", "seed10"],
)
def test_every_corpus_term_normalizes_to_its_numeral(ns, extra, seed):
    for n in ns:
        for t in theta_corpus(n, extra=extra, seed=seed):
            out = normalize(t)
            assert out.completed and numeral_of(out.result) == n, (n, print_term(t))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_behavioral_check_matches_certification(n):
    op = BUILTINS["T"]
    taus = set()
    for theta in theta_corpus(n, extra=3, seed=5):
        res = behavioral_check(op, theta, n)
        assert res.ok, res
        assert res.value == n
        taus.add(res.tau)
    # storage means one output shape for every argument shape
    assert len(taus) == 1


def test_forwarding_passes_concretely_but_fails_symbolically():
    # handing the argument through unevaluated still yields the right value
    # on any concrete run; only the symbolic machine sees the difference
    op = parse_term("\\v f (f) v")
    theta = App(parse_term("\\x x"), church(2))
    res = behavioral_check(op, theta, 2)
    assert res.ok and res.value == 2
    assert res.tau == print_term(theta)
    cert = certify(op, 2)
    assert cert.status == TAU_NOT_NUMERAL


def test_behavioral_check_flags_wrong_values():
    op = parse_term("\\v f (f) \\x f x")
    res = behavioral_check(op, church(2), 2)
    assert not res.ok and res.status == TAU_WRONG_VALUE and res.value == 0


def test_behavioral_check_fuel():
    res = behavioral_check(parse_term("\\v f (\\x (x) x) \\x (x) x"), church(1), 1, fuel=300)
    assert not res.ok and res.status == FUEL_EXHAUSTED


@pytest.mark.parametrize("src", ["\\v f v", "\\v f (f) v v"])
def test_behavioral_check_needs_f_with_exactly_one_argument(src):
    # one run never reaches f, the other hands it two arguments
    res = behavioral_check(parse_term(src), church(1), 1)
    assert not res.ok and res.status == BAD_HEAD_SHAPE
    assert res.tau is None and res.value is None


def test_concrete_head_reduction_step_counts():
    # the wrapped operator reaches its terminal in 8 + 4n concrete contractions
    for n in range(0, 4):
        out = head_reduce(App(App(BUILTINS["T"], church(n)), Var("f")))
        assert out.completed
        assert out.steps == 8 + 4 * n
        # shape (f) tau with tau equal to the numeral
        assert print_term(out.result).startswith("(f) ")
        value = numeral_of(normalize(out.result.arg).result)
        assert value == n


# ---------------------------------------------------------------- checked against the certificate


def _verdict(res):
    return res.ok, res.status, res.value, res.tau


@pytest.fixture
def normalized(monkeypatch):
    """The taus whose verdict is read by normalizing them, in call order."""
    taus = []
    read = storage._read_output

    def counting(tau, *rest):
        taus.append(tau)
        return read(tau, *rest)

    monkeypatch.setattr(storage, "_read_output", counting)
    return taus


@pytest.mark.parametrize("n", [0, 1, 5])
def test_behavioral_run_takes_the_verdict_of_its_certificate(n, normalized):
    op = BUILTINS["T"]
    cert, corpus = certify(op, n), theta_corpus(n)
    del normalized[:]
    for theta in corpus:
        res = behavioral_check(op, theta, n, cert=cert)
        assert _verdict(res) == _verdict(behavioral_check(op, theta, n))
        assert res.tau_term == cert.tau_term and res.value == n
    # one normalization per run without the certificate, none with it
    assert len(normalized) == len(corpus)


def test_tau_that_mentions_the_argument_falls_back_to_normalizing(normalized):
    op = parse_term("\\v f (f) ((\\d @church:3) v)")
    cert = certify(op, 3)
    assert cert.ok and cert.tau_value == 3 and "v" in cert.tau_term.fv
    del normalized[:]
    theta = theta_corpus(3, limit=2)[1]
    res = behavioral_check(op, theta, 3, cert=cert)
    assert len(normalized) == 1  # missed: f received (\d 3) theta, not (\d 3) v
    assert res.ok and res.value == 3
    assert _verdict(res) == _verdict(behavioral_check(op, theta, 3))


def test_failed_certificate_leaves_the_forwarder_verdict_alone():
    op = parse_term("\\v f (f) v")
    cert = certify(op, 2)
    assert not cert.ok and cert.tau_term == Var("v")
    for theta in theta_corpus(2):
        res = behavioral_check(op, theta, 2, cert=cert)
        assert res.ok and res.value == 2 and res.tau_term is theta
        assert _verdict(res) == _verdict(behavioral_check(op, theta, 2))


def test_certificate_for_another_n_is_ignored(normalized):
    # the constant operator hands f the numeral 0 whatever its argument, so
    # taking the certificate for n = 0 would say ok at n = 1
    op = parse_term("\\v f (f) \\x f x")
    other_n = certify(op, 0)
    assert other_n.ok
    del normalized[:]
    res = behavioral_check(op, church(1), 1, cert=other_n)
    assert not res.ok and res.status == TAU_WRONG_VALUE and res.value == 0
    assert len(normalized) == 1


def _mutant_sweep(ns, normalized):
    """Certify each closed single-node mutant of the bundled operators at
    each n in ns and run it on four corpus terms, checking as it goes that
    the verdicts agree; normalized lists the taus read by normalizing them.
    Returns the digest of one line per (mutant, n), the
    runs that missed their certificate, and the certificates whose tau
    mentions v with the runs checked against them."""
    fuel = 20_000
    mutants = [
        m
        for name in ("T1", "T2", "T", "Tp", "T_2", "Tp_2")
        for m in single_node_mutants(BUILTINS[name])
        if not m.fv
    ]
    assert len(mutants) == 930
    corpora = {n: theta_corpus(n, limit=4) for n in ns}
    lines, misses, v_taus, v_runs = [], 0, 0, 0
    for m in mutants:
        for n, corpus in corpora.items():
            cert = certify(m, n, fuel=fuel)
            # a tau that mentions v and no indexed variable is handed to f
            # with v := theta (one with an indexed variable is exempt: the
            # concrete run discards what that variable stands for)
            indexed = {name for name, *_ in cert.registry_terms}
            v_tau = cert.ok and "v" in cert.tau_term.fv and not cert.tau_term.fv & indexed
            v_taus += v_tau
            statuses = []
            for theta in corpus:
                plain = behavioral_check(m, theta, n, fuel=fuel)
                before = len(normalized)
                checked = behavioral_check(m, theta, n, fuel=fuel, cert=cert)
                assert _verdict(checked) == _verdict(plain), (print_term(m), n)
                if v_tau:
                    assert plain.tau_term == substitute(cert.tau_term, {"v": theta})
                    v_runs += 1
                if cert.ok and len(normalized) > before:
                    # only a tau that mentions v or an indexed variable may miss
                    assert cert.tau_term.fv, (print_term(m), n)
                    misses += 1
                statuses.append(plain.status)
            assert cert.ok == (statuses == [OK] * 4), (print_term(m), n)
            lines.append(f"{print_term(m)} n={n} {cert.status} {' '.join(statuses)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest, misses, (v_taus, v_runs)


# sha256 of one line per (mutant, n): the mutant printed, n, the
# certificate's status and the statuses of the four corpus runs, recorded
# before the runs took the certificate's verdict (n <= 3) and before the
# kernel fused contractions that follow one another (n = 4 and 5)
MUTANT_SWEEP_DIGEST = "a30c5ab3aa2ade9ff9c31a49c4d8a683d6559f4c7910b183536585c4ddd7f685"
MUTANT_SWEEP_DIGEST_4_5 = "16ed24b2fe51961d04398d7fd3786c8f105e042f8f4cd4110f326cdb09d7fca1"


def test_mutant_operators_certify_as_their_concrete_runs_behave(normalized):
    digest, misses, v_checked = _mutant_sweep(range(4), normalized)
    assert misses == 24
    assert v_checked == (4, 16)
    assert digest == MUTANT_SWEEP_DIGEST


def test_mutant_operators_at_n_4_and_5_certify_as_their_concrete_runs_behave(normalized):
    digest, misses, v_checked = _mutant_sweep(range(4, 6), normalized)
    assert misses == 0
    assert v_checked == (0, 0)
    assert digest == MUTANT_SWEEP_DIGEST_4_5
