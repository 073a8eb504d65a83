import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import storop
from deep import deep
from storop import cli, storage
from storop.cli import main
from storop.builtins import BUILTINS
from storop.prebuilt import EQ_DEMO_EQUATIONS, prebuilt_names
from storop.reduction import normalize
from storop.storage import TAU_WRONG_VALUE, BehavioralResult, behavioral_check, certify
from storop.terms import church, parse_term

SUCC2_PRINT = "(f) (\\n x f (f) (n) x f) (\\n x f (f) (n) x f) \\x f x"


def bundled(name: str) -> str:
    return str(resources.files("storop").joinpath(f"data/derivations/{name}.deriv"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- reduce


def test_reduce_storage_example(capsys):
    code, out, _ = run(capsys, "reduce", "(@T1 @church:2) f", "--strategy", "head")
    assert code == 0
    assert f"result: {SUCC2_PRINT}" in out
    assert "status: head-normal-form-reached" in out


def test_reduce_normal_strategy_goes_all_the_way(capsys):
    code, out, _ = run(capsys, "reduce", "(@succ) @church:1", "--strategy", "normal")
    assert code == 0
    assert "result: \\x f (f) (f) x" in out
    assert "status: normal-form-reached" in out


def test_reduce_fuel_exhaustion_is_exit_3(capsys):
    code, out, _ = run(capsys, "reduce", "@omega", "--fuel", "50")
    assert code == 3
    assert "steps: 50" in out
    assert "status: fuel-exhausted" in out


# "@church:²" raised a bare ValueError from int(), an internal error (exit 4)
@pytest.mark.parametrize("source", ["\\x (", "@church:²"])
def test_reduce_parse_error_is_exit_2(capsys, source):
    code, _, err = run(capsys, "reduce", source)
    assert code == 2
    assert "does not parse" in err


# 4,301 digits passed Python's limit on int() and exited 4; a suffix is now
# read only up to six digits, and the numeral is never built
def test_reduce_oversized_church_suffix_is_exit_2(capsys):
    code, _, err = run(capsys, "reduce", "@church:" + "9" * 4301)
    assert code == 2
    assert "does not parse: more than 6 digits after ':' (at offset 8)" in err


def test_reduce_trace_lists_every_intermediate(capsys):
    code, out, _ = run(capsys, "reduce", "(@succ) @church:1", "--strategy", "normal", "--trace")
    assert code == 0
    lines = out.splitlines()
    trace = [l for l in lines if l and l.split(":")[0].isdigit()]
    assert lines[0].startswith("0: ")
    assert "steps: 3" in out
    assert len(trace) == 4  # start plus three steps
    assert trace[-1].split(": ", 1)[1] == "\\x f (f) (f) x"


def test_reduce_trace_agrees_with_the_engine(capsys):
    src = "(@T1 @church:2) f"
    code, out, _ = run(capsys, "reduce", src, "--strategy", "head", "--trace")
    assert code == 0
    plain_code, plain_out, _ = run(capsys, "reduce", src, "--strategy", "head")
    assert plain_code == 0
    # same result and step count with and without tracing
    assert out.splitlines()[-3:] == plain_out.splitlines()


def test_reduce_trace_fuel_exhaustion(capsys):
    code, out, _ = run(capsys, "reduce", "@omega", "--fuel", "5", "--trace")
    assert code == 3
    assert "steps: 5" in out and "status: fuel-exhausted" in out


# sha256 of exit code and stdout of `storop reduce` on each source under both
# strategies, four fuels, with and without --trace: 160 runs. It pins the
# step-by-step trace, the exhaustion status after an exact-fuel run, and the
# partial reduct printed on exhaustion.
REDUCE_SOURCES = [
    "@omega",
    "((@T) @church:4) f",
    "((@Tp) @church:3) f",
    "(@T1 @church:2) f",
    "(@succ) @church:3",
    "((\\d \\e e) @omega) y",
    "((@church:3) a) g",
    "(f) (\\x x) y",
    "\\z (\\x \\y (x) y) y",
    "(\\x (x) x) \\x x",
]
REDUCE_DIGEST = "9b1ad383d0fe723ce7a229515ce9676d2cce9762aa32603aae144264b7ce69fb"


def _reduce_digest(capsys) -> str:
    h = hashlib.sha256()
    for src in REDUCE_SOURCES:
        for strategy in ("head", "normal"):
            for fuel in ("1", "3", "50", "100000"):
                for trace in ([], ["--trace"]):
                    argv = ["reduce", src, "--strategy", strategy, "--fuel", fuel, *trace]
                    code, out, _ = run(capsys, *argv)
                    h.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    return h.hexdigest()


def test_reduce_output_fingerprint(capsys):
    assert _reduce_digest(capsys) == REDUCE_DIGEST


# deep reduce: kernel, substitution and printing all run on explicit stacks
DEEP = 100_000


def numeral_text(n: int) -> str:
    return "\\x f " + "(f) " * n + "x"


@pytest.fixture(scope="module")
def deep_numerals():
    return {n: numeral_text(n) for n in (DEEP, DEEP + 1)}


def test_reduce_successor_of_a_numeral_100000_deep_head(capsys, deep_numerals):
    code, out, _ = deep(run, capsys, "reduce", f"(@succ) @church:{DEEP}", "--strategy", "head")
    assert code == 0
    assert out.splitlines() == [
        f"result: \\x f (f) ({deep_numerals[DEEP]}) x f",
        "steps: 1",
        "status: head-normal-form-reached",
    ]


def test_reduce_successor_of_a_numeral_100000_deep_normal(capsys, deep_numerals):
    code, out, _ = deep(run, capsys, "reduce", f"(@succ) @church:{DEEP}", "--strategy", "normal")
    assert code == 0
    assert out.splitlines() == [
        f"result: {deep_numerals[DEEP + 1]}",
        "steps: 3",
        "status: normal-form-reached",
    ]


def test_reduce_trace_successor_of_a_numeral_100000_deep(capsys, deep_numerals):
    argv = ["reduce", f"(@succ) @church:{DEEP}", "--strategy", "normal", "--trace"]
    code, out, _ = deep(run, capsys, *argv)
    lines = out.splitlines()
    assert code == 0
    labels = [line.partition(":")[0] for line in lines]
    assert labels == ["0", "1", "2", "3", "result", "steps", "status"]
    assert lines[0] == f"0: (\\n x f (f) (n) x f) {deep_numerals[DEEP]}"
    assert lines[3:] == [
        f"3: {deep_numerals[DEEP + 1]}",
        f"result: {deep_numerals[DEEP + 1]}",
        "steps: 3",
        "status: normal-form-reached",
    ]


def test_reduce_a_numeral_iterating_succ_30000_times(capsys):
    # (n) zero succ substitutes into a body 30,000 deep; _subst1 broke there
    argv = ["reduce", "--strategy", "normal", "((@church:30000) @zero) @succ"]
    code, out, _ = deep(run, capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        f"result: {numeral_text(30_000)}",
        "steps: 90002",
        "status: normal-form-reached",
    ]


def test_fuel_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STOROP_FUEL", "30")
    code, out, _ = run(capsys, "reduce", "@omega")
    assert code == 3
    assert "steps: 30" in out


def test_fuel_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("STOROP_FUEL", "1000000")
    code, out, _ = run(capsys, "reduce", "@omega", "--fuel", "50")
    assert code == 3
    assert "steps: 50" in out


def test_bad_fuel_env_is_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("STOROP_FUEL", "banana")
    code, _, err = run(capsys, "reduce", "@omega")
    assert code == 2
    assert "STOROP_FUEL" in err


def test_nonpositive_fuel_flag_is_exit_2(capsys):
    code, _, err = run(capsys, "reduce", "@omega", "--fuel", "0")
    assert code == 2
    assert "--fuel" in err


def test_zero_fuel_env_is_exit_2(capsys, monkeypatch):
    # the kernel takes fuel 0, but a command that may reduce nothing is refused
    monkeypatch.setenv("STOROP_FUEL", "0")
    code, _, err = run(capsys, "reduce", "@omega")
    assert code == 2
    assert "STOROP_FUEL" in err


# ---------------------------------------------------------------- certify


def test_certify_t2_full_range(capsys):
    code, out, _ = run(capsys, "certify", "@T2", "--max-n", "10", "--corpus", "4")
    assert code == 0
    assert "certify: ok for n <= 10" in out
    assert out.count("behavioral") == 11
    for n in range(11):
        assert f"n={n}: ok" in out


def test_certify_t_small_range(capsys):
    code, out, _ = run(capsys, "certify", "@T", "--max-n", "5")
    assert code == 0
    assert "certify: ok for n <= 5" in out


def test_certify_constant_operator_fails_at_one(capsys):
    code, out, _ = run(capsys, "certify", "\\v \\f (f) @church:0", "--max-n", "1")
    assert code == 1
    assert "n=1: tau-wrong-value" in out
    assert "certify: failed at n=1 (tau-wrong-value)" in out


def test_certify_diverging_operator_is_exit_3(capsys):
    code, out, _ = run(capsys, "certify", "\\v \\f @omega", "--max-n", "0", "--fuel", "200")
    assert code == 3
    assert "n=0: fuel-exhausted" in out


def test_certify_open_term_is_exit_2(capsys):
    code, _, err = run(capsys, "certify", "\\v (v) g")
    assert code == 2
    assert "closed term" in err and "g" in err


def test_certify_writes_deterministic_certificates(capsys, tmp_path):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert run(capsys, "certify", "@T1", "--max-n", "3", "--out", str(out_a))[0] == 0
    assert run(capsys, "certify", "@T1", "--max-n", "3", "--out", str(out_b))[0] == 0
    text = out_a.read_text()
    assert text == out_b.read_text()
    assert text.count("operator:") == 4
    assert "registry:" in text and "tau-value: 3" in text


# sha256 of exit code, stdout and certificate file of certify --max-n 12 on
# each bundled storage operator, recorded before the kernel skipped x := x
# substitutions and the corpus stopped re-normalizing its numeral
CERTIFY_DIGEST = "ea91b6a32e5533cb0bf85b263199661f6011e3fd8ce9b2bb80826861d6044d60"


def test_certify_output_fingerprint(capsys, tmp_path):
    h = hashlib.sha256()
    for op in ("@T", "@T2", "@Tp"):
        path = tmp_path / "certs.txt"
        code, out, _ = run(capsys, "certify", op, "--max-n", "12", "--out", str(path))
        h.update(f"{op}\n{code}\n{out}\n{path.read_text(encoding='utf-8')}".encode())
    assert h.hexdigest() == CERTIFY_DIGEST


# sha256 of exit code, stdout and certificate file of certify --max-n 90 on
# each bundled storage operator and on the forwarder, the benchmark's
# certify-builtins operators at its size, recorded before the corpus took its
# succ towers' bases from the target numeral and tau was printed once
CERTIFY_90_DIGEST = "7cd89842a495e7d8bc7d86d39f3553835d5a5dbb5112f27c3b02a480410f1bde"


def test_certify_output_fingerprint_at_the_benchmark_size(capsys, tmp_path):
    h = hashlib.sha256()
    for op in ("@T", "@T2", "@Tp", "\\v f (f) v"):
        path = tmp_path / "certs.txt"
        code, out, _ = run(capsys, "certify", op, "--max-n", "90", "--out", str(path))
        h.update(f"{op}\n{code}\n{out}\n{path.read_text(encoding='utf-8')}".encode())
    assert h.hexdigest() == CERTIFY_90_DIGEST


def test_certify_prints_each_tau_once(capsys, monkeypatch, tmp_path):
    # the certificate file's tau line and the stdout line share one printing
    certs = []
    printed = []
    made, printing = storage.certify, storage.print_term
    monkeypatch.setattr(cli, "certify", lambda *a, **k: certs.append(made(*a, **k)) or certs[-1])
    monkeypatch.setattr(storage, "print_term", lambda t, *a: printed.append(t) or printing(t, *a))
    path = tmp_path / "certs.txt"
    code, out, _ = run(capsys, "certify", "@T", "--max-n", "12", "--out", str(path))
    assert code == 0 and len(certs) == 13
    for cert in certs:
        assert sum(t is cert.tau_term for t in printed) == 1, cert.n
        assert f" tau={cert.tau}\n" in out and f"\ntau: {cert.tau}\n" in path.read_text()


# a write or close of the --out file that failed after the run reached the
# internal-error catch-all, exit 4, once stdout had said "certify: ok"
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("max_n", ["2", "40"], ids=["failing-at-close", "failing-at-a-write"])
def test_certify_out_file_that_fills_up_is_exit_2(capsys, max_n):
    code, _, err = run(capsys, "certify", "@T", "--max-n", max_n, "--out", "/dev/full")
    assert code == 2
    assert err.startswith("storop: error: cannot write certificate file: ")
    assert len(err.splitlines()) == 1


def test_certify_unwritable_out_is_exit_2_before_any_work(capsys, tmp_path):
    code, out, err = run(
        capsys, "certify", "@T", "--max-n", "1", "--out", str(tmp_path / "missing" / "x")
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("storop: error: ")


def test_certify_failed_run_writes_certificates_so_far(capsys, tmp_path):
    path = tmp_path / "certs.txt"
    op = "\\v \\f (f) @church:0"
    code, _, _ = run(capsys, "certify", op, "--max-n", "3", "--out", str(path))
    assert code == 1
    made = [certify(parse_term(op, BUILTINS), n).to_text() for n in (0, 1)]
    assert path.read_text(encoding="utf-8") == "\n".join(made)


def test_certify_corpus_verification_obeys_fuel(capsys, monkeypatch, tmp_path):
    # The corpus is not normalized before it is used, so --fuel bites on the
    # runs themselves. The symbolic stage gets the default fuel here, and
    # with --fuel 1 every run of @T2 at n=0 exhausts it, the first one first.
    monkeypatch.setattr(cli, "certify", lambda term, n, fuel: certify(term, n))
    path = tmp_path / "certs.txt"
    code, out, _ = run(capsys, "certify", "@T2", "--max-n", "0", "--fuel", "1", "--out", str(path))
    assert code == 3
    assert out.splitlines()[1:] == [
        "behavioral n=0 theta=0: fuel-exhausted",
        "certify: behavioral check failed at n=0 (fuel-exhausted)",
    ]
    assert path.read_text(encoding="utf-8") == certify(BUILTINS["T2"], 0).to_text()


def test_certify_fuel_used_up_exactly_is_never_an_internal_error(capsys):
    for fuel in range(1, 13):
        code, _, err = run(capsys, "certify", "@T", "--max-n", "1", "--fuel", str(fuel))
        assert code != 4, (fuel, err)
    # 4 is the contraction count of the run at n=0, and its tau is normal
    code, out, _ = run(capsys, "certify", "@T", "--max-n", "0", "--fuel", "4", "--corpus", "0")
    assert code == 0
    assert "certify: ok for n <= 0" in out


def test_certify_behavioral_catches_the_forwarder(capsys):
    # symbolically fine is not enough; the machine flags tau, so this exits 1
    code, out, _ = run(capsys, "certify", "\\v \\f (f) v", "--max-n", "0")
    assert code == 1
    assert "tau-not-numeral" in out


def _fail_behavioral_at(monkeypatch, failing_n):
    def check(term, theta, n, **kwargs):
        if n == failing_n:
            return BehavioralResult(False, TAU_WRONG_VALUE)
        return behavioral_check(term, theta, n, **kwargs)

    monkeypatch.setattr(cli, "behavioral_check", check)


_T_CERTIFY_LINES = [
    "n=0: ok machine-steps=3 contractions=4 tau=\\x f x",
    "n=1: ok machine-steps=5 contractions=8 tau=(\\n x f (f) (n) x f) \\x f x",
    "n=2: ok machine-steps=7 contractions=12"
    " tau=(\\n x f (f) (n) x f) (\\n x f (f) (n) x f) \\x f x",
    "n=3: ok machine-steps=9 contractions=16 tau=(\\n x f (f) (n) x f)"
    " (\\n x f (f) (n) x f) (\\n x f (f) (n) x f) \\x f x",
]


def test_certify_failure_is_the_verdict_over_an_earlier_behavioral_failure(capsys, monkeypatch):
    # the behavioural runs at n=0 fail before n=2 is certified, yet the
    # verdict is the certificate's, and no behavioural line is printed;
    # the expected text was recorded when every n was certified first
    _fail_behavioral_at(monkeypatch, 0)

    def certify_failing_at_2(term, n, fuel):
        cert = certify(term, n, fuel=fuel)
        return dataclasses.replace(cert, status=TAU_WRONG_VALUE) if n == 2 else cert

    monkeypatch.setattr(cli, "certify", certify_failing_at_2)
    code, out, _ = run(capsys, "certify", "@T", "--max-n", "3")
    assert code == 1
    assert out.splitlines() == [
        *_T_CERTIFY_LINES[:2],
        _T_CERTIFY_LINES[2].replace(": ok ", ": tau-wrong-value "),
        "certify: failed at n=2 (tau-wrong-value)",
    ]


@pytest.mark.parametrize("failing_n", [0, 1])
def test_behavioral_failure_is_reported_after_every_certificate(capsys, monkeypatch, failing_n):
    # the expected text was recorded when every n was certified first
    _fail_behavioral_at(monkeypatch, failing_n)
    code, out, _ = run(capsys, "certify", "@T", "--max-n", "3")
    assert code == 1
    assert out.splitlines() == [
        *_T_CERTIFY_LINES,
        *[f"behavioral n={n}: 4/4 ok" for n in range(failing_n)],
        f"behavioral n={failing_n} theta=0: tau-wrong-value",
        f"certify: behavioral check failed at n={failing_n} (tau-wrong-value)",
    ]


# ---------------------------------------------------------------- check


def test_check_bundled_derivation(capsys):
    code, out, _ = run(capsys, "check", bundled("t1_bot"))
    assert code == 0
    assert out.startswith("ok: ")
    assert "type: !x (!X_| {X_|(0), !y (X_|(y) -> X_|(s(y))) -> X_|(x)}" in out


def test_check_mutated_golden_reports_the_path(capsys, tmp_path):
    text = resources.files("storop").joinpath("data/derivations/zero.deriv").read_text()
    mutated = tmp_path / "mut.deriv"
    mutated.write_text(text.replace("(rule ax", "(rule app", 1))
    code, out, _ = run(capsys, "check", str(mutated))
    assert code == 1
    assert "fail: " in out
    assert "at 0.0.0: app expects 2 premises, found 0" in out


INST_PRED_DERIV = """(rule inst-pred
  (ctx (v "!X !Y (X -> !Y' (Y -> Y'))"))
  (term "v")
  (type "{conclusion}")
  (witness (abst () "Y"))
  (premises
    (rule ax
      (ctx (v "!X !Y (X -> !Y' (Y -> Y'))"))
      (term "v")
      (type "!X !Y (X -> !Y' (Y -> Y'))"))))
"""


@pytest.mark.parametrize(
    "conclusion, expected",
    [("!Z (Y -> !W (Z -> W))", 0), ("!Z (Y -> !W (W -> W))", 1)],
    ids=["right", "wrong"],
)
def test_check_inst_pred_renames_nested_binders_apart(capsys, tmp_path, conclusion, expected):
    path = tmp_path / "inst.deriv"
    path.write_text(INST_PRED_DERIV.format(conclusion=conclusion))
    code, _, _ = run(capsys, "check", str(path))
    assert code == expected


def test_check_fragment_fperp_rejects_first_order_rules(capsys):
    code, out, _ = run(capsys, "check", bundled("succ"), "--fragment", "fperp")
    assert code == 1
    assert "not part of the propositional fragment" in out


def test_check_fperp_accepts_propositional_derivations(capsys):
    code, out, _ = run(capsys, "check", bundled("t2_fperp"), "--fragment", "fperp")
    assert code == 0
    assert "type: !X_| {X_|, (X_| -> X_|) -> X_|} -> ~~(!X {X, (X -> X) -> X})" in out


def test_check_equations_file(capsys, tmp_path):
    eqs = tmp_path / "eqs.txt"
    eqs.write_text("p0: p(0) = 0\nps: p(s(x)) = x\n")
    code, out, _ = run(capsys, "check", bundled("eq_demo"), "--equations", str(eqs))
    assert code == 0
    code, out, _ = run(capsys, "check", bundled("eq_demo"))
    assert code == 1
    assert "no equations are in scope" in out


@pytest.mark.parametrize(
    "path, message",
    [("0 1 1 -1", "no such atom argument"), ("0 1 1 0 -1", "path leaves the term")],
)
def test_check_negative_rewrite_path_is_rejected(capsys, tmp_path, path, message):
    text = Path(bundled("eq_demo")).read_text()
    mutated = tmp_path / "neg.deriv"
    mutated.write_text(text.replace("(0 1 1 0)", f"({path})"))
    eqs = tmp_path / "eqs.txt"
    eqs.write_text("p0: p(0) = 0\nps: p(s(x)) = x\n")
    code, out, _ = run(capsys, "check", str(mutated), "--equations", str(eqs))
    assert code == 1
    assert f"at root: {message}" in out


def test_check_unknown_equation_is_named_without_quotes(capsys, tmp_path):
    # the message of the KeyError, not its str, which is the message's repr
    text = Path(bundled("eq_demo")).read_text()
    mutated = tmp_path / "qq.deriv"
    mutated.write_text(text.replace("(step ps ", "(step qq "))
    eqs = tmp_path / "eqs.txt"
    eqs.write_text("p0: p(0) = 0\nps: p(s(x)) = x\n")
    code, out, err = run(capsys, "check", str(mutated), "--equations", str(eqs))
    assert code == 1
    assert out == "fail: 1 failure\nat root: no equation named 'qq'\n"
    assert err == ""


def test_check_missing_file_is_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.deriv"))
    assert code == 2
    assert "cannot read" in err


def test_check_garbage_file_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.deriv"
    bad.write_text("(rule ax (ctx")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "does not parse" in err


@pytest.mark.parametrize(
    "body",
    [
        "(rule)",
        '(rule ax (ctx) (term) (type "bot"))',
        '(rule ax (ctx) (term "x") (type))',
        '(rule ax (ctx (x)) (term "x") (type "bot"))',
        '(rule ax (ctx x) (term "x") (type "bot"))',
        '(rule ax (ctx) (term "x") (type "bot") (witness))',
        '(rule ax (ctx) (term "x") (type "bot") (witness ()))',
        '(rule inst-fo (ctx) (term "x") (type "bot") (witness (foterm)))',
        '(rule inst-pred (ctx) (term "x") (type "bot") (witness (abst (w))))',
        '(rule inst-pred (ctx) (term "x") (type "bot") (witness (abst w "bot")))',
        '(rule eq (ctx) (term "x") (type "bot") (witness (steps (step))))',
        '(rule eq (ctx) (term "x") (type "bot") (witness (steps x)))',
        '(rule eq (ctx) (term "x") (type "bot") (witness (steps (step ps lr 0))))',
    ],
)
def test_check_malformed_derivation_is_exit_2(capsys, tmp_path, body):
    bad = tmp_path / "bad.deriv"
    bad.write_text(body)
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("storop: error: derivation file does not parse: ")
    assert "found 'atom'" not in err


def test_check_repeated_section_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.deriv"
    bad.write_text(
        '(rule abs (ctx) (term "\\\\y y") (type "Q -> Q")'
        ' (premises (rule ax (ctx) (term "y") (type "Q")))'
        ' (premises (rule ax (ctx (y "Q")) (term "y") (type "Q"))))'
    )
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err == "storop: error: derivation file does not parse: repeated premises section\n"


def test_check_a_derivation_30002_nodes_deep(capsys, tmp_path):
    # \y y : X(x) -> X(x) under 15,000 inst-fo x / gen-fo x pairs, written
    # without indentation, which would grow with the depth squared
    inst = '(rule inst-fo (ctx) (term "\\\\y y") (type "X(x) -> X(x)") (witness (foterm "x")) (premises\n'
    gen = '(rule gen-fo (ctx) (term "\\\\y y") (type "!x (X(x) -> X(x))") (premises\n'
    core = (
        '(rule abs (ctx) (term "\\\\y y") (type "X(x) -> X(x)")'
        ' (premises (rule ax (ctx (y "X(x)")) (term "y") (type "X(x)"))))\n'
    )
    chain = tmp_path / "chain.deriv"
    chain.write_text((inst + gen) * 15_000 + core + "))" * 30_000)
    code, out, _ = run(capsys, "check", str(chain))
    assert code == 0
    assert out.splitlines()[0] == "ok: 30002 nodes"


# sha256 of exit code, stdout and stderr of `storop check` on each bundled
# derivation under five flag sets: 85 runs, recorded before the reader built
# formulas and terms straight into its intern table
CHECK_FLAGS = (
    [],
    ["--fragment", "af2bot"],
    ["--fragment", "fperp"],
    ["--equations"],
    ["--fragment", "fperp", "--equations"],
)
CHECK_DIGEST = "8ba62d1510283b2901c519a371ea38bbd302109dc2ec5d79f82974449857fb5d"


def test_check_output_fingerprint(capsys, tmp_path):
    eqs = tmp_path / "eqs.txt"
    eqs.write_text(EQ_DEMO_EQUATIONS)
    h = hashlib.sha256()
    for name in prebuilt_names():
        for flags in CHECK_FLAGS:
            argv = [a if a != "--equations" else f"--equations={eqs}" for a in flags]
            code, out, err = run(capsys, "check", bundled(name), *argv)
            h.update(f"{name} {' '.join(flags)}\n{code}\n{out}\n{err}".encode())
    assert h.hexdigest() == CHECK_DIGEST


def test_check_bad_equations_file_is_exit_2(capsys, tmp_path):
    eqs = tmp_path / "eqs.txt"
    eqs.write_text("this is not an equation")
    code, _, err = run(capsys, "check", bundled("eq_demo"), "--equations", str(eqs))
    assert code == 2


# a byte-order mark was read as part of the text: an atom before the
# derivation form (exit 2, "expected exactly one derivation form"), and the
# first equation's name ("\ufeffps", so a step citing ps failed with exit 1)


def test_check_reads_a_derivation_file_that_starts_with_a_bom(capsys, tmp_path):
    path = tmp_path / "bom.deriv"
    path.write_text("\ufeff" + Path(bundled("zero")).read_text(), encoding="utf-8")
    expected = run(capsys, "check", bundled("zero"))
    assert expected[0] == 0
    assert run(capsys, "check", str(path)) == expected


def test_check_reads_an_equations_file_that_starts_with_a_bom(capsys, tmp_path):
    eqs = tmp_path / "eqs.txt"
    eqs.write_text("\ufeffps: p(s(x)) = x\np0: p(0) = 0\n", encoding="utf-8")
    code, out, err = run(capsys, "check", bundled("eq_demo"), "--equations", str(eqs))
    assert (code, err) == (0, "")
    assert out.startswith("ok: 2 nodes\n")


# a file that is not UTF-8 raised UnicodeDecodeError past the read's except
# OSError: exit 4, an internal error, for 584 of 1,000 byte edits like these


def test_check_of_a_byte_edited_file_is_a_verdict_or_a_usage_error(capsys, tmp_path):
    rng = random.Random(4243)
    eqs = tmp_path / "eqs.txt"
    eqs.write_text(EQ_DEMO_EQUATIONS)
    path = tmp_path / "edited.deriv"
    files = {name: Path(bundled(name)).read_bytes() for name in prebuilt_names()}
    undecodable = 0
    for k in range(300):
        name = rng.choice(prebuilt_names())
        data = files[name]
        i, byte = rng.randrange(len(data) + 1), bytes([rng.randrange(256)])
        edits = (data[:i] + byte + data[i:], data[:i] + byte + data[i + 1 :], data[:i] + data[i + 1 :])
        path.write_bytes(rng.choice(edits))
        argv = ["--equations", str(eqs)] if name == "eq_demo" else []
        code, _, err = run(capsys, "check", str(path), *argv)
        assert code in (0, 1, 2) and len(err.splitlines()) <= 1, (k, name, code, err)
        undecodable += "cannot read derivation file" in err
    assert undecodable > 50


def test_check_an_equations_file_that_is_not_utf8_is_exit_2(capsys, tmp_path):
    eqs = tmp_path / "eqs.txt"
    eqs.write_bytes(EQ_DEMO_EQUATIONS.encode().replace(b"=", b"\xff", 1))
    code, out, err = run(capsys, "check", bundled("eq_demo"), "--equations", str(eqs))
    assert (code, out) == (2, "")
    assert err.startswith("storop: error: cannot read equations file: 'utf-8' codec can't decode")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------- translate


def test_translate_bot_display(capsys):
    code, out, _ = run(capsys, "translate", "N[x]", "--op", "bot")
    assert code == 0
    assert out.strip() == "!X_| {X_|(0), !y (X_|(y) -> X_|(s(y))) -> X_|(x)}"


def test_translate_star_display(capsys):
    code, out, _ = run(capsys, "translate", "N[x]", "--op", "star")
    assert code == 0
    assert out.strip() == "!X {~X(0), !y (~X(y) -> ~X(s(y))) -> ~X(x)}"


def test_translate_forget_display(capsys):
    code, out, _ = run(capsys, "translate", "N[x]", "--op", "forget")
    assert code == 0
    assert out.strip() == "!X {X, (X -> X) -> X}"


def test_translate_star_rejects_bottomed_input(capsys):
    code, _, err = run(capsys, "translate", "X_|(0)", "--op", "star")
    assert code == 2
    assert "undefined on bottomed" in err


def test_translate_polarity(capsys):
    code, out, _ = run(capsys, "translate", "N[x] -> ~X(y)", "--op", "polarity")
    assert code == 0
    assert out.strip() == "X: negative"
    code, out, _ = run(capsys, "translate", "X_|(0) -> X_|(s(0))", "--op", "polarity")
    assert code == 0
    assert out.strip() == "X_|: both"
    code, out, _ = run(capsys, "translate", "N[x]", "--op", "polarity")
    assert code == 0
    assert out.strip() == "no free variables"


def _deep_translations(shape):
    """A formula 100,000 deep, and what translate prints for each --op."""
    if shape == "prefixes":  # ~!x ~!x .. X(x)
        n = DEEP // 2
        def nested(core):
            return "~(!x " * n + core + ")" * n
        printed = {"star": nested("~X(x)"), "bot": nested("X_|(x)"), "forget": "~" * n + "X"}
        return "~!x " * n + "X(x)", {**printed, "polarity": "X: positive"}
    tower = "s(" * DEEP + "0" + ")" * DEEP
    return f"N[{tower}]", {
        "star": f"!X {{~X(0), !y (~X(y) -> ~X(s(y))) -> ~X({tower})}}",
        "bot": f"!X_| {{X_|(0), !y (X_|(y) -> X_|(s(y))) -> X_|({tower})}}",
        "forget": "!X {X, (X -> X) -> X}",
        "polarity": "no free variables",
    }


@pytest.mark.parametrize("op", ["star", "bot", "forget", "polarity"])
@pytest.mark.parametrize("shape", ["prefixes", "successors"])
def test_translate_at_depth_100000(capsys, shape, op):
    # parsing and printing recursed once per level and broke at 20,000
    source, printed = _deep_translations(shape)
    code, out, _ = deep(run, capsys, "translate", source, "--op", op)
    assert code == 0
    assert out == printed[op] + "\n"


def test_translate_parse_error_is_exit_2(capsys):
    code, _, err = run(capsys, "translate", "!X {", "--op", "star")
    assert code == 2
    assert "does not parse" in err


# ---------------------------------------------------------------- wiring


def test_no_arguments_is_exit_2(capsys):
    assert run(capsys, )[0] == 2


def test_unknown_subcommand_is_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_help_is_exit_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for name in ("reduce", "certify", "check", "translate"):
        assert name in out


def test_reduce_result_round_trips(capsys):
    code, out, _ = run(capsys, "reduce", "(@T2 @theta0) f", "--strategy", "head")
    assert code == 0
    printed = out.splitlines()[0].split("result: ", 1)[1]
    t = parse_term(printed)
    # the passed argument normalizes to zero even though it was not evaluated
    assert normalize(t.arg).result == church(0)


def test_internal_error_is_exit_4_without_traceback(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(cli, "cmd_reduce", boom)
    code, out, err = run(capsys, "reduce", "x")
    assert code == 4
    assert err == "storop: internal error: RuntimeError: kernel exploded\n"
    assert "Traceback" not in err


# main builds its parser once per process and is called many times in one
# process by the tests, perfbench and code that embeds storop


def run_python(*args) -> tuple[int, str, str]:
    """A new interpreter run with args and storop importable: exit code, stdout, stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(storop.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_called_again_prints_what_a_fresh_process_prints(capsys):
    term = "(@T1 @church:2) f"
    first = run(capsys, "reduce", "--strategy", "normal", "--fuel", "5", term)
    assert first[0] == 3
    again = run(capsys, "reduce", term)
    assert again == run_python("-m", "storop", "reduce", term)
    assert again[0] == 0 and again[1] != first[1]


def test_a_usage_error_leaves_main_working(capsys):
    code, out, err = run(capsys, "reduce", "--strategy", "sideways", "x")
    assert (code, out) == (2, "")
    assert "invalid choice: 'sideways'" in err
    assert run(capsys, "reduce", "x") == (
        0,
        "result: x\nsteps: 0\nstatus: head-normal-form-reached\n",
        "",
    )


def test_a_command_replaced_after_a_call_is_the_one_that_runs(capsys, monkeypatch):
    assert run(capsys, "check", bundled("zero"))[0] == 0
    seen = []

    def check(args):
        seen.append(args.file)
        return 1

    monkeypatch.setattr(cli, "cmd_check", check)
    assert run(capsys, "check", bundled("zero")) == (1, "", "")
    assert seen == [bundled("zero")]


def test_importing_the_cli_builds_no_parser():
    script = "import storop.cli as cli; print(cli._parser.cache_info().currsize)"
    assert run_python("-c", script) == (0, "0\n", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "@church:3"],
        ["certify", "@T", "--max-n", "2"],
        ["check", bundled("one")],
        ["translate", "N[x]", "--op", "star"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_on_a_full_disk_is_exit_2(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(storop.__file__).parents[1]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "storop", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("storop: error: cannot write output: ")
    assert len(proc.stderr.splitlines()) == 1


def test_closed_stdout_is_exit_141_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(storop.__file__).parents[1]))
    # omega traces 100000 lines, far more than the pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "storop", "reduce", "--trace", "@omega"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"0: ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err
