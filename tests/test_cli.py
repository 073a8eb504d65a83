import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import storop
from storop import cli
from storop.cli import main
from storop.reduction import normalize
from storop.terms import church, parse_term, print_term

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


def test_reduce_parse_error_is_exit_2(capsys):
    code, _, err = run(capsys, "reduce", "\\x (")
    assert code == 2
    assert "does not parse" in err


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


def test_certify_behavioral_catches_the_forwarder(capsys):
    # symbolically fine is not enough; the machine flags tau, so this exits 1
    code, out, _ = run(capsys, "certify", "\\v \\f (f) v", "--max-n", "0")
    assert code == 1
    assert "tau-not-numeral" in out


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


def test_check_bad_equations_file_is_exit_2(capsys, tmp_path):
    eqs = tmp_path / "eqs.txt"
    eqs.write_text("this is not an equation")
    code, _, err = run(capsys, "check", bundled("eq_demo"), "--equations", str(eqs))
    assert code == 2


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
