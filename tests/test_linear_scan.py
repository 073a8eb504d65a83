"""Every text entry point reads its input in time linear in its length.

λ-terms, formulas and derivation files are each scanned by a token
pattern that lets whitespace come before every token. Left to scan a long
trailing run of whitespace, such a pattern retries the run from each of its
characters, in time quadratic in its length: 10,000 trailing spaces took
seconds, and the 100,000 used here would take minutes. ``terms._scan``
cuts the run first, and only the characters the patterns skip; any other
trailing character is still an error.
"""

import time
from importlib import resources

import pytest

from storop.cli import main
from storop.formulas import FormulaError, parse_equations, parse_formula
from storop.terms import ParseError, parse_term
from storop.typecheck import read_derivation

SECONDS = 2.0  # per case; a quadratic scan of these inputs takes minutes
WHITESPACE = " \t\r\n" * 25_000  # the four characters the patterns skip
SPACES = " " * 100_000
ZERO = resources.files("storop").joinpath("data/derivations/zero.deriv").read_text()


def timed(fn, *args):
    """fn(*args), failing the test if it takes SECONDS or more."""
    start = time.perf_counter()
    out = fn(*args)
    assert time.perf_counter() - start < SECONDS
    return out


def cli(capsys, *argv):
    code = timed(main, list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_term_reads_trailing_whitespace_in_linear_time():
    assert timed(parse_term, "\\x f x" + WHITESPACE) == parse_term("\\x f x")


def test_parse_formula_reads_trailing_whitespace_in_linear_time():
    text = "!X {X(0) -> X(x)}"
    assert timed(parse_formula, text + WHITESPACE) == parse_formula(text)


def test_read_derivation_reads_trailing_whitespace_in_linear_time():
    assert timed(read_derivation, ZERO + WHITESPACE) == read_derivation(ZERO)


def test_parse_equations_reads_a_long_left_hand_side_in_linear_time():
    # the run of spaces ends the left-hand side, the text of one formula scan
    padded = timed(parse_equations, "p0: p(0)" + SPACES + "= 0")
    assert padded.equations == parse_equations("p0: p(0) = 0").equations


def test_reduce_reads_a_padded_term_in_linear_time(capsys):
    assert cli(capsys, "reduce", "(\\x x) y" + WHITESPACE) == cli(capsys, "reduce", "(\\x x) y")


def test_translate_reads_a_padded_formula_in_linear_time(capsys):
    padded = cli(capsys, "translate", "N[x]" + WHITESPACE, "--op", "star")
    assert padded == cli(capsys, "translate", "N[x]", "--op", "star")


def test_check_reads_a_padded_type_string_in_linear_time(capsys, tmp_path):
    root_type = '(type "!X {X(0), !y (X(y) -> X(s(y))) -> X(0)}")'
    assert ZERO.count(root_type) == 1
    padded = tmp_path / "zero.deriv"
    padded.write_text(ZERO.replace(root_type, root_type[:-2] + SPACES + '")'))
    plain = tmp_path / "plain.deriv"
    plain.write_text(ZERO)
    assert cli(capsys, "check", str(padded)) == cli(capsys, "check", str(plain))


# Only " \t\r\n" is cut: a trailing vertical tab, form feed or no-break
# space is still a stray character, as it was before the cut
@pytest.mark.parametrize("text", ["x\x0b", "x\xa0"], ids=["vertical-tab", "no-break-space"])
def test_parse_term_rejects_other_trailing_whitespace(text):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert str(exc.value) == f"unexpected character {text[1]!r} (at offset 1)"


@pytest.mark.parametrize("text", ["A\x0c", "A\xa0"], ids=["form-feed", "no-break-space"])
def test_parse_formula_rejects_other_trailing_whitespace(text):
    with pytest.raises(FormulaError) as exc:
        parse_formula(text)
    assert str(exc.value) == f"unexpected character {text[1]!r} at offset 1"


def test_read_derivation_reads_a_trailing_form_feed_as_a_second_form():
    with pytest.raises(ValueError) as exc:
        read_derivation(ZERO + "\x0c")
    assert str(exc.value) == "expected exactly one derivation form"
