"""Command line: reduce terms, certify operators, check derivations, translate formulas.

Exit codes are disjoint by cause: 0 success or positive verdict, 1 negative
verdict (a failed certification or check), 2 usage or parse error, 3 fuel
exhausted, 4 internal error (one line on stderr, no traceback), 141 stdout
closed by the reader (128 + SIGPIPE, as a shell reports a tool killed by a
closed pipe). STOROP_FUEL overrides the default fuel; an explicit --fuel beats
both.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from storop.builtins import BUILTINS
from storop.formulas import (
    FormulaError,
    bot_transform,
    forget_first_order,
    fv_bot,
    fv_pred,
    godel_star,
    parse_equations,
    parse_formula,
    polarity,
    print_formula,
)
from storop.reduction import (
    DEFAULT_FUEL,
    FUEL_EXHAUSTED,
    head_reduce,
    normalize,
)
from storop.storage import (
    STEP_BUDGET_EXHAUSTED,
    behavioral_check,
    certify,
    theta_corpus,
)
from storop.terms import ParseError, parse_term, print_term
from storop.typecheck import check_derivation, read_derivation

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FUEL = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # 128 + SIGPIPE


class _UsageError(Exception):
    pass


def _parse_args_term(src: str):
    try:
        return parse_term(src, BUILTINS)
    except ParseError as e:
        raise _UsageError(f"term does not parse: {e}") from None


def _fuel_from(args) -> int:
    if args.fuel is not None:
        if args.fuel <= 0:
            raise _UsageError("--fuel must be a positive integer")
        return args.fuel
    env = os.environ.get("STOROP_FUEL")
    if env is None:
        return DEFAULT_FUEL
    try:
        value = int(env)
    except ValueError:
        raise _UsageError(f"STOROP_FUEL must be a positive integer, not {env!r}") from None
    if value <= 0:
        raise _UsageError(f"STOROP_FUEL must be a positive integer, not {env!r}")
    return value


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    term = _parse_args_term(args.term)
    fuel = _fuel_from(args)
    run = head_reduce if args.strategy == "head" else normalize
    if args.trace:
        # one kernel step per line; a completed status means no step follows
        result, steps, status = term, 0, FUEL_EXHAUSTED
        print(f"0: {print_term(result)}")
        while steps < fuel and status == FUEL_EXHAUSTED:
            out = run(result, 1)
            status = out.status
            if out.steps:
                result, steps = out.result, steps + 1
                print(f"{steps}: {print_term(result)}")
    else:
        out = run(term, fuel)
        result, steps, status = out.result, out.steps, out.status
    print(f"result: {print_term(result)}")
    print(f"steps: {steps}")
    print(f"status: {status}")
    return EXIT_FUEL if status == FUEL_EXHAUSTED else EXIT_OK


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> int:
    term = _parse_args_term(args.term)
    if term.fv:
        raise _UsageError(
            "certify needs a closed term; free variables: " + ", ".join(sorted(term.fv))
        )
    if args.max_n < 0:
        raise _UsageError("--max-n must be non-negative")
    if args.corpus < 0:
        raise _UsageError("--corpus must be non-negative")
    fuel = _fuel_from(args)
    if not args.out:
        return _certify_range(term, args.max_n, args.corpus, fuel, None)
    try:
        out = open(args.out, "w", encoding="utf-8")
    except OSError as e:
        raise _UsageError(f"cannot write certificate file: {e}") from None
    with out:
        return _certify_range(term, args.max_n, args.corpus, fuel, out)


def _certify_range(term, max_n: int, corpus_size: int, fuel: int, out) -> int:
    """Certify n = 0..max_n, writing each certificate to out as it is made,
    and run the operator on n's corpus, checked against n's certificate,
    before certifying n + 1.

    The corpus terms equal n by construction and are not normalized here;
    each run on one is bounded by fuel. The behavioural lines are printed
    after the last certificate line. The first behavioural failure ends the
    behavioural runs, and is reported once every n is certified.
    """
    passed: list[str] = []
    failed = None  # (n, theta index, status) of the first behavioural failure
    for n in range(max_n + 1):
        cert = certify(term, n, fuel=fuel)
        if out is not None:
            out.write(("\n" if n else "") + cert.to_text())
        line = (
            f"n={n}: {cert.status} machine-steps={len(cert.steps)}"
            f" contractions={cert.total_contractions}"
        )
        tau = cert.tau
        if tau is not None:
            line += f" tau={tau}"
        print(line)
        if not cert.ok:
            if cert.detail:
                print(f"detail: {cert.detail}")
            print(f"certify: failed at n={n} ({cert.status})")
            exhausted = cert.status in (FUEL_EXHAUSTED, STEP_BUDGET_EXHAUSTED)
            return EXIT_FUEL if exhausted else EXIT_FAIL
        if failed is not None:
            continue
        corpus = theta_corpus(n, limit=corpus_size)
        for i, theta in enumerate(corpus):
            res = behavioral_check(term, theta, n, fuel=fuel, cert=cert)
            if not res.ok:
                failed = (n, i, res.status)
                break
        else:
            passed.append(f"behavioral n={n}: {len(corpus)}/{len(corpus)} ok")

    for line in passed:
        print(line)
    if failed is not None:
        return _behavioral_failed(*failed)
    print(f"certify: ok for n <= {max_n}")
    return EXIT_OK


def _behavioral_failed(n: int, index: int, status: str) -> int:
    print(f"behavioral n={n} theta={index}: {status}")
    print(f"certify: behavioral check failed at n={n} ({status})")
    return EXIT_FUEL if status == FUEL_EXHAUSTED else EXIT_FAIL


# ---------------------------------------------------------------------------
# check


_FRAGMENT_SPELLINGS = {"af2bot": "af2-bot", "fperp": "fperp"}


def cmd_check(args) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as e:
        raise _UsageError(f"cannot read derivation file: {e}") from None
    try:
        derivation = read_derivation(text)
    except ValueError as e:
        raise _UsageError(f"derivation file does not parse: {e}") from None
    equations = None
    if args.equations:
        try:
            eq_text = Path(args.equations).read_text(encoding="utf-8")
        except OSError as e:
            raise _UsageError(f"cannot read equations file: {e}") from None
        try:
            equations = parse_equations(eq_text)
        except (FormulaError, ValueError) as e:
            raise _UsageError(f"equations file does not parse: {e}") from None
    fragment = _FRAGMENT_SPELLINGS[args.fragment]
    report = check_derivation(derivation, equations=equations, fragment=fragment)
    if report.ok:
        print(f"ok: {derivation.node_count()} nodes")
        print(f"term: {print_term(derivation.term)}")
        print(f"type: {print_formula(derivation.type)}")
        return EXIT_OK
    noun = "failure" if len(report.failures) == 1 else "failures"
    print(f"fail: {len(report.failures)} {noun}")
    for path, message in report.failures:
        where = ".".join(str(i) for i in path) if path else "root"
        print(f"at {where}: {message}")
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# translate


def cmd_translate(args) -> int:
    try:
        formula = parse_formula(args.formula)
    except FormulaError as e:
        raise _UsageError(f"formula does not parse: {e}") from None
    if args.op == "polarity":
        lines = [f"{name}: {polarity(formula, name, 'pred')}" for name in sorted(fv_pred(formula))]
        lines += [f"{name}_|: {polarity(formula, name, 'bot')}" for name in sorted(fv_bot(formula))]
        if not lines:
            print("no free variables")
        for line in lines:
            print(line)
        return EXIT_OK
    op = {"star": godel_star, "bot": bot_transform, "forget": forget_first_order}[args.op]
    try:
        out = op(formula)
    except FormulaError as e:
        raise _UsageError(str(e)) from None
    print(print_formula(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storop",
        description="Storage operators: reduction, certification, derivation checking, translations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a term and print the result")
    p.add_argument("term", help="term text; @name references a builtin, @church:N a numeral")
    p.add_argument("--strategy", choices=("head", "normal"), default="head")
    p.add_argument("--fuel", type=int, default=None, help=f"step budget (default {DEFAULT_FUEL})")
    p.add_argument("--trace", action="store_true", help="print every intermediate term")
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("certify", help="run the symbolic storage machine on an operator")
    p.add_argument("term", help="closed operator term")
    p.add_argument("--max-n", type=int, default=10, help="certify n = 0..N (default 10)")
    p.add_argument("--fuel", type=int, default=None, help=f"step budget (default {DEFAULT_FUEL})")
    p.add_argument("--corpus", type=int, default=4, help="behavioral arguments per n (default 4)")
    p.add_argument("--out", default=None, help="write the certificates to this file")
    p.set_defaults(run=cmd_certify)

    p = sub.add_parser("check", help="check a derivation file")
    p.add_argument("file", help="derivation in the bundled s-expression format")
    p.add_argument("--fragment", choices=tuple(_FRAGMENT_SPELLINGS), default="af2bot")
    p.add_argument("--equations", default=None, help="equation file for eq steps")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("translate", help="apply a formula translation")
    p.add_argument("formula", help="formula text, e.g. 'N[x]' or '!X {X(0) -> X(x)}'")
    p.add_argument("--op", choices=("star", "bot", "forget", "polarity"), required=True)
    p.set_defaults(run=cmd_translate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        code = args.run(args)
        sys.stdout.flush()  # a reader that closed early is seen here, not at exit
        return code
    except _UsageError as e:
        print(f"storop: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except Exception as e:
        # Exit 1 means a negative verdict; a crash must not read as one.
        print(f"storop: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
