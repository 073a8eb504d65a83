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
    HEAD_NORMAL_FORM,
    NORMAL_FORM,
    head_reduce,
    head_step,
    normal_step,
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
    if args.strategy == "head":
        stepper, done_status = head_step, HEAD_NORMAL_FORM
    else:
        stepper, done_status = normal_step, NORMAL_FORM
    if args.trace:
        cur, steps = term, 0
        print(f"0: {print_term(cur)}")
        while steps < fuel:
            nxt = stepper(cur)
            if nxt is None:
                break
            cur, steps = nxt, steps + 1
            print(f"{steps}: {print_term(cur)}")
        result = cur
        status = done_status if stepper(cur) is None else FUEL_EXHAUSTED
    else:
        out = head_reduce(term, fuel) if args.strategy == "head" else normalize(term, fuel)
        result, steps, status = out.result, out.steps, out.status
    print(f"result: {print_term(result)}")
    print(f"steps: {steps}")
    print(f"status: {status}")
    return EXIT_FUEL if status == FUEL_EXHAUSTED else EXIT_OK


# ---------------------------------------------------------------------------
# certify


def _write_certificates(path: str, certs) -> None:
    Path(path).write_text("\n".join(c.to_text() for c in certs), encoding="utf-8")


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

    certs = []
    for n in range(args.max_n + 1):
        cert = certify(term, n, fuel=fuel)
        certs.append(cert)
        line = (
            f"n={n}: {cert.status} machine-steps={len(cert.steps)}"
            f" contractions={cert.total_contractions}"
        )
        if cert.tau is not None:
            line += f" tau={cert.tau}"
        print(line)
        if not cert.ok:
            if cert.detail:
                print(f"detail: {cert.detail}")
            if args.out:
                _write_certificates(args.out, certs)
            print(f"certify: failed at n={n} ({cert.status})")
            exhausted = cert.status in (FUEL_EXHAUSTED, STEP_BUDGET_EXHAUSTED)
            return EXIT_FUEL if exhausted else EXIT_FAIL

    for n in range(args.max_n + 1):
        corpus = theta_corpus(n)[: args.corpus]
        for i, theta in enumerate(corpus):
            res = behavioral_check(term, theta, n, fuel=fuel)
            if not res.ok:
                print(f"behavioral n={n} theta={i}: {res.status}")
                if args.out:
                    _write_certificates(args.out, certs)
                print(f"certify: behavioral check failed at n={n} ({res.status})")
                return EXIT_FUEL if res.status == FUEL_EXHAUSTED else EXIT_FAIL
        print(f"behavioral n={n}: {len(corpus)}/{len(corpus)} ok")

    if args.out:
        _write_certificates(args.out, certs)
    print(f"certify: ok for n <= {args.max_n}")
    return EXIT_OK


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
