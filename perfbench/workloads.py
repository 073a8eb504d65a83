"""Workload inputs and their known answers.

Each workload is a list of ops built from a seed. An op calls one public
entry point of storop (``storop.cli.main`` or ``typecheck.check_derivation``)
and carries the answer the benchmark expects, derived here and never read
back from storop's own output. ``Op.run`` is the timed part; ``Op.problem``
is the oracle, run outside the timing, and returns None when the outcome is
right or a one-line reason when it is wrong.

storop is imported lazily (inside functions), so the caller controls when
the package is imported and the import is counted as set-up time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

WORKLOADS = ("certify-builtins", "check-mutants", "reduce-stored")

# certify-builtins: the three bundled storage operators and a forwarder that
# is not one, so a negative verdict is exercised in every pass. @T also
# writes --out, so printing deferred past stdout still costs time here; it is
# the same op for every seed, so peak memory does not move with the seed.
CERTIFY_OPERATORS = ("@T", "@T2", "@Tp")
CERTIFY_WRITER = "@T"
CERTIFY_MAX_N = 90
CERTIFY_CORPUS = 4  # the CLI default; every corpus has n + 7 >= 7 terms
NEGATIVE_CONTROL = "\\v f (f) v"
NEGATIVE_STATUS = "tau-not-numeral"

# reduce-stored: four operators x four argument shapes x seven value strata.
# Stratifying the values keeps the total work of a pass nearly the same for
# every seed, while the seed still moves every value, shape and the order.
REDUCE_OPERATORS = ("T1", "T2", "T", "Tp")
REDUCE_SHAPES = ("product", "iteration", "succ-tower", "wrapped")
REDUCE_STRATA = 7
REDUCE_LO, REDUCE_HI = 200, 2000


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Call storop.cli.main in-process, capturing what it prints."""
    import storop.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = storop.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Op:
    label = ""

    def run(self):
        raise NotImplementedError

    def problem(self, outcome) -> str | None:
        raise NotImplementedError


def _expect_rc(rc: int, want: int, err: str) -> str | None:
    if rc != want:
        return f"exit code {rc}, expected {want}; stderr: {err.strip()[:200]}"
    return None


# ---------------------------------------------------------------------------
# certify-builtins


@dataclasses.dataclass
class CertifyOp(Op):
    term: str
    max_n: int
    out_path: Path | None = None
    # a storage operator is certified at every n; the negative control fails
    # at n=0 because f receives the abstract argument itself
    expect_ok: bool = True

    @property
    def label(self):
        return f"certify {self.term}" + (" --out" if self.out_path else "")

    def argv(self) -> list[str]:
        argv = ["certify", self.term, "--max-n", str(self.max_n)]
        if self.out_path is not None:
            argv += ["--out", str(self.out_path)]
        return argv

    def run(self):
        return run_cli(self.argv())

    def problem(self, outcome):
        rc, out, err = outcome
        cert_text = None
        if self.out_path is not None:
            cert_text = self.out_path.read_text(encoding="utf-8")
            self.out_path.unlink()
        lines = out.splitlines()
        if not self.expect_ok:
            return (
                _expect_rc(rc, 1, err)
                or _first_bad(lines[:1], [f"n=0: {NEGATIVE_STATUS} "], prefix=True)
                or _first_bad(
                    lines[-1:], [f"certify: failed at n=0 ({NEGATIVE_STATUS})"]
                )
            )
        ns = range(self.max_n + 1)
        want_prefixes = [f"n={n}: ok machine-steps=" for n in ns]
        want_behavioural = [
            f"behavioral n={n}: {CERTIFY_CORPUS}/{CERTIFY_CORPUS} ok" for n in ns
        ]
        want_last = [f"certify: ok for n <= {self.max_n}"]
        k = len(want_prefixes)
        return (
            _expect_rc(rc, 0, err)
            or (None if len(lines) == 2 * k + 1 else f"{len(lines)} stdout lines, expected {2 * k + 1}")
            or _first_bad(lines[:k], want_prefixes, prefix=True)
            or _first_bad(lines[k : 2 * k], want_behavioural)
            or _first_bad(lines[2 * k :], want_last)
            or (None if cert_text is None else _certificates_problem(cert_text, self.max_n))
        )


def _first_bad(got: list[str], want: list[str], prefix: bool = False) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} lines where {len(want)} were expected"
    for g, w in zip(got, want):
        if not (g.startswith(w) if prefix else g == w):
            return f"line {g[:120]!r}, expected {'a line starting ' if prefix else ''}{w!r}"
    return None


def _certificates_problem(text: str, max_n: int) -> str | None:
    """Each certificate must say: value n, status ok, and tau worth n."""
    blocks = text.split("operator: ")[1:]
    if len(blocks) != max_n + 1:
        return f"--out holds {len(blocks)} certificates, expected {max_n + 1}"
    for n, block in enumerate(blocks):
        lines = set(block.splitlines())
        for want in (f"n: {n}", "status: ok", f"tau-value: {n}"):
            if want not in lines:
                return f"certificate {n} in --out lacks {want!r}"
    return None


def certify_ops(seed: int, work_dir: Path, max_n: int = CERTIFY_MAX_N) -> list[Op]:
    ops: list[Op] = [
        CertifyOp(term, max_n, work_dir / "certificates.txt" if term == CERTIFY_WRITER else None)
        for term in CERTIFY_OPERATORS
    ]
    ops.append(CertifyOp(NEGATIVE_CONTROL, max_n, expect_ok=False))
    random.Random(f"certify-builtins:{seed}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# check-mutants
#
# The five mutation operators are the benchmark's own copy of the ones in
# tests/test_mutations.py: each corrupts one node and returns None where it
# does not apply.


def paths(d, prefix=()):
    yield prefix, d
    for i, p in enumerate(d.premises):
        yield from paths(p, prefix + (i,))


def rebuild_at(d, path, node):
    if not path:
        return node
    ps = list(d.premises)
    ps[path[0]] = rebuild_at(ps[path[0]], path[1:], node)
    return dataclasses.replace(d, premises=tuple(ps))


def wrap_conclusion(node):
    from storop.formulas import Arrow

    return dataclasses.replace(node, type=Arrow(node.type, node.type))


def relabel_as_axiom(node):
    if node.rule == "ax":
        return None
    return dataclasses.replace(node, rule="ax")


def corrupt_witness(node):
    from storop.formulas import FoApp, PredAbstraction, n_type, neg, subst_fo, subst_pred

    if node.rule == "inst-fo":
        new = FoApp("s", (node.witness,))
        body = node.premises[0].type
        if subst_fo(body.body, {body.var: new}) == node.type:
            return None
        return dataclasses.replace(node, witness=new)
    if node.rule == "inst-pred":
        w = node.witness
        new = PredAbstraction(w.params, neg(w.body))
        body = node.premises[0].type
        if subst_pred(body.body, body.var, new) == node.type:
            return None
        return dataclasses.replace(node, witness=new)
    if node.rule == "inst-bot":
        return dataclasses.replace(
            node, witness=PredAbstraction(node.witness.params, n_type(None))
        )
    if node.rule == "eq":
        (name, direction, spath), *rest = node.witness
        flipped = "rl" if direction == "lr" else "lr"
        return dataclasses.replace(node, witness=((name, flipped, spath),) + tuple(rest))
    return None


def add_junk_hypothesis(node):
    from storop.formulas import Bot

    if not node.premises:
        return None
    return dataclasses.replace(node, ctx=node.ctx.extended("q_junk", Bot()))


def rewrite_axiom_context(node):
    from storop.formulas import Arrow
    from storop.typecheck import Context

    if node.rule != "ax":
        return None
    entries = tuple((n, Arrow(a, a)) if n == node.term.name else (n, a) for n, a in node.ctx)
    return dataclasses.replace(node, ctx=Context(entries))


MUTATIONS = (
    wrap_conclusion,
    relabel_as_axiom,
    corrupt_witness,
    add_junk_hypothesis,
    rewrite_axiom_context,
)


@dataclasses.dataclass
class CheckFileOp(Op):
    path: Path
    fragment: str | None
    equations: Path | None
    # read from the file's own text: the number of "(rule" nodes and the
    # root's term and type strings
    expect_nodes: int
    expect_term: str
    expect_type: str

    @property
    def label(self):
        return f"check {self.path.name}"

    def run(self):
        argv = ["check", str(self.path)]
        if self.fragment:
            argv += ["--fragment", self.fragment]
        if self.equations:
            argv += ["--equations", str(self.equations)]
        return run_cli(argv)

    def problem(self, outcome):
        rc, out, err = outcome
        want = [
            f"ok: {self.expect_nodes} nodes",
            f"term: {self.expect_term}",
            f"type: {self.expect_type}",
        ]
        return _expect_rc(rc, 0, err) or _first_bad(out.splitlines(), want)


@dataclasses.dataclass
class MutantOp(Op):
    name: str
    mutation: str
    derivation: object
    kwargs: dict
    expect_path: tuple

    @property
    def label(self):
        return f"mutant {self.name} {self.mutation} at {list(self.expect_path)}"

    def run(self):
        import storop.typecheck

        return storop.typecheck.check_derivation(self.derivation, **self.kwargs)

    def problem(self, report):
        if report.ok:
            return "the mutant was accepted"
        first = report.failures[0][0]
        if tuple(first) != self.expect_path:
            return f"first failure at {list(first)}, expected {list(self.expect_path)}"
        return None


_QUOTED = r'"((?:[^"\\]|\\.)*)"'


def _root_field(text: str, key: str) -> str:
    m = re.search(r"\(" + key + r" " + _QUOTED + r"\)", text)
    if m is None:
        raise ValueError(f"no ({key} ...) in derivation file")
    return re.sub(r"\\(.)", r"\1", m.group(1))


def load_bundle():
    """The bundled derivations as the checker reads them: (name, derivation, kwargs)."""
    import storop.prebuilt

    return [
        (name, storop.prebuilt.load_prebuilt(name), storop.prebuilt.prebuilt_check_args(name))
        for name in storop.prebuilt.prebuilt_names()
    ]


def mutant_ops(bundle) -> list[Op]:
    ops: list[Op] = []
    for name, d, kwargs in bundle:
        for mutate in MUTATIONS:
            for path, node in paths(d):
                mutated = mutate(node)
                if mutated is not None:
                    ops.append(
                        MutantOp(name, mutate.__name__, rebuild_at(d, path, mutated), kwargs, path)
                    )
    return ops


def check_file_ops(bundle, src_root: Path, work_dir: Path) -> list[Op]:
    from storop.prebuilt import EQ_DEMO_EQUATIONS

    deriv_dir = src_root / "storop" / "data" / "derivations"
    ops: list[Op] = []
    for name, _, kwargs in bundle:
        path = deriv_dir / f"{name}.deriv"
        text = path.read_text(encoding="utf-8")
        equations = None
        if "equations" in kwargs:
            equations = work_dir / f"{name}.eqs"
            equations.write_text(EQ_DEMO_EQUATIONS, encoding="utf-8")
        ops.append(
            CheckFileOp(
                path,
                "fperp" if kwargs.get("fragment") == "fperp" else None,
                equations,
                text.count("(rule "),
                _root_field(text, "term"),
                _root_field(text, "type"),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# reduce-stored


def numeral_text(v: int) -> str:
    """How the CLI prints the normal numeral worth v."""
    return "\\x f " + "(f) " * v + "x"


def convoluted_argument(shape: str, target: int, rng: random.Random) -> tuple[str, int]:
    """A term text equal to a numeral near target, and that numeral's value."""
    if shape == "product":
        a = rng.randint(8, 40)
        b = max(2, round(target / a))
        while a * b > REDUCE_HI:
            b -= 1
        while a * b < REDUCE_LO:
            b += 1
        return f"((\\m n x f ((m) x) \\y ((n) y) f) @church:{a} @church:{b})", a * b
    if shape == "iteration":
        return f"((@church:{target}) @zero) @succ", target
    if shape == "succ-tower":
        height = rng.randint(50, 200)
        return "(@succ) " * height + f"@church:{target - height}", target
    if shape == "wrapped":
        # zero wrappers is the bare numeral: the plain storage run
        return "(\\x x) " * rng.randint(0, 3) + f"@church:{target}", target
    raise ValueError(f"unknown shape {shape!r}")


@dataclasses.dataclass
class ReduceOp(Op):
    operator: str
    argument: str
    expect_value: int

    @property
    def label(self):
        return f"reduce @{self.operator} (value {self.expect_value})"

    def text(self) -> str:
        return f"(@{self.operator} ({self.argument})) \\y y"

    def run(self):
        return run_cli(["reduce", "--strategy", "normal", self.text()])

    def problem(self, outcome):
        rc, out, err = outcome
        lines = out.splitlines()
        if len(lines) != 3:
            return f"{len(lines)} stdout lines, expected 3"
        return (
            _expect_rc(rc, 0, err)
            or _first_bad(lines[:1], ["result: " + numeral_text(self.expect_value)])
            or _first_bad(lines[1:2], ["steps: "], prefix=True)
            or _first_bad(lines[2:], ["status: normal-form-reached"])
        )


def reduce_ops(seed: int) -> list[Op]:
    rng = random.Random(f"reduce-stored:{seed}")
    width = (REDUCE_HI - REDUCE_LO) / REDUCE_STRATA
    ops: list[Op] = []
    for operator in REDUCE_OPERATORS:
        for shape in REDUCE_SHAPES:
            for stratum in range(REDUCE_STRATA):
                target = REDUCE_LO + int((stratum + rng.random()) * width)
                argument, value = convoluted_argument(shape, target, rng)
                ops.append(ReduceOp(operator, argument, value))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------


def build_ops(
    workload: str, seed: int, src_root: Path, work_dir: Path, pause=contextlib.nullcontext
) -> list[Op]:
    """The ops of one pass. The benchmark's own use of storop (mutant
    generation) runs under the pause context, so a tracer can skip it."""
    if workload == "certify-builtins":
        return certify_ops(seed, work_dir)
    if workload == "reduce-stored":
        return reduce_ops(seed)
    if workload == "check-mutants":
        bundle = load_bundle()
        with pause():
            mutants = mutant_ops(bundle)
        ops = check_file_ops(bundle, src_root, work_dir) + mutants
        random.Random(f"check-mutants:{seed}").shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")
