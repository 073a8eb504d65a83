"""The benchmark's traced path: with perfbench's Tracer installed, storop
still answers, and every layer the calls below pass through is counted."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run in a fresh process, since Tracer.install patches storop's modules for
# the rest of the process. Prints the exit codes, the check's verdict and
# the tracer's metrics as one JSON line.
SCRIPT = """
import contextlib, dataclasses, io, json, sys
sys.path[:0] = sys.argv[1:3]
from tracing import Tracer

tracer = Tracer()
tracer.install()
import storop.cli
from storop.prebuilt import load_prebuilt
from storop.typecheck import Context, check_derivation

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["reduce", "(@T1 @church:2) f", "--strategy", "normal"],
        ["certify", "@T", "--max-n", "1"],
        ["check", sys.argv[3]],
    ):
        codes.append(storop.cli.main(argv))
d = load_prebuilt("two")
# a root context equal to its premise's, but not the same object, is the
# one context the checker compares by ==
ok = check_derivation(d).ok and check_derivation(dataclasses.replace(d, ctx=Context(d.ctx.entries))).ok
print(json.dumps({"codes": codes, "ok": ok, "metrics": tracer.metrics()}))
"""


def test_traced_calls_answer_and_are_counted():
    deriv = ROOT / "src" / "storop" / "data" / "derivations" / "succ.deriv"
    argv = [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"), str(deriv)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["ok"]
    metrics = result["metrics"]
    assert metrics["cli.main.calls"] == 3
    for layer in (
        "terms.parse_term",
        "terms.print_term",
        "reduction.head_reduce",
        "reduction.normalize",
        "storage.certify",
        "storage.theta_corpus",
        "storage.behavioral_check",
        "formulas.parse_formula",
        "formulas.eq",
        "typecheck.read_derivation",
        "typecheck.context_eq",
        "prebuilt.load_prebuilt",
    ):
        assert metrics[layer + ".calls"] > 0, layer
    # one check through the CLI, two directly
    assert metrics["typecheck.check_derivation.calls"] == 3
    assert metrics["typecheck.check_derivation.nodes"] > 0
    assert metrics["reduction.normalize.steps"] > 0
