"""Self-tests of the benchmark's oracles, seeding and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import workloads  # noqa: E402
from sample import CALIBRATE_EVERY_S, Calibrator, run_pass  # noqa: E402


def error_rate(ops):
    latencies, problems = run_pass(ops)
    assert len(latencies) == len(ops)
    return len(problems) / len(ops)


def test_right_expectations_give_no_errors(tmp_path):
    bundle = workloads.load_bundle()
    ops = [
        workloads.CertifyOp("@T2", 3, tmp_path / "certs.txt"),
        workloads.CertifyOp(workloads.NEGATIVE_CONTROL, 3, expect_ok=False),
        workloads.ReduceOp("T", "@church:3", 3),
        workloads.ReduceOp("T1", "((@church:4) @zero) @succ", 4),
        workloads.check_file_ops(bundle, SRC, tmp_path)[0],
        workloads.mutant_ops(bundle)[0],
    ]
    assert error_rate(ops) == 0


def test_corrupted_expectations_drive_error_rate_above_zero(tmp_path):
    bundle = workloads.load_bundle()
    check_file = workloads.check_file_ops(bundle, SRC, tmp_path)[0]
    mutant = workloads.mutant_ops(bundle)[0]
    corrupted = [
        workloads.CertifyOp("@T2", 3, expect_ok=False),
        workloads.CertifyOp(workloads.NEGATIVE_CONTROL, 3),
        workloads.ReduceOp("T", "@church:3", 4),
        dataclasses.replace(check_file, expect_nodes=check_file.expect_nodes + 1),
        dataclasses.replace(mutant, expect_path=mutant.expect_path + (0,)),
    ]
    for op in corrupted:
        assert error_rate([op]) == 1, op.label
    right = workloads.ReduceOp("T", "@church:3", 3)
    assert error_rate([right] * 3 + corrupted[2:3]) == 0.25


def test_an_exception_counts_as_a_failed_op():
    class Broken(workloads.Op):
        label = "broken"

        def run(self):
            raise RuntimeError("boom")

    assert error_rate([Broken(), workloads.ReduceOp("T", "@church:2", 2)]) == 0.5


def test_calibration_time_is_left_out_of_latencies():
    class Busy(workloads.Op):
        label = "busy"

        def run(self):
            deadline = time.perf_counter() + 10 * CALIBRATE_EVERY_S
            while time.perf_counter() < deadline:
                pass

        def problem(self, outcome):
            return None

    with Calibrator() as calibrator:
        latencies, problems, ref_s = run_pass([Busy(), Busy()], calibrator=calibrator)
    # the op ends at a fixed wall time, so its latency is that time less the
    # loops the timer ran inside it
    assert len(calibrator.samples) >= 10
    assert all(t < 10 * CALIBRATE_EVERY_S - 0.001 for t in latencies)
    assert len(ref_s) == 2 and all(r > 0 for r in ref_s)


def test_inputs_follow_the_seed():
    def texts(seed):
        return [op.text() for op in workloads.reduce_ops(seed)]

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)
    ops = workloads.reduce_ops(5)
    assert len(ops) >= 100
    assert all(workloads.REDUCE_LO <= op.expect_value <= workloads.REDUCE_HI for op in ops)


def test_tracer_times_only_the_outermost_call():
    script = f"""
import json, sys
sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]
import storop.cli
from tracing import Tracer
import workloads
tracer = Tracer()
tracer.install()
rc, out, _ = workloads.run_cli(["reduce", "(@succ) (@succ) @church:2"])
print(json.dumps([out, tracer.metrics()]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    out, m = json.loads(proc.stdout)
    steps = int(out.splitlines()[1].split()[1])
    assert m["cli.main.calls"] == 1
    assert m["terms.parse_term.calls"] == 1
    assert m["terms.print_term.calls"] == 1  # print_term recurses; one span
    assert m["reduction.head_reduce.calls"] == 1
    assert m["reduction.head_reduce.steps"] == steps
    assert m["formulas.eq.calls"] == 0
