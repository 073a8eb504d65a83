"""One sample: a fresh process that sets up one workload and makes one pass.

    python3 perfbench/sample.py --workload NAME --seed N [--trace FILE] [--setup-only]

Prints one JSON line. ``ready_at`` is the CLOCK_MONOTONIC time (shared by
all processes) at which the inputs were ready; the parent subtracts the time
at which it started this process to get the set-up time. Nothing is run
twice, so every op pays the cold costs a CLI user pays.

While a pass runs, a timer interrupts it every CALIBRATE_EVERY_S and times a
fixed loop of plain Python (``calibration_loop``). The loop's time says how
fast the machine runs at that moment. An op's latency leaves out the time of
the loops that ran inside it, and ``ref_s`` gives, for each op, the median
loop time around it; the parent divides by it (see run.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CALIBRATE_EVERY_S = 0.05
# an op's speed is read from the loops timed this close to its start or end
CALIBRATION_WINDOW_S = 0.25
SETUP_CALIBRATIONS = 5
_TABLE = {i: str(i) for i in range(997)}


def calibration_loop() -> int:
    """About 2 ms of dict lookups and int arithmetic. It allocates nothing
    the garbage collector tracks, so storop's heap does not change its time."""
    table, acc = _TABLE, 0
    for i in range(20000):
        acc += len(table[i % 997]) * (i & 7)
    return acc


def time_calibration() -> tuple[float, float]:
    start = time.perf_counter()
    calibration_loop()
    return start, time.perf_counter() - start


class Calibrator:
    """Times calibration_loop from a SIGALRM handler while it is entered."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.spent = 0.0

    def _tick(self, signum, frame):
        start, took = time_calibration()
        self.samples.append((start, took))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, start: float, end: float) -> float:
        """The median loop time near the span [start, end]."""
        lo, hi = start - CALIBRATION_WINDOW_S, end + CALIBRATION_WINDOW_S
        near = [took for at, took in self.samples if lo <= at <= hi]
        if not near:  # no tick came that close: take the nearest one
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return statistics.median(near)


def run_pass(ops, tracer=None, calibrator=None):
    """Time each op's call; check each outcome outside the timing.

    With a calibrator, each latency leaves out the calibration loops that
    ran inside the call, and the op's [start, end] is kept as well."""
    latencies, spans, problems = [], [], []

    def took(start):
        end = time.perf_counter()
        spans.append((start, end))
        latencies.append(end - start - (calibrator.spent - spent if calibrator else 0.0))

    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        spent = calibrator.spent if calibrator else 0.0
        start = time.perf_counter()
        try:
            outcome = op.run()
        except Exception:
            took(start)
            problems.append(f"{op.label}: raised {traceback.format_exc(limit=3)}")
            continue
        took(start)
        try:
            problem = op.problem(outcome)
        except Exception:
            problem = f"oracle raised {traceback.format_exc(limit=3)}"
        if problem is not None:
            problems.append(f"{op.label}: {problem}")
    if calibrator is None:
        return latencies, problems
    return latencies, problems, [calibrator.around(a, b) for a, b in spans]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None, help="record spans and write them to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import storop  # boots the builtins table
    import storop.cli  # noqa: F401  (what the storop command imports)

    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        pause = tracer.pause if tracer else contextlib.nullcontext
        ops = workloads.build_ops(args.workload, args.seed, SRC, Path(tmp), pause)
        ready_at = time.monotonic()
        # the machine's speed just after set-up stands for its speed during it
        setup_ref = statistics.median(time_calibration()[1] for _ in range(SETUP_CALIBRATIONS))
        result = {
            "backend": storop.backend_name(),
            "python": platform.python_version(),
            "ready_at": ready_at,
            "setup_ref_s": setup_ref,
        }
        if not args.setup_only:
            if tracer is None:
                with Calibrator() as calibrator:
                    latencies, problems, ref_s = run_pass(ops, calibrator=calibrator)
                result["ref_s"] = ref_s
            else:
                latencies, problems = run_pass(ops, tracer)
            result.update(
                wall_s=sum(latencies),
                latencies_s=latencies,
                attempted=len(ops),
                failed=len(problems),
                problems=problems[:5],
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
            if tracer is not None:
                result["layers"] = tracer.metrics()
                tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
