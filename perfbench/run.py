"""storop's end-to-end benchmark. See perfbench/README.md.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Each sample is a fresh process
(perfbench/sample.py) that imports storop from ./src, builds the workload's
inputs from the seed and makes exactly one pass over them. Samples run one
at a time (one client, closed loop) while another is expected to end within
S seconds; an untraced run makes at least two passes, a traced run at least
one round. With --trace 0 the end-to-end metrics are printed; with
--trace 1 traced and untraced samples alternate and the per-layer metrics
are printed. Untraced passes time a fixed loop as they go (sample.py), and
every time is scaled to the speed at which that loop takes REF_S, so that
the host's changing speed drops out. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full result, with the
raw samples and a stamp of the kernel lane, Python, nproc, commit and seed,
is saved under perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# After the passes, set-up-only processes run for a tenth of --seconds (and
# at least this many), so setup_s is a median over many cold starts.
SETUP_PROBES = 9
# Untraced runs make at least two passes, so that even certify-builtins
# (one pass is most of a run) reports a median of two.
MIN_PASSES = 2
SAMPLE_TIMEOUT_S = 150
# Times are reported at the speed at which sample.calibration_loop takes
# REF_S: the loop's usual time on the reference machine (perfbench/README.md).
REF_S = 0.0025
# the metrics printed, with their units, are the ones declared here
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, trace: Path | None = None, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload, "--seed", str(seed)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k not in ("STOROP_FUEL", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=SAMPLE_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} sample ran longer than {SAMPLE_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"a {workload} sample exited with code {proc.returncode}")
    sample = json.loads(lines[-1])
    sample["setup_s"] = sample.pop("ready_at") - started
    return sample


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated within the data (never beyond it)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + seconds
    spans = RESULTS / f"spans-{workload}-seed{seed}.csv"
    plain, traced = [], []
    while True:
        plain.append(spawn(workload, seed))
        if trace:
            traced.append(spawn(workload, seed, trace=spans))
        # start another round only if a round of the mean length so far
        # still ends before the deadline; the first MIN_PASSES always run
        now = time.monotonic()
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        if enough and now + (now - start) / len(plain) > deadline:
            break
    probes = []
    probe_deadline = time.monotonic() + seconds / 10
    while not trace and (len(probes) < SETUP_PROBES or time.monotonic() < probe_deadline):
        probes.append(spawn(workload, seed, setup_only=True))

    everything = plain + traced + probes
    lanes = {s["backend"] for s in everything}
    if len(lanes) != 1:
        raise BenchError(f"samples ran on different kernel lanes: {sorted(lanes)}")
    passes = plain + traced
    problems = [p for s in passes for p in s["problems"]]
    for p in problems[:5]:
        print(f"FAILED {p}", file=sys.stderr)
    # Every pass of a run has the same seed, so the same ops in the same
    # order. An op's latency is scaled to the reference speed by the
    # calibration loop timed around it, then its median over the passes.
    scaled = [[t * REF_S / r for t, r in zip(s["latencies_s"], s["ref_s"])] for s in plain]
    op_ms = [statistics.median(op) * 1000 for op in zip(*scaled)]
    result = {
        "workload": workload,
        "trace": trace,
        "stamp": stamp(seed, lanes.pop(), everything[0]["python"]),
        "samples": len(plain),
        "traced_samples": len(traced),
        "attempted": sum(s["attempted"] for s in passes),
        "failed": sum(s["failed"] for s in passes),
        "ops_per_pass": plain[0]["attempted"],
        "raw": {
            "wall_s": [s["wall_s"] for s in plain],
            "setup_s": [s["setup_s"] for s in plain + probes],
            "setup_ref_s": [s["setup_ref_s"] for s in plain + probes],
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
            "traced_wall_s": [s["wall_s"] for s in traced],
            "latencies_s": [s["latencies_s"] for s in plain],
            "ref_s": [s["ref_s"] for s in plain],
        },
    }
    raw = result["raw"]
    if not trace:
        values = {
            "wall_s": sum(op_ms) / 1000,
            "op_ms.p50": percentile(op_ms, 50),
            "op_ms.p90": percentile(op_ms, 90),
            "peak_rss_mb": statistics.median(raw["peak_rss_mb"]),
            "setup_s": statistics.median(
                t * REF_S / r for t, r in zip(raw["setup_s"], raw["setup_ref_s"])
            ),
        }
        declared = SPEC["end_to_end"]
    else:
        values = {k: statistics.median(s["layers"][k] for s in traced) for k in traced[0]["layers"]}
        overhead = statistics.median(raw["traced_wall_s"]) - statistics.median(raw["wall_s"])
        values["trace.overhead_s"] = overhead
        declared = SPEC["per_layer"]
        result["spans_file"] = str(spans.relative_to(ROOT))
    result["metrics"] = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    return result


def stamp(seed: int, backend: str, python: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "backend": backend,
        "python": python,
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def commit() -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def report(result: dict) -> None:
    w = result["workload"]
    print(f"stamp {json.dumps(result['stamp'])}")
    rate = result["failed"] / result["attempted"]
    print(
        f"{w}: {result['samples']} untraced + {result['traced_samples']} traced passes of"
        f" {result['ops_per_pass']} ops; failed {result['failed']}/{result['attempted']},"
        f" error_rate {rate:.4f}"
    )
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if name.startswith("op_ms"):
            note = f"  ({result['ops_per_pass']} ops, each the median of {result['samples']} passes)"
        print(f"  {name:<40} {value:>14.6g} {unit}{note}")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "storop" / "__init__.py").is_file():
        print(f"perfbench: no storop package under {SRC}; run from a storop checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "storop", quiet=1)  # what an install does once
    RESULTS.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    metrics = {}
    for result in results:
        report(result)
        path = RESULTS / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
