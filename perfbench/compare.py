"""Compare two sets of saved benchmark results.

    python3 perfbench/compare.py --base RESULT.json ... --new RESULT.json ...

Each RESULT.json is a file that perfbench/run.py saved under
perfbench/results/. All files must be of one workload and one trace mode and
must come from one kernel lane (storop.backend_name()); otherwise nothing is
compared and the exit code is 2. For every metric it prints each side's
median and quartile spread (IQR as a share of the median) over its runs. For
end-to-end metrics it applies the bound from BENCHMARK.json: "regression"
when the new median is worse than the base median by more than the bound,
"unresolved" when the base runs alone spread wider than the bound. Exit code
1 when any metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--base", nargs="+", required=True, type=Path)
    ap.add_argument("--new", nargs="+", required=True, type=Path)
    args = ap.parse_args()

    sides = {
        side: [json.loads(p.read_text(encoding="utf-8")) for p in paths]
        for side, paths in (("base", args.base), ("new", args.new))
    }
    results = sides["base"] + sides["new"]
    for key, what in (("workload", "workloads"), ("trace", "trace modes")):
        if len({r[key] for r in results}) != 1:
            print(f"compare: refusing to compare results of different {what}", file=sys.stderr)
            return 2
    lanes = {r["stamp"]["backend"] for r in results}
    if len(lanes) != 1:
        print(f"compare: refusing to compare kernel lanes {sorted(lanes)}", file=sys.stderr)
        return 2
    for key in ("python", "nproc"):
        seen = {str(r["stamp"][key]) for r in results}
        if len(seen) != 1:
            print(f"compare: warning: results differ in {key}: {sorted(seen)}", file=sys.stderr)

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"workload {results[0]['workload']}, lane {lanes.pop()},"
          f" {len(sides['base'])} base runs, {len(sides['new'])} new runs")
    print(f"{'metric':<40} {'base':>12} {'spread':>7} {'new':>12} {'spread':>7} {'change':>8}  verdict")
    regressed = False
    for name in results[0]["metrics"]:
        vals = {s: [r["metrics"][name][0] for r in rs] for s, rs in sides.items()}
        base, new = statistics.median(vals["base"]), statistics.median(vals["new"])
        change = (new - base) / base if base else 0.0
        verdict = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = change if bounds[name]["better"] == "lower" else -change
            if spread(vals["base"]) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict, regressed = "regression", True
            else:
                verdict = "within bound"
        print(f"{name:<40} {base:>12.6g} {spread(vals['base']):>7.3f} {new:>12.6g}"
              f" {spread(vals['new']):>7.3f} {change:>+8.3f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
