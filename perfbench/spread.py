"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads isometry cli --seeds 1-10 [--json PATH]

For every metric it prints the median of the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, the figure a metric's bound in BENCHMARK.json is
compared against.  Beside it stands the spread of the same runs'
figures as measured, before scaling to the speed probe's reference
speed, read from each run file: how much of the spread the scaling
takes out.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list) -> tuple:
    """(median, interquartile distance over the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--json", metavar="PATH", help="also write the runs and spreads here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / ".perfbench_out" / f"run-{workload}-{seed}-trace0.json").read_text())
            result["measured"] = record["measured"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                                                       if k in bounds), flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) >= 2:
                med, iqr = spread(values)
                raw = spread([r["measured"][name] for r in runs])[1]
                rows[name] = {"median": med, "iqr_over_median": iqr, "measured_iqr_over_median": raw,
                              "values": values}
        for name, row in rows.items():
            bound = bounds.get(name)
            flag = "" if bound is None or row["iqr_over_median"] < bound / 3 else "  <-- above a third of the bound"
            print(f"  {workload:<14} {name:<14} median {row['median']:<12.6g} spread {row['iqr_over_median']:.4f}"
                  f"  bound {bound}  (as measured {row['measured_iqr_over_median']:.4f}){flag}")
        report[workload] = {"runs": runs, "spreads": rows}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
