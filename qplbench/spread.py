#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, per metric, the median, the
quartiles and the spread (interquartile distance as a share of the median),
the figures the bounds in BENCHMARK.json are checked against.

    python3 qplbench/spread.py --workload rows-gds --seeds 1-10 --seconds 30
    python3 qplbench/spread.py --workload rows-gds --seeds 1-10 --seconds 30 --trace 1

Run from the repository root.  With --json FILE the table is also written
as JSON (one object per metric)."""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json")
    args = parser.parse_args()

    values, units, failed = {}, {}, 0
    for seed in seeds(args.seeds):
        run = subprocess.run(
            ["bash", "qplbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            failed += 1
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        # Figures printed for people only: "<workload> <name> <value> <unit>
        # n=<samples> (table only)", where the name may contain a space.
        for line in run.stdout.splitlines():
            tokens = line.split()
            if line.endswith("(table only)") and len(tokens) >= 7:
                name = " ".join(tokens[1:-5]) + " (table)"
                values.setdefault(name, []).append(float(tokens[-5]))
                units[name] = tokens[-4]

    rows = []
    print(f"{args.workload} trace={args.trace} seeds={args.seeds} seconds={args.seconds}")
    print(f"{'metric':<28} {'unit':<6} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        rows.append({"metric": name, "unit": units[name], "runs": len(vals), "q1": q1,
                     "median": med, "q3": q3, "spread": spread, "values": vals})
        print(f"{name:<28} {units[name]:<6} {q1:>14.6g} {med:>14.6g} {q3:>14.6g} {spread:>8.4f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"workload": args.workload, "trace": args.trace, "seeds": args.seeds,
                       "seconds": args.seconds, "failed_runs": failed, "metrics": rows},
                      out, indent=1)
    if failed:
        sys.exit(f"{failed} runs were not correct")


if __name__ == "__main__":
    main()
