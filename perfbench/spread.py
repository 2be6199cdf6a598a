#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 0|1] [--out FILE]

Runs are sequential, one process at a time.  For every workload and metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (interquartile distance over the median) next to the metric's bound
from BENCHMARK.json.  ``--out`` also writes the summary and every run's
result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        default=None, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary: dict = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "report": json.loads(lines[-2]), "result": result})
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  file=sys.stderr)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            if None in values or len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "bound": bounds.get(name),
                "unit": runs[0]["result"]["metrics"][name]["unit"],
            }
            print(f"{workload:16s} {name:52s} median {med:<12.6g} spread "
                  f"{metrics[name]['spread'] if med else float('nan'):.4f} "
                  f"bound {bounds.get(name)}")
        summary[workload] = {"seeds": args.seeds, "metrics": metrics, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
