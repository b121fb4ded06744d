#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

For every workload and metric it prints the median, the first and third
quartiles (Python's ``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json. With ``--out`` it also writes the summary as JSON, which
is how a baseline is recorded.

Run from the repository root:

    python3 hostbench/sweep.py --runs 10 --trace 0 --out hostbench/baseline/untraced.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.time() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--out", default="", help="write the summary here as JSON")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    workloads = [w for w in opts.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {"runs": opts.runs, "seconds": seconds, "trace": opts.trace, "workloads": {}}
    for w in workloads:
        values, took, correct = {}, [], True
        for i in range(opts.runs):
            seed = opts.first_seed + i
            result, t = run_once(bench["command"], w, seed, seconds, opts.trace)
            took.append(t)
            correct &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed}: {t:.1f} s, correct {result['correct']}", file=sys.stderr)
        rows = {}
        print(f"== {w}: {opts.runs} runs, {statistics.median(took):.1f} s median wall, all correct: {correct}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
            print(f"  {name:40s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:7.4f}" + (f" bound {bound}" if bound is not None else "") + flag)
        summary["workloads"][w] = {"all_correct": correct, "wall_s": took, "metrics": rows}
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
