#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Run from the repository root:

    python3 hostbench/steady.py --seeds 10 [--workloads scale_fault,sweep_journal] [--out FILE]

Runs `hostbench/run.py` once per seed (1..N) for each workload, untraced, and
reports for every end-to-end metric of BENCHMARK.json its median, first and
third quartiles (`statistics.quantiles(values, n=4)`), and the spread
(q3 - q1) / median against the metric's bound. The ungated journal rebuild
times and, for `sweep_journal`, the fleet/journal sweep-time ratio follow.
Writes a Markdown table to FILE (default: standard output). Exits nonzero
if a run fails or reports incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys

UNGATED = [("experiments.resume_s", "s"), ("experiments.fleet_s", "s")]


def record(workload, seed):
    with open(f".bench_out/{workload}-seed{seed}-trace0.json") as f:
        rec = json.load(f)
    if not rec["correct"] or rec["failed"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect output: {rec['errors']}")
    return {k: v["value"] for k, v in rec["metrics"].items()}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({r.returncode}):\n{r.stdout}\n{r.stderr}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    rows = ["| workload | metric | unit | median | q1 | q3 | spread | bound |",
            "|---|---|---|---|---|---|---|---|"]
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            run_once(workload, seed, bench["run_seconds"])
            runs.append(record(workload, seed))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        series = [(m["name"], m["unit"], m["bound"]) for m in bench["end_to_end"]]
        series += [(name, unit, None) for name, unit in UNGATED]
        table = [(name, unit, bound, [r[name] for r in runs]) for name, unit, bound in series]
        if workload == "sweep_journal":
            ratio = [r["experiments.fleet_s"] / r["sweep_s"] for r in runs]
            table.append(("fleet_s/sweep_s", "ratio", None, ratio))
        for name, unit, bound, values in table:
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            rows.append(f"| {workload} | {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                        f"| {spread:.4f} | {'-' if bound is None else bound} |")
    table = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(table)
    else:
        sys.stdout.write(table)


if __name__ == "__main__":
    main()
