#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 vrbench/steady.py [--workloads a,b] [--seeds 1-10] [--sets 2]
                              [--exact-seeds 2] [--out FILE]

For every workload, runs the benchmark (tracing off) once per seed and
reports, per end-to-end metric, the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. A spread must stay within the metric's bound in BENCHMARK.json
(setup_s included); the target is a third of it. With --sets 2 the seeds run
twice and the second median may not be worse than the first by more than the
bound. With --exact-seeds N the traced run is made twice on each of the first
N seeds: every per-layer count the run labels "exact" must repeat exactly,
and the spread of "timing" counts is reported.
Exits non-zero when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    """Runs once; returns (record, result), or None when the run failed."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr[-2000:])
        print(f"{workload} seed {seed} trace {trace}: exit {done.returncode}", flush=True)
        return None
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--exact-seeds", type=int, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    ok = True

    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            values = {name: [] for name in metrics}
            for seed in seeds:
                outcome = run(workload, seed, args.seconds, 0)
                if outcome is None:
                    ok = False
                    continue
                record, result = outcome
                report.setdefault("records", []).append(record)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}")
                    ok = False
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        entry = {}
        for name, m in metrics.items():
            rows = []
            for values in sets:
                s = spread(values[name])
                rows.append({"median": statistics.median(values[name]), "spread": s,
                             "values": values[name]})
                if s > m["bound"]:
                    ok = False
            if len(sets) == 2:
                first, second = rows[0]["median"], rows[1]["median"]
                worse = (second - first) / first if m["better"] == "lower" else \
                    (first - second) / first
                rows.append({"second_vs_first_worse_by": worse})
                if worse > m["bound"]:
                    ok = False
            entry[name] = rows
            line = "  ".join(f"median={r['median']:.4g} spread={r['spread']:.3f}"
                             for r in rows if "median" in r)
            flag = "" if all(r.get("spread", 0) < m["bound"] / 3 for r in rows) \
                else "  <-- above a third of the bound"
            print(f"{workload:12s} {name:12s} bound={m['bound']:<5} {line}{flag}",
                  flush=True)
        report["workloads"][workload] = {"end_to_end": entry}

        if args.exact_seeds:
            exact_mismatch, timing = [], {}
            for seed in seeds[:args.exact_seeds]:
                outcomes = [run(workload, seed, args.seconds, 1) for _ in range(2)]
                if None in outcomes:
                    ok = False
                    continue
                a, b = (outcome[0]["metrics"] for outcome in outcomes)
                for name, m in a.items():
                    if m["kind"] == "exact" and m["value"] != b[name]["value"]:
                        exact_mismatch.append([seed, name, m["value"], b[name]["value"]])
                    if m["kind"] == "timing":
                        timing.setdefault(name, []).extend(
                            [m["value"], b[name]["value"]])
            print(f"{workload:12s} exact counts differing between repeats: "
                  f"{exact_mismatch or 'none'}", flush=True)
            for name, values in sorted(timing.items()):
                print(f"{workload:12s} timing count {name}: {values}")
            report["workloads"][workload]["exact_mismatch"] = exact_mismatch
            report["workloads"][workload]["timing_counts"] = timing
            ok = ok and not exact_mismatch

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
