#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 kolabench/spread.py [--workloads compile,execute,serve]
        [--seeds 1-10] [--seconds N] [--out results.jsonl]

Run from the repository root. Runs each workload once per seed (untraced),
then prints, per metric, the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json. Quartiles
are `statistics.quantiles(values, n=4)`. Exits 1 when any run fails or any
spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="append every result line here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 else None
            if result is None or not result["correct"] or result["failed"]:
                print("%s seed %d FAILED (exit %d)\n%s" %
                      (workload, seed, done.returncode, done.stderr[-2000:]))
                ok = False
                continue
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "provenance": json.loads(lines[-2]),
                                        "result": result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (n, result["metrics"][n]["value"])
                for n in bounds)), flush=True)
        print("\n%-8s %-16s %12s %12s %12s %8s %6s" %
              ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            flag = ""
            if spread > bounds[name]:
                flag = "  OVER BOUND"
                ok = False
            elif spread > bounds[name] / 3:
                flag = "  over a third of bound"
            print("%-8s %-16s %12.5g %12.5g %12.5g %8.4f %6.2f%s" %
                  (workload, name, median, q1, q3, spread, bounds[name], flag))
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
