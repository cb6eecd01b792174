#!/usr/bin/env python3
"""Short self-test of the KOLA benchmark.

    python3 kolabench/selftest.py [--seconds 1] [--seed 7]

Run from the repository root. For each workload in BENCHMARK.json, and for
`execute`, it makes two untraced runs and traced runs with the same seed,
and asserts that
  * every metric BENCHMARK.json names is printed, with its unit;
  * no request fails;
  * the traced run checked its decomposed optimizer against
    Optimizer::Optimize and found every plan byte-identical;
  * the exact counts (compile_allocs, exec_allocs, and serve's
    service.hit_frac and service.evictions) repeat across the two runs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_END_TO_END = ("compile_allocs", "exec_allocs")
EXACT_SERVE_LAYER = ("service.hit_frac", "service.evictions")


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise AssertionError("%s trace=%d exited %d:\n%s" %
                             (workload, trace, done.returncode,
                              done.stderr[-3000:]))
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def check_metrics(result, specs, label):
    printed = result["metrics"]
    wanted = {m["name"]: m["unit"] for m in specs}
    missing = sorted(set(wanted) - set(printed))
    extra = sorted(set(printed) - set(wanted))
    assert not missing, "%s: missing metrics %s" % (label, missing)
    assert not extra, "%s: metrics not in BENCHMARK.json %s" % (label, extra)
    for name, unit in wanted.items():
        assert printed[name]["unit"] == unit, "%s: %s has unit %r, want %r" % (
            label, name, printed[name]["unit"], unit)
        assert isinstance(printed[name]["value"], (int, float)), name


def check_clean(result, label):
    assert result["correct"] is True, "%s: not correct" % label
    assert result["failed"] == 0, "%s: %d failed" % (label, result["failed"])
    assert result["attempted"] >= 1, "%s: nothing attempted" % label


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    # `execute` is runnable but not in the gated set (see README.md).
    for workload in [w["name"] for w in bench["workloads"]] + ["execute"]:
        untraced = []
        for attempt in range(2):
            label = "%s untraced #%d" % (workload, attempt + 1)
            _, result = run(workload, args.seed, args.seconds, 0)
            check_clean(result, label)
            check_metrics(result, bench["end_to_end"], label)
            untraced.append(result["metrics"])
        for name in EXACT_END_TO_END:
            a, b = untraced[0][name]["value"], untraced[1][name]["value"]
            assert a == b, "%s: %s differs across runs: %r vs %r" % (
                workload, name, a, b)

        traced = []
        for attempt in range(2 if workload == "serve" else 1):
            label = "%s traced #%d" % (workload, attempt + 1)
            provenance, result = run(workload, args.seed, args.seconds, 1)
            check_clean(result, label)
            check_metrics(result, bench["per_layer"], label)
            sizes = provenance["sizes"]
            if workload != "serve":
                assert sizes["identity_checked"] > 0, label
                assert sizes["identity_mismatches"] == 0, label
            traced.append(result["metrics"])
        if workload == "serve":
            for name in EXACT_SERVE_LAYER:
                a, b = traced[0][name]["value"], traced[1][name]["value"]
                assert a == b, "serve: %s differs across runs: %r vs %r" % (
                    name, a, b)
        print("selftest %s: ok (%s)" % (workload, ", ".join(
            "%s=%.17g" % (n, untraced[0][n]["value"])
            for n in EXACT_END_TO_END)), flush=True)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as error:
        print("selftest FAILED: %s" % error, file=sys.stderr)
        sys.exit(1)
