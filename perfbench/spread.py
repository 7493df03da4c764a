#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--seed0 1]
                                [--seconds <s>]

Runs perfbench/run.py once per seed (seed0, seed0+1, ...) and prints, per
metric, the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. A steady benchmark keeps every spread but setup_s below
a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for i in range(a.runs):
        seed = a.seed0 + i
        t0 = time.time()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             a.workload, "--seed", str(seed), "--seconds", str(a.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (seed, out.stderr[-2000:]))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %.1f s, failed %d/%d  %s" % (
            seed, time.time() - t0, result["failed"], result["attempted"],
            " ".join("%s=%.4g" % (k, m["value"])
                     for k, m in result["metrics"].items())), flush=True)

    print("%-22s %12s %8s %8s" % ("metric", "median", "iqr/med", "bound"))
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        b = bounds.get(name)
        print("%-22s %12.5g %8.4f %8s" % (
            name, med, spread, "-" if b is None else b))


if __name__ == "__main__":
    main()
