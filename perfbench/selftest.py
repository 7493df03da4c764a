#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py [--seconds 2]

1. A short run of every workload in BENCHMARK.json, untraced and traced:
   each must exit 0 and end with a result line that carries exactly the
   end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json
   names, each finite and with the unit BENCHMARK.json gives it, and
   report no failed operation.
2. Each bitwise gate, deliberately corrupted (--corrupt-gate flips one
   bit of the gate's reference logits), must make the run exit non-zero
   without printing a result line.

Prints one line per check and exits non-zero if any check fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace)] + list(extra)
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except ValueError:
        return None
    return obj if isinstance(obj, dict) and "metrics" in obj else None


def check_metrics(result, wanted):
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append("attempted %s failed %s" % (
            result.get("attempted"), result.get("failed")))
    got = result.get("metrics", {})
    for name, unit in wanted.items():
        m = got.get(name)
        if m is None:
            errors.append("%s missing" % name)
        elif m.get("unit") != unit:
            errors.append("%s unit %r, want %r" % (name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            errors.append("%s value %r not finite" % (name, m.get("value")))
    for name in got:
        if name not in wanted:
            errors.append("%s not in BENCHMARK.json" % name)
    return errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    a = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0

    def report(ok, what, detail=""):
        nonlocal failures
        failures += 0 if ok else 1
        print("%s %s%s" % ("PASS" if ok else "FAIL", what,
                           "" if ok else ": " + detail), flush=True)

    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for trace in (0, 1):
            out = run(w, a.seconds, trace)
            res = result_line(out.stdout)
            if out.returncode != 0 or res is None:
                report(False, "%s trace=%d" % (w, trace),
                       "exit %d\n%s" % (out.returncode, out.stderr[-1500:]))
                continue
            errors = check_metrics(res, wanted[trace])
            report(not errors, "%s trace=%d: %d metrics" % (
                w, trace, len(wanted[trace])), "; ".join(errors))

    gates = [("loaded", workloads[0]), ("oracle", workloads[0]),
             ("served", next(w for w in workloads if w.startswith("serve")))]
    for gate, w in gates:
        out = run(w, 1, 0, ["--corrupt-gate", gate])
        tripped = out.returncode != 0 and result_line(out.stdout) is None \
            and "correctness gate failed" in out.stderr
        report(tripped, "corrupted %s gate trips on %s" % (gate, w),
               "exit %d, stderr %r" % (out.returncode, out.stderr[-300:]))

    print("%d check(s) failed" % failures if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
