"""Run workloads over several seeds and summarise every metric.

    python3 perfbench/report.py --seeds 1-10 [--trace 1]

Each run is ``run.py`` in its own process, one after another, for every
workload and ``run_seconds`` from ``BENCHMARK.json``.  For each workload
and metric the table gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread ``(Q3 - Q1) /
median``, next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                                 proc.stderr.strip()[-500:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results, bounds):
    names = sorted({m for r in results for m in r["metrics"]})
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0], None, values[0])
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print("  %-34s %-6s median %-12.6g Q1 %-12.6g Q3 %-12.6g spread %.4f%s"
              % (name, unit, median, q1, q3, spread,
                 "" if bound is None else "  bound %.3f" % bound))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=[1])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in workloads.NAMES:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                workload, seed, result["correct"], result["attempted"],
                result["failed"]), flush=True)
            results.append(result)
        print("%s over %d seeds:" % (workload, len(results)))
        summarise(results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
