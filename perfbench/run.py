"""Run one benchmark workload of ``jetchar`` and print its metrics.

    python3 perfbench/run.py --workload deep_jets --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the program is imported from ``src/``
and nothing is installed.  One process does everything:

1. Set up: import ``jetchar`` afresh, load the frozen reference, and build
   the rings of the workload's models.
2. Build the seeded operations (untimed).
3. ``--trace 0``: run passes over the operations, in a fixed seeded order,
   until the next pass would end after ``--seconds`` from the start (at
   least ``MIN_PASSES``).  Every result of every pass is checked against
   its oracle.  Before each pass, set-up runs ``SETUPS_PER_PASS`` more
   times, its result unused.
   ``--trace 1``: an untraced and a traced pass in turn, until
   ``--seconds`` would be exceeded (at least one of each).  The
   per-layer metrics come from the traced ring builds and the first
   traced pass, whose spans go to ``perfbench/traces/``.

The host is shared, and other tenants' load can make this process twice
as slow for minutes at a time, so raw times do not repeat between runs.  A
calibration sample (``calibration.py``) therefore runs just before every
operation and every set-up, and times are reported as seconds at the
host speed at which the calibration takes ``calibration.REFERENCE_S``:

* ``wall_s``: the median over passes of (the pass's operation seconds /
  the mean of its calibration samples) * ``REFERENCE_S``.  Just before
  each operation go one calibration sample, plus one for each
  ``REFERENCE_S / CAL_SHARE`` seconds that the operation took in the
  previous pass, so the samples follow the host over the whole pass;
* ``setup_s``: the median over set-ups of (set-up seconds / the
  calibration seconds just before it) * ``REFERENCE_S``;
* ``trace.overhead_ratio``: the median ``wall_s`` of the traced passes
  over that of the untraced ones.

The raw medians are printed on a ``#`` line before the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status 2, and
no result line, when the program or the reference data cannot be loaded.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import types
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_PASS = 3
MIN_PASSES = 2
CAL_SHARE = 0.1
MODULES = ("superring", "jetquot", "qseries", "combinat", "models", "cli")


class SetupError(Exception):
    pass


def import_program():
    """Import ``jetchar`` afresh from ``src/``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "jetchar", "__init__.py")):
        raise SetupError("no jetchar package under %s" % src)
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "jetchar" or n.startswith("jetchar.")]:
        del sys.modules[name]
    try:
        jc = types.SimpleNamespace(**{
            m: importlib.import_module("jetchar." + m) for m in MODULES})
    except ImportError as exc:
        raise SetupError("cannot import jetchar: %s" % exc)
    return jc


def load():
    """Import ``jetchar`` afresh and read the frozen reference."""
    jc = import_program()
    try:
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError("cannot read the reference data: %s" % exc)
    return jc, ref


def build_rings(jc, workload):
    for key in workloads.ring_keys(workload, jc):
        jc.models.get_model(key).ring()


def run_pass(ops, tally, last_s=None):
    """Time each operation once, then check every result.

    Each operation runs right after ``calibration_samples`` calibration
    samples, so that the samples spread over the pass as its time does.
    ``last_s`` holds each operation's time in the previous pass and is
    updated.  Returns the pass's time in reference seconds, rescaled by
    the mean of all its samples, and in raw seconds.
    """
    last_s = last_s if last_s is not None else [0.0] * len(ops)
    results = []
    raw_s = cal_s = 0.0
    samples = 0
    for i, op in enumerate(ops):
        for _ in range(calibration_samples(last_s[i])):
            cal_s += calibration.sample()
            samples += 1
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises has failed
            result = exc
        elapsed = perf_counter() - start
        last_s[i] = elapsed
        raw_s += elapsed
        results.append(result)
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            errors = ["%s raised %r" % (op.label, result)]
            errors *= op.count
        else:
            errors = op.check(result)
        tally["attempted"] += op.count
        tally["failed"] += min(len(errors), op.count)
        for message in errors[:3]:
            print("FAIL: %s" % message, file=sys.stderr)
    return reference_s(raw_s, cal_s / samples), raw_s


def calibration_samples(op_s):
    """Enough samples to calibrate an operation of ``op_s`` seconds with
    ``CAL_SHARE`` of its time, and at least one."""
    return 1 + int(CAL_SHARE * op_s / calibration.REFERENCE_S)


def reference_s(seconds, cal_s):
    """``seconds`` at the host speed at which a calibration sample takes
    ``calibration.REFERENCE_S``, given that it took ``cal_s`` now."""
    return seconds * calibration.REFERENCE_S / cal_s


def timed_setup(workload):
    gc.collect()
    start = perf_counter()
    jc, ref = load()
    build_rings(jc, workload)
    return perf_counter() - start, jc, ref


def timed_run(workload, seed, seconds):
    begin = perf_counter()
    _, jc, ref = timed_setup(workload)  # untimed: the first import compiles
    ops = workloads.build(workload, jc, ref, seed)
    walls, setups, raw_walls, raw_setups = [], [], [], []
    last_s = [0.0] * len(ops)
    tally = {"attempted": 0, "failed": 0}
    last = 0.0
    while len(walls) < MIN_PASSES or perf_counter() - begin + last <= seconds:
        start = perf_counter()
        for _ in range(SETUPS_PER_PASS):
            cal_s = calibration.sample()
            setup_s = timed_setup(workload)[0]
            setups.append(reference_s(setup_s, cal_s))
            raw_setups.append(setup_s)
        gc.collect()
        ref_s, raw_s = run_pass(ops, tally, last_s)
        walls.append(ref_s)
        raw_walls.append(raw_s)
        last = perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = tally["attempted"], tally["failed"]
    print("# %s seed=%d passes=%d ops=%d raw_wall_s=%.4f raw_setup_s=%.5f" % (
        workload, seed, len(walls), len(ops), statistics.median(raw_walls),
        statistics.median(raw_setups)))
    return attempted, failed, {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mib": {"value": peak, "unit": "MiB"},
        "exact_share": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }


def traced_run(workload, seed, seconds=0.0, small=False, out_dir=None):
    """Untraced and traced passes in turn; returns the per-layer metrics.

    The set-up and the first traced pass feed the metrics; the later
    traced passes use a fresh tracer each, and only their times count.
    """
    begin = perf_counter()
    jc, ref = load()
    tracer = spans.Tracer()
    tracer.install(jc)
    try:
        build_rings(jc, workload)
    finally:
        tracer.uninstall()
    ops = workloads.build(workload, jc, ref, seed, small=small)
    tally = {"attempted": 0, "failed": 0}
    walls = {False: [], True: []}
    last_s = {False: [0.0] * len(ops), True: [0.0] * len(ops)}
    last = 0.0
    while not walls[True] or perf_counter() - begin + last <= seconds:
        start = perf_counter()
        for traced in (False, True):
            gc.collect()
            active = tracer if len(walls[True]) == 0 else spans.Tracer()
            if traced:
                active.install(jc)
            try:
                ref_s = run_pass(ops, tally, last_s[traced])[0]
            finally:
                active.uninstall()
            walls[traced].append(ref_s)
        last = perf_counter() - start
    for name in tracer.missing:
        print("# not traced (absent): %s" % name, file=sys.stderr)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, "%s-seed%d.jsonl" % (workload, seed)))
    print("# %s seed=%d traced passes=%d ops=%d" % (
        workload, seed, len(walls[True]), len(ops)))
    untraced, traced = (statistics.median(walls[k]) for k in (False, True))
    return tally["attempted"], tally["failed"], tracer.metrics(untraced, traced)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print("# python %s, nproc %d" % (sys.version.split()[0], os.cpu_count() or 0))
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, args.seconds,
                                out_dir=os.path.join(HERE, "traces"))
        else:
            result = timed_run(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    attempted, failed, metrics = result
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
