"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Per-layer metrics that are counts, or ratios of counts, and so repeat exactly.
EXACT = [name for name, unit, _, _ in spans.METRICS
         if unit in ("count", "bits") or name in (
             "superring.product_yield", "jetquot.enumerate_reuse",
             "jetquot.rank_yield", "jetquot.slice_builds_per_query")]


def small_pass(name, seed=3):
    jc, ref = run.load()
    run.build_rings(jc, name)
    ops = workloads.build(name, jc, ref, seed, small=True)
    tally = {"attempted": 0, "failed": 0}
    times = run.run_pass(ops, tally)
    return ops, tally, times


@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_run_is_exact(name):
    _, tally, (ref_s, raw_s) = small_pass(name)
    assert tally["attempted"] > 0
    assert tally["failed"] == 0
    assert ref_s > 0 and raw_s > 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat(name):
    first = run.traced_run(name, 5, small=True)
    second = run.traced_run(name, 5, small=True)
    assert first[1] == second[1] == 0
    assert {m: first[2][m] for m in EXACT} == {m: second[2][m] for m in EXACT}
    assert set(first[2]) == {name for name, _, _, _ in spans.METRICS}


def test_tracer_restores_the_program():
    jc, _ = run.load()
    before = jc.jetquot.Echelon.insert, jc.cli.main
    tracer = spans.Tracer()
    tracer.install(jc)
    assert jc.jetquot.Echelon.insert is not before[0]
    tracer.uninstall()
    assert (jc.jetquot.Echelon.insert, jc.cli.main) == before
    assert tracer.missing == []


def test_membership_has_members_and_non_members():
    jc, ref = run.load()
    ops = workloads.build("membership", jc, ref, 7)
    answers = [op.call() for op in ops if "n2_c1:ab@13" in op.label
               or "lattice:2@12" in op.label]
    assert sorted(answers) == [False, False, True, True]


def bump_last_list(f):
    def wrong(*args, **kwargs):
        out = list(f(*args, **kwargs))
        out[-1] += 1
        return out
    return wrong


def bump_last_series(f):
    def wrong(*args, **kwargs):
        out = f(*args, **kwargs)
        out.c[-1] += 1
        return out
    return wrong


def always_true(f):
    return lambda *args, **kwargs: True


def one_degree_short(f):
    return lambda key, maxdeg2: f(key, maxdeg2 - 1)


@pytest.mark.parametrize("name, target, wrong", [
    ("registry", ("jetquot", "hilbert_series"), bump_last_list),
    ("deep_jets", ("jetquot", "hilbert_series"), bump_last_list),
    ("deep_jets", ("models", "verify"), one_degree_short),
    ("deep_series", ("combinat", "count_constrained"), bump_last_series),
    ("membership", ("jetquot", "contains"), always_true),
])
def test_oracle_catches_wrong_answers(name, target, wrong):
    jc, ref = run.load()
    run.build_rings(jc, name)
    module = getattr(jc, target[0])
    original = getattr(module, target[1])
    setattr(module, target[1], wrong(original))
    try:
        ops = workloads.build(name, jc, ref, 3, small=True)
        tally = {"attempted": 0, "failed": 0}
        run.run_pass(ops, tally)
    finally:
        setattr(module, target[1], original)
    assert tally["failed"] > 0


def test_algebra_agrees_with_the_program():
    jc, _ = run.load()
    for key in ("n2_c1:abc", "lattice:2", "sln_principal:3"):
        spec = jc.models.get_model(key).ring()
        alg, gens = workloads.ring_algebra(spec)
        for g in gens:
            mine = alg.derive(alg.derive(g))
            theirs = spec.parse_poly(spec.poly_str(g))
            theirs = spec.derive(spec.derive(theirs))
            assert spec.parse_poly(alg.format(mine)) == theirs


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in spans.METRICS]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
