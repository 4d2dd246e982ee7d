"""The public surface scripts rely on: every demo runs to completion, and
the package exports exactly the names it advertises.

Each demo asserts what it prints, so exit status 0 means its claims held.
"""
import subprocess
import sys
from pathlib import Path

import pytest

import jetchar

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_every_exported_name_resolves():
    for name in jetchar.__all__:
        assert hasattr(jetchar, name), name
    assert len(set(jetchar.__all__)) == len(jetchar.__all__)


@pytest.mark.parametrize("module, name", [
    ("jetchar", "conjecture_check"), ("jetchar.jetquot", "conjecture_check"),
    ("jetchar", "count_gh"), ("jetchar.combinat", "count_gh"),
    ("jetchar", "dk1_conditions"), ("jetchar.combinat", "dk1_conditions"),
    ("jetchar.qseries", "path_graph_sum"),
    ("jetchar.qseries", "cycle_graph_sum"),
    ("jetchar.combinat", "count_at"),
])
def test_removed_duplicates_stay_gone(module, name):
    """Each job has one entry point: models.verify compares, graphsum:
    formula keys build graph characters, and the rule classes are passed
    to count_constrained directly, whose series gives the count at each
    degree."""
    mod = sys.modules[module]
    assert not hasattr(mod, name)
    assert name not in getattr(mod, "__all__", ())
