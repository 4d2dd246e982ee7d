"""The public surface scripts rely on: every demo runs to completion, and
the package exports exactly the names it advertises.  The package's
source holds no floating point.

Each demo asserts what it prints, so exit status 0 means its claims held.
"""
import ast
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
    ("jetchar", "compare"), ("jetchar.combinat", "compare"),
    ("jetchar", "leading_term"), ("jetchar.combinat", "leading_term"),
    ("jetchar", "adjoint_generators_sl2"),
    ("jetchar.models", "adjoint_generators_sl2"),
    ("jetchar.qseries", "rr_sum"),
    ("jetchar.models", "_build_registry"), ("jetchar.models", "_register"),
    ("jetchar.models", "_GRAPH_SHAPES"),
])
def test_removed_duplicates_stay_gone(module, name):
    """Each job has one entry point: models.verify compares, graphsum:
    formula keys build graph characters, the rule classes are passed
    to count_constrained directly, whose series gives the count at each
    degree, RingSpec.atom_key is the one monomial order,
    single_lattice_sum(2) is the Rogers-Ramanujan sum, and the built-in
    models are registry text, read by the one record parser, each graph
    stated once, by its record's graph line.  Code that
    only tests call lives in the tests."""
    mod = sys.modules[module]
    assert not hasattr(mod, name)
    assert name not in getattr(mod, "__all__", ())


def _floats(path):
    """The lines of ``path`` with a float literal or a call of ``float``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and type(node.value) is float
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"]


def test_the_package_holds_no_floating_point():
    """Counts and coefficients are exact (ROADMAP aim 3): no module of the
    package writes a float literal or calls float."""
    paths = sorted((ROOT / "src" / "jetchar").glob("*.py"))
    assert paths
    found = [(path.name, line) for path in paths for line in _floats(path)]
    assert found == []
