"""Unit tests for jet-ideal slices and exact graded dimensions.

Oracles used here are independent of the elimination code: free-ring
dimensions come from product generating functions, the quadratic
single-variable quotient from constrained-partition counting, and the
two-supercurrent numbers from the registered model battery.
"""
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jetchar import (RingSpec, VariableSpec, ResourceLimitError,
                     enumerate_monomials, graded_dimension, hilbert_series,
                     contains, conjecture_check, models, qseries)
from jetchar.jetquot import _Atoms, _TPowers, _int_row, _merge, ideal_rows


def xring(weight2=2, parity="even", relation_power=None):
    variables = (VariableSpec("x", parity, weight2),)
    spec = RingSpec(variables)
    if relation_power is None:
        return spec
    x = spec.var("x")
    p = spec.poly([(1, ())])
    for _ in range(relation_power):
        p = spec.mul(p, x)
    return RingSpec(variables, (p,))


def test_free_even_ring_counts_partitions():
    """Jets of C[x] (weight2=2) at doubled degree 2n: one monomial per
    partition of n (parts = shifted variables x[i] of degree i+1)."""
    spec = xring()
    free = qseries.free_product([(2, "even")], 24)
    for d in range(25):
        assert graded_dimension(spec, d) == free[d], \
            f"free jet dimension at degree2={d}"


def test_free_odd_ring_counts_distinct_partitions():
    spec = RingSpec((VariableSpec("g", "odd", 3),))
    # distinct parts on the grid 3, 5, 7, ... (doubled degrees)
    want = qseries.QSeries(30)
    want.c[0] = 1
    for part in range(3, 31, 2):
        want.imul_one_plus(part)
    dims = hilbert_series(spec, 30)
    for d in range(31):
        assert dims[d] == want[d], f"odd free jets at degree2={d}"


def test_enumerate_monomials_deterministic_and_complete():
    spec = xring()
    monos = enumerate_monomials(spec, 8)
    assert len(monos) == len(set(monos)) == 5  # partitions of 4
    assert monos == enumerate_monomials(spec, 8)
    for mono in monos:
        assert spec.mono_degree2(mono) == 8


def test_quadratic_quotient_matches_difference_two_counts():
    """<x^2> with weight2=2: dimensions are the difference-2 partition
    counts (Rogers-Ramanujan), via the combinat enumerator."""
    from jetchar import ColoredRules, count_constrained
    spec = xring(relation_power=2)
    rules = ColoredRules([("x", 2, False)], {"x": ((1, 4),)})
    counts = count_constrained(rules, 20)
    dims = hilbert_series(spec, 20)
    for d in range(21):
        assert dims[d] == counts[d], f"RR jet dimension at degree2={d}"


def test_hilbert_series_prefix_stability():
    """Truncation monotonicity: lower truncations are prefixes."""
    spec = models.get_model("lattice:3").ring()
    assert hilbert_series(spec, 8) == hilbert_series(spec, 12)[:9]


def test_two_supercurrent_bare_series():
    """The three-variable odd/even/odd model with vanishing odd squares:
    exact elimination values, double-checked by hand via mode bases."""
    spec = models.get_model("n2_c1:bare").ring()
    assert hilbert_series(spec, 10) == [1, 0, 1, 2, 2, 2, 3, 4, 7, 6, 9]


def test_contains_detects_ideal_membership():
    spec = xring(relation_power=2)
    x = spec.var("x")
    assert contains(spec, spec.mul(x, x))
    assert contains(spec, spec.derive(spec.mul(x, x)))
    assert not contains(spec, x)
    assert contains(spec, spec.mul(spec.mul(x, x), x))  # multiples stay inside
    assert not contains(spec, spec.var("x", 3))  # no linear jet is reachable
    assert contains(spec, {})  # zero polynomial is always inside


def test_contains_rejects_inhomogeneous():
    spec = xring(relation_power=2)
    bad = spec.add(spec.var("x"), spec.var("x", 1))
    with pytest.raises(ValueError):
        contains(spec, bad)


def test_conjecture_check_reports_first_mismatch():
    spec = models.get_model("n2_c1:bare").ring()
    char = [qseries.theta_over_eta(3, 10)[d] for d in range(11)]
    rows, first = conjecture_check(spec, char, 10)
    assert first == 8, f"first jet/character deviation should be 8, got {first}"
    assert rows[7]["equal"] and not rows[8]["equal"]


def test_resource_limit_raises():
    spec = models.get_model("lattice:3").ring()
    with pytest.raises(ResourceLimitError):
        hilbert_series(spec, 12, limit=5)


# ------------------------------------------------- integer slice builder

_ATOM_LISTS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       max_size=4)


@settings(max_examples=300, deadline=None)
@given(_ATOM_LISTS, _ATOM_LISTS)
@example([(0, 0), (0, 1)], [(0, 0)])  # a shared odd atom: zero
@example([(0, 1)], [(0, 0)])  # an odd atom moves past another: sign flip
@example([(2, 1), (1, 0)], [(0, 0), (2, 0)])  # equal degrees, two bases
def test_merge_product_matches_fraction_product(left, right):
    """The id merge agrees with spec.mul, which sorts through normalize."""
    spec = RingSpec((VariableSpec("g", "odd", 3), VariableSpec("h", "even", 2),
                     VariableSpec("f", "odd", 1)))
    canon = [spec.normalize(a) for a in (left, right)]
    assume(None not in canon)
    m1, m2 = (mono for _, mono in canon)
    atoms = _Atoms(spec)
    atoms.grow(7)  # the largest atom drawn is g at shift 2
    e1, e2 = atoms.encode(m1), atoms.encode(m2)
    got = _merge(e1, atoms.odd_ids(e1), e2, atoms.odd_ids(e2))
    want = spec.mul({m1: Fraction(1)}, {m2: Fraction(1)})
    if got is None:
        assert want == {}
    else:
        sign, mono = got
        assert want == {tuple(atoms.atom[a] for a in mono): sign}


def _fraction_rows(spec, degree2):
    """Slice rows the reference way: Fraction products, then _int_row."""
    monos = enumerate_monomials(spec, degree2)
    columns = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in list(spec.relations) + list(spec.extras):
        d = spec.degree2(g)
        while g and d <= degree2:
            for m in enumerate_monomials(spec, degree2 - d):
                prod = spec.mul({m: Fraction(1)}, g)
                if prod:
                    rows.append(_int_row(columns, prod))
            g = spec.derive(g)
            d += 2
    rows.sort(key=lambda r: (len(r), min(r)))
    return monos, rows


@pytest.mark.parametrize("key, maxdeg2", [("n2_c1:abc", 16),
                                          ("sln_principal:4", 12),
                                          ("lattice:3", 12)])
def test_ideal_rows_match_fraction_rows(key, maxdeg2):
    spec = models.get_model(key).ring()
    tpowers = _TPowers(spec)
    for d in range(maxdeg2 + 1):
        columns, rows = ideal_rows(spec, d, tpowers=tpowers)
        monos, want = _fraction_rows(spec, d)
        assert [tuple(tpowers.atoms.atom[a] for a in m) for m in columns] == monos
        assert rows == want, f"{key} rows differ at degree2={d}"
