"""Unit tests for jet-ideal slices and exact graded dimensions.

Oracles used here are independent of the elimination code: free-ring
dimensions come from product generating functions, the quadratic
single-variable quotient from constrained-partition counting, and the
two-supercurrent numbers from the registered model battery.
"""
import gc
import io
import json
import math
import random
import re
import sys
import threading
import time
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jetchar import (DEFAULT_MONOMIAL_LIMIT, RingSpec, VariableSpec,
                     ResourceLimitError, enumerate_monomials, hilbert_series,
                     cli, contains, jetquot, models, qseries)
from jetchar.jetquot import (_CONTEXTS, Echelon, _TPowers, _int_row,
                             ideal_basis, ideal_rows)


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
        assert hilbert_series(spec, d)[d] == free[d], \
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


# the frozen answers of the benchmark, read here as an oracle
_REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                         / "reference.json").read_text())


@pytest.mark.parametrize("key", models.model_keys())
def test_hilbert_series_matches_the_frozen_registry_reference(key):
    """Every registered model at its default truncation gives the rows of
    the frozen reference, ``[degree2, spanning, jet_dim, character]``:
    its hilbert_series, its spanning count, read off the relations for a
    colored rule, and its character."""
    frozen = _REFERENCE["registry"][key]
    report = models.verify(key)
    assert frozen["maxdeg2"] == report.maxdeg2
    assert [[r["degree2"], r["spanning"], r["jet_dim"], r["character"]]
            for r in report.rows] == frozen["rows"]


@pytest.mark.parametrize("key, depth", [("graph:A4", 24), ("graph:A6", 16),
                                        ("sln_principal:4", 22)])
def test_spanning_counts_match_the_frozen_deep_reference(key, depth):
    """The colored rules read off these relations count, at the
    benchmark's depths, the frozen spanning series."""
    assert models.get_model(key).spanning_series(depth).c == _REFERENCE[
        "series"]["spanning " + key][:depth + 1]


@pytest.mark.parametrize("key, depth", [("sln_principal:4", 16),
                                        ("graph:A4", 18), ("lattice:2", 20),
                                        ("n2_c1:abc", 24)])
def test_hilbert_series_matches_the_frozen_deep_reference(key, depth):
    """The heavy tier at the benchmark's depths gives the prefix of the
    jet_dim column of the frozen deep reference."""
    rows = _REFERENCE["jets"][key]["rows"]
    assert len(rows) > depth
    assert hilbert_series(models.get_model(key).ring(), depth) == [
        jet for _, _, jet, _ in rows[:depth + 1]]


def test_contains_detects_ideal_membership():
    spec = xring(relation_power=2)
    x = spec.var("x")
    assert contains(spec, spec.mul(x, x))
    assert contains(spec, spec.derive(spec.mul(x, x)))
    assert not contains(spec, x)
    assert contains(spec, spec.mul(spec.mul(x, x), x))  # multiples stay inside
    assert not contains(spec, spec.var("x", 3))  # no linear jet is reachable
    assert contains(spec, {})  # zero polynomial is always inside


def test_contains_drops_dead_monomials():
    """On lattice:2, x(-1)*z(-1) is a relation, so its multiples are dead
    columns: adding one changes no answer, and one alone is a member."""
    spec = models.get_model("lattice:2").ring()
    member = spec.derive(spec.parse_poly("x(-1)*y(-1) - z(-1)^2"))
    dead = spec.parse_poly("3/2*x(-1)*z(-1)^2 - y(-1)*x(-1)*z(-1)")
    outside = spec.parse_poly("z(-2)*z(-1)")
    assert contains(spec, member)
    assert contains(spec, spec.add(member, dead))
    assert contains(spec, dead)
    assert contains(spec, spec.parse_poly("x(-1)*y(-1)*z(-1)"))
    assert not contains(spec, outside)
    assert not contains(spec, spec.add(outside, dead))


def test_constant_relation_gives_the_zero_quotient():
    """A constant relation generates the unit ideal: every slice of the
    quotient is 0, and every polynomial is a member."""
    variables = (VariableSpec("x", "even", 2), VariableSpec("g", "odd", 3))
    base = RingSpec(variables)
    for gens in [((base.parse_poly("3"),), ()),
                 ((base.parse_poly("x(-1)^2"),), (base.parse_poly("-1/2"),))]:
        spec = RingSpec(variables, *gens)
        assert hilbert_series(spec, 12) == [0] * 13
        for text in ["1", "x(-1)", "g(-3/2)", "x(-2)*g(-3/2) - x(-1)*g(-5/2)"]:
            assert contains(spec, spec.parse_poly(text))


def test_contains_rejects_inhomogeneous():
    spec = xring(relation_power=2)
    bad = spec.add(spec.var("x"), spec.var("x", 1))
    with pytest.raises(ValueError):
        contains(spec, bad)


def test_contains_ignores_zero_coefficients():
    """The zero polynomial is in every ideal, however it is written: a
    term with coefficient 0 changes no answer and no degree."""
    spec = models.get_model("graph:A4").ring()
    member = spec.derive(spec.parse_poly("x1(-1)*x2(-1)"))
    zero = {m: Fraction(0) for m in spec.parse_poly("x1(-2)*x1(-1)")}
    assert not contains(spec, spec.parse_poly("x1(-2)*x1(-1)"))
    assert contains(spec, zero)
    assert contains(spec, member)
    assert contains(spec, {**member, **zero})
    other_degree = {m: Fraction(0) for m in spec.parse_poly("x3(-1)")}
    assert contains(spec, {**member, **other_degree})


def test_resource_limit_raises():
    spec = models.get_model("lattice:3").ring()
    with pytest.raises(ResourceLimitError):
        hilbert_series(spec, 12, limit=5)


def test_limit_counts_the_standard_monomials_of_the_degree():
    """The cap counts the standard monomials a table holds, not every
    monomial of the degree: lattice:2 has 108 monomials at degree2=10, of
    which 43 are standard, and hilbert_series, which learns cuts, builds
    39 of them at 10 and 64 at 12.  So a cap of 51 answers through 10 and
    refuses 12, and a cap of 60 gives the uncapped series through 10."""
    spec = models.get_model("lattice:2").ring()
    assert len(enumerate_monomials(spec, 10)) == 108
    assert len(ideal_rows(_TPowers(spec, 10, 43), 10)[0]) == 43
    assert len(hilbert_series(spec, 10, limit=51)) == 11
    with pytest.raises(ResourceLimitError,
                       match="^more than 51 monomials at degree2=12$"):
        hilbert_series(spec, 12, limit=51)
    assert hilbert_series(spec, 10, limit=60) == hilbert_series(spec, 10)


def test_limit_counts_the_unit_at_degree_zero():
    """The unit is the one monomial of degree 0, so a cap of 0 refuses
    it, although its table has no blocks."""
    spec = models.get_model("lattice:2").ring()
    with pytest.raises(ResourceLimitError,
                       match="^more than 0 monomials at degree2=0$"):
        hilbert_series(spec, 0, limit=0)
    assert hilbert_series(spec, 0, limit=1) == [1]


@pytest.mark.parametrize("weight2", [91, 111])
def test_limit_bounds_the_tables_below_the_degree(weight2):
    """x of weight2 2 and y of a large odd weight2 have one monomial at
    y's degree, but every table below it is built first, and x alone has
    11 monomials at degree2=12: a cap of 10 refuses there at once, in
    contains as in enumerate_monomials, instead of building every table
    below y."""
    spec = RingSpec((VariableSpec("x", "even", 2),
                     VariableSpec("y", "even", weight2)))
    y = spec.parse_poly("y(-%d/2)" % weight2)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError,
                       match="^more than 10 monomials at degree2=12$"):
        contains(spec, y, limit=10)
    with pytest.raises(ResourceLimitError,
                       match="^more than 10 monomials at degree2=12$"):
        enumerate_monomials(spec, weight2, limit=10)
    assert time.perf_counter() - start < 1


def _outcome(call):
    """What a call returns, or the message of the budget that refuses it."""
    try:
        return call()
    except ResourceLimitError as exc:
        return str(exc)


def test_limit_reaches_contains():
    """One budget, one set of tables: contains learns every degree below
    its query as hilbert_series does, so under each cap a query of
    degree2 D is refused, with the same message, exactly when
    hilbert_series(spec, D, cap) is, and otherwise gets the uncapped
    answer.  On four registered rings, one ring per cap, the degrees 0 to
    14 are asked in a seeded order, so a kept context serves queries above
    and below the ones it has answered or refused."""
    rng = random.Random(25)
    seen = set()
    for key in ("lattice:2", "n1_minimal:2", "n2_c1:abc", "graph:A4"):
        base = models.get_model(key).ring()
        queries = {d: {monos[-1]: Fraction(1)} for d in range(15)
                   if (monos := enumerate_monomials(base, d))}
        want = {d: contains(base, q) for d, q in queries.items()}
        for cap in (4, 10, 22, 39, 70):
            spec = RingSpec(base.variables, base.relations, base.extras)
            order = sorted(queries)
            rng.shuffle(order)
            for d in order:
                series = _outcome(lambda: hilbert_series(spec, d, cap))
                got = _outcome(lambda: contains(spec, queries[d], limit=cap))
                assert got == (series if isinstance(series, str)
                               else want[d]), (key, cap, d)
                seen.add(got if isinstance(got, bool) else "refused")
    assert seen == {True, False, "refused"}


def test_a_kept_context_refuses_where_a_fresh_one_does():
    """x of weight2 2 and y of 7 have 5 monomials at degree2=8, 2 at 9
    and 7 at 10: a cap of 5 answers queries at 8 and 9 and refuses those
    at 10 and 11 at 10.  Every table a kept context holds was built under
    the same cap, so each query, after a lower one or a higher one, gets
    the answer or the refusal that it gets from a fresh context."""
    variables = (VariableSpec("x", "even", 2), VariableSpec("y", "even", 7))
    texts = ["x(-3)", "x(-4)", "x(-1)*y(-7/2)", "x(-5)", "y(-11/2)"]

    def ask(spec, text):
        try:
            return contains(spec, spec.parse_poly(text), limit=5)
        except ResourceLimitError as exc:
            return str(exc)

    refused = "more than 5 monomials at degree2=10"
    fresh = [ask(RingSpec(variables), t) for t in texts]
    assert fresh == [False, False, False, refused, refused]
    for first in texts:
        for k, then in enumerate(texts):
            spec = RingSpec(variables)
            ask(spec, first)
            assert ask(spec, then) == fresh[k], (first, then)


def test_a_dropped_ring_frees_its_context():
    """contains keeps a ring's context only while the ring lives."""
    gc.collect()
    before = len(_CONTEXTS)
    spec = xring(relation_power=2)
    assert contains(spec, spec.mul(spec.var("x"), spec.var("x")))
    assert len(_CONTEXTS) == before + 1
    ring = weakref.ref(spec)
    del spec
    gc.collect()
    assert ring() is None
    assert len(_CONTEXTS) == before


def test_threads_asking_one_ring_get_the_answers_of_one():
    """Each call takes the ring's context out while it uses it, so threads
    that ask a fresh ring at once, at degrees that grow and rebuild its
    context, get the answers that one thread gets."""
    base = models.get_model("lattice:2").ring()
    texts = ["x(-1)^2*z(-2)", "z(-4)", "x(-1)^2*z(-3)", "z(-5)",
             "x(-1)^2*z(-7)", "x(-2)*z(-9)"]
    want = [contains(base, base.parse_poly(t)) for t in texts]
    assert True in want and False in want
    rings = [RingSpec(base.variables, base.relations, base.extras)
             for _ in range(60)]
    orders = [range(6), range(5, -1, -1), (4, 0, 5, 1, 3, 2),
              (1, 3, 5, 0, 2, 4)]
    start = threading.Barrier(len(orders), timeout=20)
    got = []

    def ask(order):
        for spec in rings:
            start.wait()
            got.append([(k, contains(spec, spec.parse_poly(texts[k])))
                        for k in order])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(order,))
                   for order in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == len(rings) * len(orders)
    assert all(answer == want[k] for run in got for k, answer in run)


def test_an_interrupted_query_keeps_no_context(monkeypatch):
    """A query cut short while its context grows leaves no context behind,
    so a half-grown one never answers the ring's next query."""
    spec = xring(relation_power=2)
    square = spec.mul(spec.var("x"), spec.var("x"))
    cube = spec.mul(square, spec.var("x"))
    assert contains(spec, square)
    assert spec in _CONTEXTS

    def interrupt(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as mp:
        mp.setattr(_TPowers, "_table", interrupt)
        with pytest.raises(KeyboardInterrupt):
            contains(spec, cube)
    assert spec not in _CONTEXTS
    assert contains(spec, cube)


def test_budget_stops_an_odd_degree_in_verify_and_contains(capsys):
    """n1_minimal:2 (l even of weight2 4, g odd of weight2 3): verify,
    which learns cuts, builds 90 standard monomials at degree2=31 and 105
    at 32, so a cap of 100 stops it at 32.  At the odd degree 27 its table
    holds 51, the most of any degree up to 27, and contains, which builds
    the same tables, refuses a query there under a cap of 50, as
    hilbert_series to 27 does, and answers it under a cap of 51."""
    assert cli.main(["verify", "--model", "n1_minimal:2", "--maxdeg2",
                     "100000", "--limit", "100"], out=io.StringIO()) == 2
    assert capsys.readouterr().err == (
        "error: resource cap exceeded for n1_minimal:2: "
        "more than 100 monomials at degree2=32\n")
    spec = models.get_model("n1_minimal:2").ring()
    query = spec.parse_poly("l(-3)*l(-2)^4*g(-5/2)")
    for call in (lambda: hilbert_series(spec, 27, limit=50),
                 lambda: contains(spec, query, limit=50)):
        with pytest.raises(ResourceLimitError,
                           match="^more than 50 monomials at degree2=27$"):
            call()
    assert contains(spec, query, limit=51)


def test_a_generator_above_the_top_reaches_no_slice():
    """x of weight2 2 with the relation x(-1)^2 and the extra x(-200), of
    doubled degree 400: at truncation 10 the extra reaches no slice, so a
    context leaves it out and numbers atoms only up to the relation's
    degree 4, not up to 400, and the series is that of the ring without
    the extra."""
    variables = (VariableSpec("x", "even", 2),)
    base = RingSpec(variables)
    square = RingSpec(variables, (base.parse_poly("x(-1)^2"),))
    spec = RingSpec(variables, square.relations,
                    (base.parse_poly("x(-200)"),))
    tpowers = _TPowers(spec, 10, DEFAULT_MONOMIAL_LIMIT)
    assert (tpowers.top, tpowers.base_degree2, tpowers.grown) == (10, [4], 4)
    assert hilbert_series(spec, 10) == hilbert_series(square, 10)


# ------------------------------------------------- integer slice builder

_ATOM_LISTS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       max_size=4)


@settings(max_examples=300, deadline=None)
@given(_ATOM_LISTS, _ATOM_LISTS)
@example([(0, 0), (0, 1)], [(0, 0)])  # a shared odd atom: zero
@example([(0, 1)], [(0, 0)])  # an odd atom moves past another: sign flip
@example([(2, 1), (1, 0)], [(0, 0), (2, 0)])  # equal degrees, two bases
def test_merge_product_matches_fraction_product(left, right):
    """The packed product agrees with spec.mul, which sorts through
    normalize: the sum of the packed forms is the product, a digit 2 on an
    odd atom marks a product that vanishes, and the sign mask gives the
    Koszul sign."""
    spec = RingSpec((VariableSpec("g", "odd", 3), VariableSpec("h", "even", 2),
                     VariableSpec("f", "odd", 1)))
    canon = [spec.normalize(a) for a in (left, right)]
    assume(None not in canon)
    m1, m2 = (mono for _, mono in canon)
    top = spec.mono_degree2(m1) + spec.mono_degree2(m2)
    tpowers = _TPowers(spec, max(top, 7), DEFAULT_MONOMIAL_LIMIT)
    tpowers.grow(7)  # the largest atom drawn is g at shift 2
    p1, p2 = tpowers.encode(m1), tpowers.encode(m2)
    prod = p1 + p2
    want = spec.mul({m1: Fraction(1)}, {m2: Fraction(1)})
    if any(k > 1 for a, k in tpowers.digits(prod) if tpowers.odd[a]):
        assert want == {}
    else:
        flips = (p1 & tpowers.odd_bits & tpowers.flips(p2)).bit_count()
        assert want == {tpowers.decode(prod): -1 if flips & 1 else 1}


def _fraction_products(spec, degree2):
    """Every product ``m * T^j(g)`` of the slice, the reference way.

    Yields ``(i, j, m, nterms, row)``: generator ``i`` (zero generators
    dropped, as in ``_TPowers``), its T-power ``j`` with ``nterms`` terms,
    the atom-tuple factor ``m``, and ``_int_row`` of the ``Fraction``
    product.
    """
    columns = {m: i for i, m in enumerate(enumerate_monomials(spec, degree2))}
    gens = [g for g in list(spec.relations) + list(spec.extras) if g]
    for i, g in enumerate(gens):
        d, j = spec.degree2(g), 0
        while d <= degree2:
            for m in enumerate_monomials(spec, degree2 - d):
                prod = spec.mul({m: Fraction(1)}, g)
                yield i, j, m, len(g), _int_row(columns, prod)
            g = spec.derive(g)
            d, j = d + 2, j + 1


def _echelon(columns, rows):
    ech = Echelon(columns)
    for row in rows:
        ech.insert(row)
    return ech


@pytest.mark.parametrize("dependent", [
    {0: 2, 2: 3},                       # an exact repeat
    {0: -6, 2: -9},                     # a multiple
    {0: 2, 1: 1, 2: 2, 4: 5},           # a sum
    {0: 2, 1: -2, 2: 13, 3: 12, 4: -10},  # a combination of all three
])
def test_echelon_insert_drops_a_dependent_row(dependent):
    """A row in the span of the rows inserted so far reduces to zero: the
    insert reports no new rank and leaves every pivot as it was, so
    ideal_rows may hand the echelon repeated rows."""
    ech = _echelon(dict.fromkeys(range(5)), [{0: 2, 2: 3},
                                            {1: 1, 2: -1, 4: 5},
                                            {2: 4, 3: 6}])
    pivots = {c: dict(row) for c, row in ech.pivots.items()}
    assert ech.rank == 3
    assert ech.insert(dependent) is False
    assert ech.pivots == pivots


def _fraction_rank(rows, n):
    """The rank of sparse rows over ``n`` columns, by ``Fraction``
    Gaussian elimination on dense vectors."""
    basis = {}  # pivot column -> dense row, 1 at the pivot
    for row in rows:
        v = [Fraction(row.get(k, 0)) for k in range(n)]
        for c, b in basis.items():
            if v[c]:
                f = v[c]
                v = [x - f * y for x, y in zip(v, b)]
        lead = next((k for k, x in enumerate(v) if x), None)
        if lead is not None:
            v = [x / v[lead] for x in v]
            for c, b in basis.items():
                if b[lead]:
                    f = b[lead]
                    basis[c] = [x - f * y for x, y in zip(b, v)]
            basis[lead] = v
    return len(basis)


_NONZERO = st.integers(-6, 6).filter(bool)
_ROWS = st.lists(st.dictionaries(st.integers(0, 7), _NONZERO, max_size=4),
                 max_size=10)


@settings(max_examples=300, deadline=None)
@given(_ROWS, st.lists(st.lists(st.integers(-3, 3), min_size=10,
                                max_size=10), max_size=3), _ROWS,
       st.lists(st.integers(-40, 40).filter(bool), min_size=10, max_size=10))
def test_echelon_matches_a_fraction_elimination(rows, combos, others, scales):
    """On random sparse rows with nonzero entries, the echelon's rank is
    the ``Fraction`` rank; ``reduce`` leaves nothing exactly of the rows in
    their span (combinations of the inserted rows and random rows); every
    pivot is primitive and positive at its own, smallest column; and
    ``insert`` changes no row that it is given.  Each row scaled by its
    own nonzero integer gives the same answers and the same pivots, so
    callers need not take out a row's content."""
    ech = Echelon(dict.fromkeys(range(8)))
    scaled = Echelon()
    for k, (row, f) in enumerate(zip(rows, scales)):
        given, rank = dict(row), ech.rank
        grew = ech.insert(row)
        assert row == given
        assert ech.rank == _fraction_rank(rows[:k + 1], 8)
        assert grew == (ech.rank > rank)
        assert scaled.insert({c: f * v for c, v in row.items()}) == grew
    assert ech.rank == _fraction_rank(rows, 8)
    assert scaled.pivots == ech.pivots
    for c, piv in ech.pivots.items():
        assert min(piv) == c and piv[c] > 0
        assert math.gcd(*piv.values()) == 1
        assert all(piv.values())
    probes = others + [
        {k: v for k in range(8) if (v := sum(f * r.get(k, 0)
                                             for f, r in zip(combo, rows)))}
        for combo in combos]
    for probe in probes:
        given = dict(probe)
        inside = _fraction_rank(rows + [probe], 8) == ech.rank
        assert (not ech.reduce(probe)) == inside
        assert probe == given


@settings(max_examples=300, deadline=None)
@given(_ROWS, _ROWS)
def test_rows_handed_over_give_the_pivots_of_inserted_copies(rows, probes):
    """``extend`` reduces the rows it is given where they stand, against
    pivot entries other than 1 too (entries are 1 to 6 in size), and
    gives the pivots and rank that ``insert`` gives on copies, and the
    ``Fraction`` rank.  ``insert`` and ``reduce`` change no row that they
    are given."""
    inserted = Echelon()
    for row in rows:
        given = dict(row)
        inserted.insert(row)
        assert row == given
    handed = Echelon()
    handed.extend([dict(row) for row in rows])
    assert handed.pivots == inserted.pivots
    assert handed.rank == inserted.rank == _fraction_rank(rows, 8)
    for c, piv in handed.pivots.items():
        assert min(piv) == c and piv[c] > 0
        assert math.gcd(*piv.values()) == 1
    for probe in probes:
        given = dict(probe)
        inside = _fraction_rank(rows + [probe], 8) == handed.rank
        assert (not handed.reduce(probe)) == inside
        assert probe == given


@pytest.mark.parametrize("key", models.model_keys())
def test_ideal_basis_hands_over_the_rows_of_inserted_copies(key):
    """At every degree up to min(default truncation, 12), learned as
    hilbert_series learns it, the echelon that ideal_basis builds from the
    rows it hands over has the pivots of an echelon fed copies of the
    same ideal_rows by insert."""
    model = models.get_model(key)
    top = min(model.default_maxdeg2, 12)
    spec = model.ring()
    tpowers = _TPowers(spec, top, DEFAULT_MONOMIAL_LIMIT)
    dims = []
    for d in range(top + 1):
        columns, rows = ideal_rows(tpowers, d)
        copies = _echelon(columns, rows)
        ech, n = ideal_basis(tpowers, d)
        assert ech.pivots == copies.pivots, f"degree2={d}"
        dims.append(n - ech.rank)
        tpowers.cut(d, sorted(c for c, row in ech.pivots.items()
                              if len(row) == 1))
    assert dims == hilbert_series(spec, top)


@pytest.mark.parametrize("key, maxdeg2", [("n2_c1:abc", 16),
                                          ("sln_principal:4", 12),
                                          ("lattice:3", 12)])
def test_ideal_rows_match_fraction_rows(key, maxdeg2):
    """The columns are the monomials that no single-term product covers,
    the rows are, up to content and as a multiset, the Fraction reference
    rows of the products by powers with several terms, restricted to them
    and left nonempty, and the slice spans the reference slice modulo the
    dead columns."""
    spec = models.get_model(key).ring()
    tpowers = _TPowers(spec, maxdeg2, DEFAULT_MONOMIAL_LIMIT)
    for d in range(maxdeg2 + 1):
        columns, rows = ideal_rows(tpowers, d)
        full = enumerate_monomials(spec, d)
        products = list(_fraction_products(spec, d))
        dead = set()
        for _, _, _, nterms, ref in products:
            if nterms == 1:
                dead.update(ref)
        live = [k for k in range(len(full)) if k not in dead]
        assert [tpowers.decode(m) for m in columns] == [full[k] for k in live]
        new_of = {k: n for n, k in enumerate(live)}  # full column -> column
        want, restricted = [], Counter()
        for _, _, _, nterms, ref in products:
            row = {new_of[k]: v for k, v in ref.items() if k in new_of}
            # a factor that a cut divides lands on dead columns only
            if nterms > 1 and row:
                restricted[_row_key(row)] += 1
            if ref:
                want.append(ref)
        # rows go in as built: the echelon takes out their content
        assert Counter(map(_row_key, rows)) == restricted, \
            f"{key} product rows differ at degree2={d}"
        ech = _echelon(columns, rows)
        ref_ech = _echelon({m: k for k, m in enumerate(full)}, want)
        assert len(dead) + ech.rank == ref_ech.rank, \
            f"{key} rank differs at degree2={d}"
        assert not any(ech.reduce({new_of[k]: v for k, v in r.items()
                                   if k in new_of}) for r in want)
        assert not any(ref_ech.reduce({live[k]: v for k, v in r.items()})
                       for r in rows)


def _row_key(row):
    """A sparse integer row divided by the gcd of its entries, hashable."""
    g = math.gcd(*row.values())
    return frozenset((k, v // g) for k, v in row.items())


def _multiset_divides(t, m):
    return not Counter(t) - Counter(m)


def _positions(tpowers, degree2, monomials):
    """The ascending positions in the table of the degree of those of the
    packed ``monomials`` that it holds, as cut() takes them."""
    drop = set(monomials)
    return [k for k, m in enumerate(tpowers.standard(degree2)) if m in drop]


_CUTS = st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          min_size=1, max_size=3), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_CUTS)
@example([[(1, 0), (1, 0)]])  # h[0]^2: a repeated even atom
@example([[(1, 1), (1, 0), (1, 0)], [(1, 0), (1, 0), (1, 0)]])
@example([[(0, 0), (2, 1)], [(2, 0)]])  # odd atoms, alone and in a pair
@example([[(1, 0), (1, 0)], [(1, 0), (1, 1)]])  # both divide h[0]^2 h[1]
def test_pruned_monomials_are_the_undivided_ones(cuts):
    """Building each table from the cut tables below keeps, in order,
    exactly the monomials that no cut divides as a multiset; each cut is
    given to cut(), by its position, when the table of its degree is the
    newest (a cut that a lower one divides is no longer in it)."""
    spec = RingSpec((VariableSpec("g", "odd", 3), VariableSpec("h", "even", 2),
                     VariableSpec("f", "odd", 1)))
    plain = _TPowers(spec, 15, DEFAULT_MONOMIAL_LIMIT)
    pruned = _TPowers(spec, 15, DEFAULT_MONOMIAL_LIMIT)
    pruned.grow(7)  # the largest atom drawn is g at shift 2
    canons = [spec.normalize(cut) for cut in cuts]
    canons = [c[1] for c in canons if c is not None]  # no odd atom twice
    for d in range(16):
        pruned.cut(d, _positions(pruned, d, [
            pruned.encode(c) for c in canons if spec.mono_degree2(c) == d]))
        assert pruned.standard(d) == [
            m for m in plain.standard(d)
            if not any(_multiset_divides(t, plain.decode(m)) for t in canons)]


@pytest.mark.parametrize("text", ["x(-1)*y(-1)", "x(-2)*g(-3/2)"])
def test_a_learned_cut_leaves_the_tables_of_a_single_term_power(text):
    """A monomial given as a single-term extra, and the same monomial
    given to cut(), by its position, when the table of its degree is the
    newest, enter the same index of cuts and leave the same tables, prefix
    lengths included.
    No higher power of these extras has a single term."""
    variables = (VariableSpec("x", "even", 2), VariableSpec("y", "even", 2),
                 VariableSpec("g", "odd", 3))
    base = RingSpec(variables)
    mono = base.parse_poly(text)
    degree2 = base.degree2(mono)
    extra = _TPowers(RingSpec(variables, extras=(mono,)), 14,
                     DEFAULT_MONOMIAL_LIMIT)
    learned = _TPowers(base, 14, DEFAULT_MONOMIAL_LIMIT)
    for d in range(15):
        extra.standard(d)
        learned.standard(d)
        if d == degree2:
            learned.cut(d, _positions(learned, d, map(learned.encode, mono)))
        assert learned._tables[d] == extra._tables[d], f"degree2={d}"
    assert all(len(extra.get(0, j)) > 1
               for j in range(1, (14 - degree2) // 2 + 1))
    assert learned._cuts == extra._cuts


def _brute_standard(spec, degree2):
    """The monomials of the degree that no single-term ``T^j`` of a
    generator divides, by brute force: multisets of atoms from
    ``combinations_with_replacement``, kept when their degree is right, no
    odd atom repeats and no cut divides them, sorted by exponent vector
    over the atoms in canonical order.  The cuts come from the
    ``Fraction`` derivation :meth:`RingSpec.derive`."""
    atoms = sorted(((b, s) for b, v in enumerate(spec.variables)
                    for s in range((degree2 - v.weight2) // 2 + 1)),
                   key=spec.atom_key)
    cuts = []
    for g in spec.relations + spec.extras:
        while g and spec.degree2(g) <= degree2:
            if len(g) == 1:
                cuts.extend(g)
            g = spec.derive(g)
    low = min(v.weight2 for v in spec.variables)
    out = []
    for k in range(degree2 // low + 1):
        # k atoms of degree at least ``low`` leave at most this for each
        room = degree2 - (k - 1) * low
        fit = [a for a in atoms if spec.atom_degree2(a) <= room]
        for mono in combinations_with_replacement(fit, k):
            if (sum(map(spec.atom_degree2, mono)) == degree2
                    and not any(spec.atom_odd(a) and mono.count(a) > 1
                                for a in set(mono))
                    and not any(_multiset_divides(t, mono) for t in cuts)):
                out.append(mono)
    return sorted(out, key=lambda m: [m.count(a) for a in atoms])


@pytest.mark.parametrize("key", models.model_keys())
def test_standard_tables_match_a_brute_force_enumeration(key):
    """Every registered model's standard monomials of degree2 <= 10, in
    the order that the column pivoting and contains rely on, equal an
    enumeration that shares no code with the degree-wise build."""
    spec = models.get_model(key).ring()
    tpowers = _TPowers(spec, 10, DEFAULT_MONOMIAL_LIMIT)
    for d in range(11):
        got = [tpowers.decode(m) for m in tpowers.standard(d)]
        assert got == _brute_standard(spec, d), f"{key} at degree2={d}"


def test_only_the_newest_table_can_be_cut():
    """A cut below the newest table would leave its multiples in the
    tables above it, so it is refused; the newest table loses the monomial
    at the position cut."""
    spec = xring(weight2=1)
    tpowers = _TPowers(spec, 6, DEFAULT_MONOMIAL_LIMIT)
    tpowers.standard(4)
    x = tpowers.encode(((0, 0),))
    for degree2 in (3, 5):
        with pytest.raises(ValueError, match="the newest table is 4$"):
            tpowers.cut(degree2, [])
    assert 4 * x in tpowers.standard(4)
    tpowers.cut(4, [tpowers.standard(4).index(4 * x)])
    assert 4 * x not in tpowers.standard(4)
    assert 5 * x not in tpowers.standard(5)
    assert 5 * x in _TPowers(spec, 6, DEFAULT_MONOMIAL_LIMIT).standard(5)


def test_an_empty_cut_keeps_the_table():
    spec = xring(weight2=1, relation_power=2)
    tpowers = _TPowers(spec, 6, DEFAULT_MONOMIAL_LIMIT)
    tpowers.standard(4)
    table = tpowers._tables[4]
    cuts = {i: list(filed) for i, filed in tpowers._cuts.items()}
    tpowers.cut(4, [])
    assert tpowers._tables[4] is table and tpowers._cuts == cuts


def test_a_slice_without_columns_builds_no_rows(monkeypatch):
    """Every atom of ``a`` is cut, so no monomial of odd degree is
    standard, though the factors of the two-term power of degree 3 are
    (``b`` alone).  A slice with no columns is returned as ``({}, [])``
    without reading a power, so without building a product; so is every
    odd slice of ``graph:A4``."""
    calls = []
    get = _TPowers.get

    def counted(self, i, j):
        calls.append((i, j))
        return get(self, i, j)

    monkeypatch.setattr(_TPowers, "get", counted)
    variables = (VariableSpec("a", "even", 1), VariableSpec("b", "even", 2))
    base = RingSpec(variables)
    spec = RingSpec(variables, (base.parse_poly("a(-1/2)"), base.parse_poly(
        "a(-1/2)*b(-1) + a(-1/2)^3")))
    tpowers = _TPowers(spec, 9, DEFAULT_MONOMIAL_LIMIT)
    for d in range(10):
        tpowers.standard(d)  # which makes the powers of the degree
        del calls[:]
        columns, rows = ideal_rows(tpowers, d)
        if d % 2:
            assert tpowers.standard(d - 3)  # factors of T^0 of the pair
            assert (columns, rows, calls) == ({}, [], [])
        else:
            assert columns
    graph = _TPowers(models.get_model("graph:A4").ring(), 11,
                     DEFAULT_MONOMIAL_LIMIT)
    built = 0
    for d in range(12):
        graph.standard(d)
        del calls[:]
        columns, rows = ideal_rows(graph, d)
        if d % 2:
            assert (columns, rows, calls) == ({}, [], [])
        else:
            assert columns and (calls or not rows)
            built += len(rows)
    assert built  # the even slices do build products
    assert hilbert_series(spec, 9) == [1, 0, 1, 0, 2, 0, 3, 0, 5, 0]


def _learning_check(spec, maxdeg2):
    """hilbert_series equals a path that learns nothing, one fresh slice
    per degree; every cut it learns, decoded, is in the ideal; and its
    standard tables are those of a call that learns nothing, less every
    multiple of a learned cut."""
    learned, called = [], []
    cut = _TPowers.cut

    def record(self, degree2, positions):
        called.append(self)
        table = self.standard(degree2)
        learned.extend(self.decode(table[k]) for k in positions)
        cut(self, degree2, positions)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TPowers, "cut", record)
        dims = hilbert_series(spec, maxdeg2)
    fresh = [n - ech.rank for ech, n in
             (ideal_basis(_TPowers(spec, d, DEFAULT_MONOMIAL_LIMIT), d)
              for d in range(maxdeg2 + 1))]
    assert dims == fresh
    assert all(contains(spec, {m: Fraction(1)}) for m in learned)
    plain = _TPowers(spec, maxdeg2, DEFAULT_MONOMIAL_LIMIT)
    for d in range(maxdeg2 + 1):
        assert called[-1].standard(d) == [
            m for m in plain.standard(d) if not any(
                _multiset_divides(t, plain.decode(m)) for t in learned)]


@pytest.mark.parametrize("key", models.model_keys())
def test_learned_cuts_keep_the_series(key):
    """Every registered model at min(its default truncation, 14)."""
    model = models.get_model(key)
    _learning_check(model.ring(), min(model.default_maxdeg2, 14))


_PRESENTATIONS = st.tuples(
    st.lists(st.tuples(st.sampled_from(("even", "odd")), st.integers(1, 3)),
             min_size=1, max_size=3),
    st.lists(st.lists(st.tuples(st.integers(-2, 2).filter(bool),
                                st.lists(st.integers(0, 2), min_size=1,
                                         max_size=3)),
                      min_size=1, max_size=2),
             min_size=1, max_size=2))

# a = v0, b = v1, c = v2 with a^2 - b and c a: the slice of degree2 5 learns
# the cut b(-1)c(-3/2)
_LEARNING = ([("even", 1), ("even", 2), ("odd", 3)],
             [[(1, [0, 0]), (-1, [1])], [(1, [2, 0])]])


@settings(max_examples=100, deadline=None)
@given(_PRESENTATIONS)
@example(_LEARNING)
def test_learned_cuts_keep_random_series(presentation):
    """Monomial and binomial relations on one to three variables, odd
    ones included, through degree2 10."""
    _learning_check(_random_ring(presentation), 10)


def _kernel_check(spec, maxdeg2):
    """In hilbert_series, every slice's rows are nonempty and in
    nondecreasing ``(len(row), min(row))`` order, and each degree cuts
    exactly the positions of its echelon's single-entry pivots ``{c: 1}``,
    ascending: they leave the table, and each prefix length counts the
    monomials left whose atoms are all at or above its atom."""
    pivots, cuts = [], []
    rows_of, basis_of, cut_of = ideal_rows, ideal_basis, _TPowers.cut

    def rows(tpowers, degree2):
        columns, built = rows_of(tpowers, degree2)
        assert all(built), f"an empty row at degree2={degree2}"
        keys = [(len(row), min(row)) for row in built]
        assert keys == sorted(keys), f"rows out of order at degree2={degree2}"
        return columns, built

    def basis(tpowers, degree2):
        ech, n = basis_of(tpowers, degree2)
        pivots.append(ech.pivots)
        return ech, n

    def cut(self, degree2, positions):
        cuts.append(degree2)
        table = self.standard(degree2)
        assert positions == [c for c, row in sorted(pivots.pop().items())
                             if row == {c: 1}], f"degree2={degree2}"
        cut_of(self, degree2, positions)
        kept, starts = self._tables[degree2]
        assert kept == [m for k, m in enumerate(table) if k not in positions]
        assert starts == [sum(1 for m in kept if not m or self.lowest(m) >= i)
                          for i in range(len(starts))]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jetquot, "ideal_rows", rows)
        mp.setattr(jetquot, "ideal_basis", basis)
        mp.setattr(_TPowers, "cut", cut)
        hilbert_series(spec, maxdeg2)
    assert cuts == list(range(maxdeg2 + 1)) and not pivots


@pytest.mark.parametrize("key", models.model_keys())
def test_the_slice_kernel_keeps_its_invariants(key):
    """Every registered model at min(its default truncation, 12)."""
    model = models.get_model(key)
    _kernel_check(model.ring(), min(model.default_maxdeg2, 12))


@settings(max_examples=60, deadline=None)
@given(_PRESENTATIONS)
@example(_LEARNING)
def test_the_slice_kernel_keeps_its_invariants_on_random_rings(presentation):
    """Monomial and binomial relations on one to three variables, odd
    ones included, through degree2 10."""
    _kernel_check(_random_ring(presentation), 10)


def _random_ring(presentation):
    """The ring of a drawn presentation: each relation keeps the terms of
    its first term's degree, and a presentation left with no nonzero
    relation is discarded."""
    weights, relations = presentation
    variables = [VariableSpec("v%d" % i, parity, weight2)
                 for i, (parity, weight2) in enumerate(weights)]
    spec = RingSpec(variables)
    polys = []
    for terms in relations:
        terms = [(c, [(v % len(variables), 0) for v in mono])
                 for c, mono in terms]
        target = spec.mono_degree2(terms[0][1])
        poly = spec.poly([t for t in terms
                          if spec.mono_degree2(t[1]) == target])
        if poly:
            polys.append(poly)
    assume(polys)
    return RingSpec(variables, polys)


_ATOM_TERMS = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool),
              st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       min_size=1, max_size=4)),
    min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_ATOM_TERMS)
@example([(1, [(2, 0), (0, 0)])])  # f[0] -> f[1] passes g[0]: sign flip
@example([(1, [(2, 0), (2, 1)])])  # f[0] -> f[1] meets f[1]: the term dies
@example([(2, [(1, 0), (1, 0), (1, 0)]),  # h[0]^3: multiplicity 3
          (-3, [(1, 1), (2, 0), (2, 0)])])  # f[0]^2 = 0
@example([(1, [(2, 0), (1, 0), (0, 1)]), (1, [(2, 1), (1, 0), (0, 0)])])
def test_integer_t_matches_fraction_derive(terms):
    """_TPowers.get(0, j) is _int_row of spec.derive applied j times."""
    variables = (VariableSpec("g", "odd", 3), VariableSpec("h", "even", 2),
                 VariableSpec("f", "odd", 1))
    spec = RingSpec(variables)
    target = spec.mono_degree2(terms[0][1])
    poly = spec.poly([t for t in terms if spec.mono_degree2(t[1]) == target])
    assume(poly)
    spec = RingSpec(variables, extras=(poly,))
    tpowers = _TPowers(spec, target + 12, DEFAULT_MONOMIAL_LIMIT)
    for j in range(7):
        got = tpowers.get(0, j)
        want = _int_row({m: m for m in poly}, poly)
        assert {tpowers.decode(t): c for t, c, _ in got} == want
        assert all(flip == tpowers.flips(t) for t, _, flip in got)
        poly = spec.derive(poly)


# --------------------------------------------- width of the packed digits

@pytest.mark.parametrize("top", [15, 16, 31, 32])
@pytest.mark.parametrize("power", ["two", "top"])
def test_packed_digits_reach_the_top_degree(top, power):
    """x of weight2 1 makes x(-1/2)^top a monomial whose digit is top, the
    largest value a digit of width top.bit_length() + 1 must hold below
    its guard bit; with the relation x(-1/2)^top that digit is a cut.  The
    slices and membership agree with the Fraction reference there, and a
    degree above top is refused, not carried into the next digit."""
    k = top if power == "top" else 2
    spec = xring(weight2=1, relation_power=k)
    dims = hilbert_series(spec, top)
    for d in range(top + 1):
        full = enumerate_monomials(spec, d)
        ref = _echelon({m: i for i, m in enumerate(full)},
                       [r for *_, r in _fraction_products(spec, d) if r])
        assert dims[d] == len(full) - ref.rank, f"degree2={d}"
    columns = {m: i for i, m in enumerate(full)}
    every = spec.poly([(1, m) for m in full])
    queries = [spec.parse_poly("x(-1/2)^%d" % top),
               spec.parse_poly("x(-1/2)^%d*x(-3/2)" % (top - 3)), every]
    if k == 2:
        member = spec.mul(spec.parse_poly("x(-1/2)^%d" % (top - 4)),
                          spec.derive(spec.relations[0]))
        queries += [member, spec.add(member, every)]
    want = [not ref.reduce(_int_row(columns, q)) for q in queries]
    assert True in want and False in want
    assert [contains(spec, q) for q in queries] == want
    tpowers = _TPowers(spec, top, DEFAULT_MONOMIAL_LIMIT)
    ideal_rows(tpowers, top)
    with pytest.raises(ValueError, match="above the packed top"):
        tpowers.standard(top + 1)
    with pytest.raises(ValueError, match="above the packed top"):
        tpowers.get(0, (top - k) // 2 + 1)


# ------------------------------------------------------------ membership

def _full_slice_contains(spec, poly):
    """Membership read off a fresh context's whole slice, no degree
    learned."""
    degree2 = spec.degree2(poly)
    tpowers = _TPowers(spec, degree2, DEFAULT_MONOMIAL_LIMIT)
    ech, _ = ideal_basis(tpowers, degree2)
    index = {m: ech.columns.get(tpowers.encode(m)) for m in poly}
    live = {m: c for m, c in poly.items() if index[m] is not None}
    return not ech.reduce(_int_row(index, live))


def _products(spec, degree2):
    """``(T^j(g), factors)`` for every power of degree at most degree2,
    with the monomials ``m`` that make ``m * T^j(g)`` of that degree."""
    out = []
    for g in spec.relations + spec.extras:
        while g and spec.degree2(g) <= degree2:
            factors = enumerate_monomials(spec, degree2 - spec.degree2(g))
            if factors:
                out.append((g, factors))
            g = spec.derive(g)
    return out


def _query(spec, picks, extras):
    """A sum of ``c * m * power`` over the picks, plus ``c * monomial``
    over the extras."""
    poly = {}
    for c, power, m in picks:
        poly = spec.add(poly, spec.scale(spec.mul({m: Fraction(1)}, power), c))
    return spec.add(poly, spec.poly(extras))


def _draw_query(data, spec, degree2, products,
                coeff=st.integers(-2, 2).filter(bool)):
    """A drawn query of the degree, which must have a monomial: a member
    summing one to four products (when the degree has any), plus up to two
    monomials, each with a drawn ``coeff``; a first monomial
    when the sum is zero."""
    monomials = enumerate_monomials(spec, degree2)
    picks = []
    for _ in range(data.draw(st.integers(1, 4)) if products else 0):
        power, factors = data.draw(st.sampled_from(products))
        picks.append((data.draw(coeff), power, data.draw(
            st.sampled_from(factors))))
    extras = data.draw(st.lists(st.tuples(coeff, st.sampled_from(monomials)),
                                max_size=2))
    return _query(spec, picks, extras) or {monomials[0]: Fraction(1)}


@settings(max_examples=100, deadline=None)
@given(_PRESENTATIONS, st.integers(4, 10), st.data())
def test_restricted_contains_matches_the_full_slice(presentation, degree2,
                                                    data):
    """A fresh full slice gives the answer of contains on members, on
    members plus monomials, and on monomials off the columns."""
    spec = _random_ring(presentation)
    products = _products(spec, degree2)
    assume(products and enumerate_monomials(spec, degree2))
    poly = _draw_query(data, spec, degree2, products)
    assert contains(spec, poly) == _full_slice_contains(spec, poly)


@settings(max_examples=50, deadline=None)
@given(_PRESENTATIONS, st.data())
def test_kept_contexts_keep_every_answer(presentation, data):
    """contains keeps one context per ring and builds a new one for a
    query above its packed top.  A run of queries at shuffled degrees, one
    of them above the first context's top, one degree drawn twice and a
    lower one after them, gets the answers of a fresh full slice per
    query.  The first degree is asked again at once, the first query plus
    a new one, so every run reads a kept echelon."""
    spec = _random_ring(presentation)
    live = [d for d in range(1, 12) if enumerate_monomials(spec, d)]
    assume(any(d <= 7 for d in live))

    def ask(degree2, base=None):
        poly = _draw_query(data, spec, degree2, _products(spec, degree2))
        if base is not None:
            poly = spec.add(base, poly) or base
        assert contains(spec, poly) == _full_slice_contains(spec, poly)
        return poly

    low = data.draw(st.sampled_from([d for d in live if d <= 7]))
    ask(low, ask(low))
    first = _CONTEXTS[spec]
    higher = [d for d in live if d > first.top]
    assume(higher)
    above = data.draw(st.sampled_from(higher))
    twice = data.draw(st.sampled_from(live))
    degrees = data.draw(st.permutations(
        [above, twice, twice] + data.draw(st.lists(st.sampled_from(live),
                                                   max_size=2))))
    for degree2 in degrees + [data.draw(st.sampled_from(
            [d for d in live if d < above]))]:
        ask(degree2)
    assert _CONTEXTS[spec] is not first


@settings(max_examples=60, deadline=None)
@given(_PRESENTATIONS, st.integers(4, 6), st.data())
@example(_LEARNING, 5, None)
def test_kept_blocks_give_the_answers_of_fresh_slices(presentation, degree2,
                                                      data):
    """The sum of every monomial of a degree, then drawn queries there,
    which learn the degree and cut its table; a higher query in the same
    context, which learns the degrees between; then the first degree
    again, with every monomial that its cut removed, alone and added to
    each earlier query; then, at a degree between that no query asked,
    the monomials off its cut table, alone and added to a drawn query.
    Each answer, from the echelon kept when its degree was learned, is
    that of a fresh full slice.  The explicit example draws nothing (``data`` is
    None): b(-1)c(-3/2) is cut from the table of 5, and it asks at 7,
    then at 6."""
    spec = _random_ring(presentation)
    monomials = enumerate_monomials(spec, degree2)
    assume(monomials)
    queries = [{m: Fraction(1) for m in monomials}]
    if data is not None:
        products = _products(spec, degree2)
        queries += [_draw_query(data, spec, degree2, products)
                    for _ in range(2)]

    def ask(poly):
        assert contains(spec, poly) == _full_slice_contains(spec, poly)

    for poly in queries:
        ask(poly)
    kept = _CONTEXTS[spec]
    cut = [{kept.decode(m): Fraction(1)} for m in set(
        kept.echelons[degree2].columns) - set(kept.standard(degree2))]
    if data is None:
        assert cut == [spec.parse_poly("v1(-1)*v2(-3/2)")]
    higher = [d for d in range(degree2 + 1, kept.top + 1)
              if enumerate_monomials(spec, d)]
    assume(higher)
    above = higher[-1] if data is None else data.draw(st.sampled_from(higher))
    ask({enumerate_monomials(spec, above)[0]: Fraction(1)})
    assert _CONTEXTS[spec] is kept
    for poly in queries + cut + [spec.add(q, c) or q
                                 for q in queries for c in cut]:
        ask(poly)
    between = [d for d in higher if d < above]
    if not between:
        return
    d = between[0] if data is None else data.draw(st.sampled_from(between))
    table = set(kept.standard(d))
    off = [{m: Fraction(1)} for m in enumerate_monomials(spec, d)
           if kept.encode(m) not in table]
    drawn = ({m: Fraction(1) for m in enumerate_monomials(spec, d)}
             if data is None else _draw_query(data, spec, d, _products(spec, d)))
    for poly in [drawn] + off + [spec.add(drawn, o) or drawn for o in off]:
        ask(poly)


def test_a_kept_block_builds_no_rows_again(monkeypatch):
    """The ring of _LEARNING: a first query at degree2 5 learns, so builds
    the slice of, every degree through 5; a repeated query at 5 builds no
    rows, and the kept echelon of 5 answers b(-1)c(-3/2), which learning 5
    cut from its table.  A query at 7 learns 6 and 7, and keeps the echelon
    of each, so a query at 6, learned but never asked, builds no rows."""
    variables = (VariableSpec("a", "even", 1), VariableSpec("b", "even", 2),
                 VariableSpec("c", "odd", 3))
    base = RingSpec(variables)
    spec = RingSpec(variables, (base.parse_poly("a(-1/2)^2 - b(-1)"),
                                base.parse_poly("c(-3/2)*a(-1/2)")))
    built = []
    rows = ideal_rows

    def counted(tpowers, degree2):
        built.append(degree2)
        return rows(tpowers, degree2)

    monkeypatch.setattr(jetquot, "ideal_rows", counted)

    def ask(text):
        del built[:]
        return contains(spec, spec.parse_poly(text)), list(built)

    member = "b(-1)*c(-3/2)"
    assert ask(member) == (True, [0, 1, 2, 3, 4, 5])
    kept = _CONTEXTS[spec]
    assert kept.encode(spec.parse_poly(member).popitem()[0]) not in (
        kept.standard(5))
    assert ask(member) == (True, [])
    assert ask("a(-1/2)^2*c(-3/2)") == (True, [])
    assert ask(member + " + a(-5/2)") == (False, [])
    assert ask("c(-7/2)") == (False, [6, 7])
    assert ask("a(-1/2)^2*b(-2) - b(-1)*b(-2)") == (True, [])
    assert ask("a(-1/2)^2*b(-2)") == (False, [])
    assert _CONTEXTS[spec] is kept


@settings(max_examples=60, deadline=None)
@given(_PRESENTATIONS, st.lists(st.integers(0, 12), min_size=1, max_size=4))
@example(_LEARNING, [5, 8])
def test_a_kept_context_holds_the_tables_of_hilbert_series(presentation,
                                                           degrees):
    """After queries at drawn degrees in any order, the tables of the
    ring's kept context, decoded, are those of hilbert_series' context at
    every degree through its newest table, which a query learns too: a
    standard table depends only on the ring and its degree, whichever
    entry point built it."""
    spec = _random_ring(presentation)
    for d in degrees:
        monos = enumerate_monomials(spec, d)
        if monos:
            contains(spec, {monos[0]: Fraction(1)})
    kept = _CONTEXTS.get(spec)
    assume(kept is not None)
    newest = len(kept._tables) - 1
    made = []

    class Recorded(_TPowers):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jetquot, "_TPowers", Recorded)
        hilbert_series(spec, newest)
    for d in range(newest + 1):
        assert list(map(kept.decode, kept.standard(d))) == list(
            map(made[0].decode, made[0].standard(d))), f"degree2={d}"


@pytest.mark.parametrize("key", models.model_keys())
def test_restricted_contains_matches_the_full_slice_on_every_model(key):
    """At min(default truncation, 10) and the two degrees below it, asked
    in that descending order of one ring, so the later degrees read tables
    that a higher query built: at each degree with a monomial, a seeded
    member that sums products from six random powers and factors, that
    member plus a monomial, and on their own eight random monomials and
    four off the columns."""
    model = models.get_model(key)
    spec = model.ring()
    top = min(model.default_maxdeg2, 10)
    rng = random.Random(key)
    queries = []
    for degree2 in range(top, top - 3, -1):
        products = _products(spec, degree2)
        monomials = enumerate_monomials(spec, degree2)
        if not monomials:
            continue
        picks = []
        for _ in range(6 if products else 0):  # graph:A1 has no relation
            power, factors = rng.choice(products)
            picks.append((rng.choice((-2, -1, 1, 2)), power,
                          rng.choice(factors)))
        member = _query(spec, picks, [])
        queries += [member, _query(spec, picks, [(1, rng.choice(monomials))])]
        tpowers = _TPowers(spec, degree2, DEFAULT_MONOMIAL_LIMIT)
        columns = set(map(tpowers.decode, tpowers.standard(degree2)))
        off = [m for m in monomials if m not in columns]
        queries += [{m: Fraction(1)} for m in rng.sample(monomials, min(
            8, len(monomials))) + rng.sample(off, min(4, len(off)))]
    got = [contains(spec, q) for q in queries]
    assert got == [_full_slice_contains(spec, q) for q in queries]
    assert got[0] is True


_MIXED = (Fraction(1, 3), Fraction(-5, 4), Fraction(7, 2))


@settings(max_examples=60, deadline=None)
@given(_PRESENTATIONS, st.integers(4, 10), st.data())
def test_fraction_queries_asked_twice_match_the_full_slice(presentation,
                                                           degree2, data):
    """contains scales a query to integers by its common denominator.  A
    drawn query with coefficients of mixed denominators, up to three drawn
    monomials with such coefficients, and the two added, each asked twice
    in one kept context, get the answers of a fresh full slice; the
    second round only reads the kept echelon."""
    spec = _random_ring(presentation)
    products = _products(spec, degree2)
    monomials = enumerate_monomials(spec, degree2)
    assume(products and monomials)
    coeff = st.sampled_from(_MIXED)
    drawn = _draw_query(data, spec, degree2, products, coeff)
    spread = spec.poly((data.draw(coeff), m) for m in data.draw(
        st.lists(st.sampled_from(monomials), min_size=1, max_size=3,
                 unique=True)))
    queries = [drawn, spread, spec.add(drawn, spread) or drawn]
    want = [_full_slice_contains(spec, q) for q in queries]
    assert [contains(spec, q) for q in queries] == want
    kept = _CONTEXTS[spec]
    assert [contains(spec, q) for q in queries] == want
    assert _CONTEXTS[spec] is kept


@settings(max_examples=60, deadline=None)
@given(_PRESENTATIONS, st.integers(4, 10), st.data())
def test_zero_terms_and_mixed_coefficients_match_the_full_slice(
        presentation, degree2, data):
    """contains reads a query in one pass: a drawn query whose whole
    coefficients are drawn as ``int`` or ``Fraction``, with zero terms
    (``0``, ``Fraction(0)`` or ``0.0``) mixed in at its degree and at
    others, gets the answer of a fresh full slice on its nonzero terms."""
    spec = _random_ring(presentation)
    products = _products(spec, degree2)
    assume(products and enumerate_monomials(spec, degree2))
    coeff = st.sampled_from((1, -2, 3) + _MIXED)
    drawn = _draw_query(data, spec, degree2, products, coeff)
    poly = {}
    for m, c in drawn.items():
        whole = c.denominator == 1 and data.draw(st.booleans())
        poly[m] = int(c) if whole else c
    zeros = [m for d in (degree2 - 1, degree2, degree2 + 1)
             for m in enumerate_monomials(spec, d) if m not in poly]
    for m in data.draw(st.lists(st.sampled_from(zeros), max_size=4)
                       if zeros else st.just([])):
        poly[m] = data.draw(st.sampled_from((0, Fraction(0), 0.0)))
    order = data.draw(st.permutations(list(poly)))
    poly = {m: poly[m] for m in order}
    assert contains(spec, poly) == _full_slice_contains(spec, drawn)


def test_contains_refuses_a_key_out_of_canonical_order(monkeypatch):
    """Two orders of one monomial would pack to one column, so a query
    written with both would lose a term: a key whose atoms are not in
    canonical order is refused, and the canonical key is still read.  The
    refusal keeps the ring's context, learned as any query leaves it, so
    the next query of the ring learns no degree again."""
    spec = models.get_model("lattice:2").ring()
    (m, _), = spec.parse_poly("z(-1)*x(-2)").items()
    flipped = tuple(reversed(m))
    assert spec.normalize(flipped) == (1, m) and flipped != m
    _CONTEXTS.pop(spec, None)
    with pytest.raises(ValueError, match="canonical"):
        contains(spec, {m: 1, flipped: -1})
    kept = _CONTEXTS[spec]
    with pytest.raises(ValueError, match=re.escape(str(flipped))):
        contains(spec, {flipped: 1})
    assert _CONTEXTS[spec] is kept
    learned = []
    learn = jetquot._learn

    def counted(tpowers, degree2):
        learned.append(degree2)
        return learn(tpowers, degree2)

    monkeypatch.setattr(jetquot, "_learn", counted)
    assert not contains(spec, {m: 1})
    assert learned == [] and _CONTEXTS[spec] is kept


@pytest.mark.parametrize("atom", [(0, -1), (7, 0), (0, 0.5), (0, 1.0),
                                  (0.0, 0), (0, 2.0), 5, (0, 1, 2), (0,)])
def test_contains_refuses_an_atom_not_of_the_ring(monkeypatch, atom):
    """A key whose atom has a negative shift, a base past the ring's
    variables, or a base or shift that is not an int, or that is not a
    pair at all, is refused with a ValueError that names the atom, before
    any slice is built, and the ring's kept context is put back, whether
    the atom is alone in its key or follows a good one.  (0, 2.0) equals
    the atom of x(-3), whose degree is that of the other key."""
    spec = models.get_model("lattice:2").ring()
    (m, _), = spec.parse_poly("z(-1)*x(-2)").items()
    assert not contains(spec, {m: 1})
    kept = _CONTEXTS[spec]
    learned = []
    learn = jetquot._learn
    monkeypatch.setattr(jetquot, "_learn",
                        lambda tpowers, d: learned.append(d) or learn(tpowers, d))
    for query in ({(atom,): 1}, {m: 1, (atom,): 2}, {((0, 0), atom): 1}):
        with pytest.raises(ValueError, match=re.escape(str(atom))):
            contains(spec, query)
        assert _CONTEXTS[spec] is kept and learned == []
    _CONTEXTS.pop(spec)
    with pytest.raises(ValueError, match=re.escape(str(atom))):
        contains(spec, {(atom,): 1})
    assert spec not in _CONTEXTS


def test_contains_refuses_a_float_coefficient():
    """Coefficients are exact: a float is refused with a TypeError that
    names it, before any slice is built; a zero float is dropped like any
    zero coefficient."""
    spec = models.get_model("lattice:2").ring()
    (m, _), = spec.parse_poly("z(-1)*x(-2)").items()
    _CONTEXTS.pop(spec, None)
    with pytest.raises(TypeError, match="float: 0.5"):
        contains(spec, {m: 0.5})
    assert spec not in _CONTEXTS
    assert contains(spec, {m: 0.0})
    assert not contains(spec, {m: 1})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.data())
def test_mono_degree2_is_the_sum_of_its_atom_degrees(weights, data):
    """RingSpec.mono_degree2 reads the weights directly; it agrees with
    the per-atom atom_degree2 on drawn atom tuples, in any order."""
    spec = RingSpec([VariableSpec("v%d" % i, "even", w)
                     for i, w in enumerate(weights)])
    mono = data.draw(st.lists(st.tuples(st.integers(0, len(weights) - 1),
                                        st.integers(0, 4)), max_size=5))
    assert spec.mono_degree2(tuple(mono)) == sum(
        spec.atom_degree2(a) for a in mono)
