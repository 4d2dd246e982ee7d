"""Unit tests for jet-ideal slices and exact graded dimensions.

Oracles used here are independent of the elimination code: free-ring
dimensions come from product generating functions, the quadratic
single-variable quotient from constrained-partition counting, and the
two-supercurrent numbers from the registered model battery.
"""
import io
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jetchar import (DEFAULT_MONOMIAL_LIMIT, RingSpec, VariableSpec,
                     ResourceLimitError, enumerate_monomials, hilbert_series,
                     cli, contains, models, qseries)
from jetchar.jetquot import (Echelon, _Atoms, _TPowers, _int_row,
                             _product_row, ideal_basis, ideal_rows)


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


def test_resource_limit_raises():
    spec = models.get_model("lattice:3").ring()
    with pytest.raises(ResourceLimitError):
        hilbert_series(spec, 12, limit=5)


def test_limit_counts_every_monomial_of_the_degree():
    """The cap counts all monomials of a degree, not only the standard
    columns: lattice:2 has 51 monomials at degree2=8 and 108 at 10, of
    which 43 are standard."""
    spec = models.get_model("lattice:2").ring()
    assert [len(enumerate_monomials(spec, d)) for d in (8, 10)] == [51, 108]
    assert len(ideal_rows(_TPowers(spec, 10, 108), 10)[0]) == 43
    assert len(hilbert_series(spec, 8, limit=51)) == 9
    with pytest.raises(ResourceLimitError,
                       match="^more than 51 monomials at degree2=10$"):
        hilbert_series(spec, 12, limit=51)


def test_limit_reaches_contains():
    """contains builds its slice under the same budget: lattice:2 has 108
    monomials at degree2=10, so a cap of 107 refuses a query there and a
    cap of 108 answers it."""
    spec = models.get_model("lattice:2").ring()
    member, other = spec.parse_poly("x(-1)^2*z(-3)"), spec.parse_poly("z(-5)")
    for q in (member, other):
        with pytest.raises(ResourceLimitError,
                           match="^more than 107 monomials at degree2=10$"):
            contains(spec, q, limit=107)
    assert [contains(spec, q, limit=108) for q in (member, other)] == [
        True, False]


def test_budget_stops_an_odd_degree_in_verify_and_contains(capsys):
    """n1_minimal:2 (l even of weight2 4, g odd of weight2 3) has 81
    monomials at degree2=26 and 101 at the odd degree 27: a cap of 100
    stops verify there, and refuses a query there that a cap of 101
    answers."""
    assert cli.main(["verify", "--model", "n1_minimal:2", "--maxdeg2",
                     "100000", "--limit", "100"], out=io.StringIO()) == 2
    assert capsys.readouterr().err == (
        "error: resource cap exceeded for n1_minimal:2: "
        "more than 100 monomials at degree2=27\n")
    spec = models.get_model("n1_minimal:2").ring()
    query = spec.parse_poly("l(-3)*l(-2)^4*g(-5/2)")
    with pytest.raises(ResourceLimitError,
                       match="^more than 100 monomials at degree2=27$"):
        contains(spec, query, limit=100)
    assert contains(spec, query, limit=101)


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
    atoms = _Atoms(spec, max(top, 7))
    atoms.grow(7)  # the largest atom drawn is g at shift 2
    p1, p2 = atoms.encode(m1), atoms.encode(m2)
    prod = p1 + p2
    want = spec.mul({m1: Fraction(1)}, {m2: Fraction(1)})
    if any(k > 1 for a, k in atoms.digits(prod) if atoms.odd[a]):
        assert want == {}
    else:
        flips = (p1 & atoms.odd_bits & atoms.flips(p2)).bit_count()
        assert want == {atoms.decode(prod): -1 if flips & 1 else 1}


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


@pytest.mark.parametrize("key, maxdeg2", [("n2_c1:abc", 16),
                                          ("sln_principal:4", 12),
                                          ("lattice:3", 12)])
def test_ideal_rows_match_fraction_rows(key, maxdeg2):
    """The columns are the monomials that no single-term product covers,
    each product row is the Fraction reference restricted to them, and the
    slice spans the reference slice modulo the dead columns."""
    spec = models.get_model(key).ring()
    tpowers = _TPowers(spec, maxdeg2, DEFAULT_MONOMIAL_LIMIT)
    atoms = tpowers.atoms
    for d in range(maxdeg2 + 1):
        columns, rows = ideal_rows(tpowers, d)
        full = enumerate_monomials(spec, d)
        products = list(_fraction_products(spec, d))
        dead = set()
        for _, _, _, nterms, ref in products:
            if nterms == 1:
                dead.update(ref)
        live = [k for k in range(len(full)) if k not in dead]
        assert [atoms.decode(m) for m in columns] == [full[k] for k in live]
        new_of = {k: n for n, k in enumerate(live)}  # full column -> column
        want = []
        for i, j, m, _, ref in products:
            e = atoms.encode(m)
            got = _product_row(columns, e, e & atoms.odd_bits,
                               tpowers.get(i, j))
            restricted = {new_of[k]: v for k, v in ref.items() if k in new_of}
            g = math.gcd(*restricted.values())
            assert got == {k: v // g for k, v in restricted.items()}, \
                f"{key} product row differs at degree2={d}"
            if ref:
                want.append(ref)
        ech = _echelon(columns, rows)
        ref_ech = _echelon({m: k for k, m in enumerate(full)}, want)
        assert len(dead) + ech.rank == ref_ech.rank, \
            f"{key} rank differs at degree2={d}"
        assert not any(ech.reduce({new_of[k]: v for k, v in r.items()
                                   if k in new_of}) for r in want)
        assert not any(ref_ech.reduce({live[k]: v for k, v in r.items()})
                       for r in rows)


def _multiset_divides(t, m):
    return not Counter(t) - Counter(m)


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
    given with its degree."""
    spec = RingSpec((VariableSpec("g", "odd", 3), VariableSpec("h", "even", 2),
                     VariableSpec("f", "odd", 1)))
    atoms = _Atoms(spec, 15)
    atoms.grow(7)  # the largest atom drawn is g at shift 2
    canons = [spec.normalize(cut) for cut in cuts]
    canons = [c[1] for c in canons if c is not None]  # no odd atom twice
    encoded = [(atoms.encode(c), spec.mono_degree2(c)) for c in canons]
    full_tables, cut_tables = [], []
    for d in range(16):
        full = atoms.monomials(full_tables, d, ())
        assert atoms.monomials(cut_tables, d, encoded) == [
            m for m in full
            if not any(_multiset_divides(t, atoms.decode(m)) for t in canons)]


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
        got = [tpowers.atoms.decode(m) for m in tpowers.standard(d)]
        assert got == _brute_standard(spec, d), f"{key} at degree2={d}"


def test_only_the_newest_table_can_be_cut():
    """A cut below the newest table would leave its multiples in the
    tables above it, so it is refused; the newest table loses the cut."""
    spec = xring(weight2=1)
    tpowers = _TPowers(spec, 6, DEFAULT_MONOMIAL_LIMIT)
    tpowers.standard(4)
    x = tpowers.atoms.encode(((0, 0),))
    for degree2 in (3, 5):
        with pytest.raises(ValueError, match="the newest table is 4$"):
            tpowers.cut(degree2, [])
    assert 4 * x in tpowers.standard(4)
    tpowers.cut(4, [4 * x])
    assert 4 * x not in tpowers.standard(4)
    assert 5 * x not in tpowers.standard(5)
    assert 5 * x in _TPowers(spec, 6, DEFAULT_MONOMIAL_LIMIT).standard(5)


def _learning_check(spec, maxdeg2):
    """hilbert_series equals a path that learns nothing, one fresh slice
    per degree; every cut it learns, decoded, is in the ideal; and its
    standard tables are those of a call that learns nothing, less every
    multiple of a learned cut."""
    learned, called = [], []
    cut = _TPowers.cut

    def record(self, degree2, monomials):
        called.append(self)
        learned.extend(self.atoms.decode(m) for m in monomials)
        cut(self, degree2, monomials)

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
                _multiset_divides(t, plain.atoms.decode(m)) for t in learned)]


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


@settings(max_examples=100, deadline=None)
@given(_PRESENTATIONS)
@example(([("even", 1), ("even", 2), ("odd", 3)],  # a^2 - b and c a:
          [[(1, [0, 0]), (-1, [1])], [(1, [2, 0])]]))  # learns b(-1)c(-3/2)
def test_learned_cuts_keep_random_series(presentation):
    """Monomial and binomial relations on one to three variables, odd
    ones included, through degree2 10."""
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
    _learning_check(RingSpec(variables, polys), 10)


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
    atoms = tpowers.atoms
    for j in range(7):
        got = tpowers.get(0, j)
        want = _int_row({m: m for m in poly}, poly)
        assert {atoms.decode(t): c for t, c, _ in got} == want
        assert all(flip == atoms.flips(t) for t, _, flip in got)
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
