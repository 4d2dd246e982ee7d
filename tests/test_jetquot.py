"""Unit tests for jet-ideal slices and exact graded dimensions.

Oracles used here are independent of the elimination code: free-ring
dimensions come from product generating functions, the quadratic
single-variable quotient from constrained-partition counting, and the
two-supercurrent numbers from the registered model battery.
"""
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jetchar import (DEFAULT_MONOMIAL_LIMIT, RingSpec, VariableSpec,
                     ResourceLimitError, enumerate_monomials, hilbert_series,
                     contains, models, qseries)
from jetchar.jetquot import (Echelon, _Atoms, _TPowers, _int_row,
                             _product_row, ideal_rows)


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
        assert len({frozenset(r.items()) for r in rows}) == len(rows)


def _multiset_divides(t, m):
    return not Counter(t) - Counter(m)


_CUTS = st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          min_size=1, max_size=3), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_CUTS)
@example([[(1, 0), (1, 0)]])  # h[0]^2: a repeated even atom
@example([[(1, 1), (1, 0), (1, 0)], [(1, 0), (1, 0), (1, 0)]])
@example([[(0, 0), (2, 1)], [(2, 0)]])  # odd atoms, alone and in a pair
def test_pruned_monomials_are_the_undivided_ones(cuts):
    """Cutting subtrees keeps, in order, exactly the monomials that no cut
    divides as a multiset."""
    spec = RingSpec((VariableSpec("g", "odd", 3), VariableSpec("h", "even", 2),
                     VariableSpec("f", "odd", 1)))
    atoms = _Atoms(spec, 15)
    atoms.grow(7)  # the largest atom drawn is g at shift 2
    canons = [spec.normalize(cut) for cut in cuts]
    canons = [c[1] for c in canons if c is not None]  # no odd atom twice
    encoded = [atoms.encode(c) for c in canons]
    for d in range(16):
        full = atoms.monomials(d, 10**6)
        assert atoms.monomials(d, 10**6, encoded) == [
            m for m in full
            if not any(_multiset_divides(t, atoms.decode(m)) for t in canons)]


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
