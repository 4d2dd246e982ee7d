"""Unit tests for the exact q-series layer.

Oracles are brute force on purpose: partition enumeration, direct
convolution, and nested loops that do not share code with the series
engine being tested.  All exponents are doubled integers.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetchar import QSeries, qseries, qseries_formula


def brute_partitions(n, allowed=None, distinct=False):
    """List of partitions of n (descending tuples), optionally restricted."""
    out = []

    def rec(rem, mx, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rem, mx), 0, -1):
            if allowed is not None and part not in allowed:
                continue
            if distinct and acc and part == acc[-1]:
                continue
            acc.append(part)
            rec(rem - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


# ----------------------------------------------------------------- core ops

def test_monomial_and_indexing():
    s = QSeries.monomial(9, 20)  # q^{9/2}
    assert s[9] == 1 and s[8] == 0
    with pytest.raises(IndexError):
        s[99]  # reading past the truncation is an error, not zero


def test_add_mul_against_convolution():
    a = QSeries(10)
    b = QSeries(10)
    a.c = [1, 2, 0, 3, 0, 0, 1, 0, 0, 0, 5]
    b.c = [2, 0, 1, 0, 4, 0, 0, 0, 1, 0, 0]
    prod = a * b
    for d in range(11):
        want = sum(a.c[i] * b.c[d - i] for i in range(d + 1))
        assert prod[d] == want, f"convolution at degree2={d}"


def test_shift_updown():
    s = qseries.theta_over_eta(3, 10)
    up = s.shift_up(4)
    assert up[4] == s[0] and up[9] == s[5]
    down = up.shift_down(4)  # loses 4 doubled degrees of precision
    assert down.maxdeg2 == 6 and down.c == s.c[:7]
    with pytest.raises(ValueError):
        s.shift_down(2)  # theta has a nonzero constant term


@pytest.mark.parametrize("call", [
    lambda s: QSeries.monomial(-2, 6),  # an index of -2 would wrap round
    lambda s: s.shift_up(-1),
    lambda s: s.shift_down(-1),
], ids=["monomial", "shift_up", "shift_down"])
def test_a_negative_degree_is_refused(call):
    """A series holds no negative power of q, so a negative ``deg2`` is a
    ValueError that names it, not a coefficient put at the wrong power."""
    with pytest.raises(ValueError, match="^deg2 must be >= 0, got -[12]$"):
        call(QSeries.one(6))


@pytest.mark.parametrize("deg2", [0, -1, -2])
@pytest.mark.parametrize("name", ["imul_one_minus", "imul_one_plus",
                                  "idiv_one_minus"])
def test_an_in_place_multiplier_refuses_a_degree_below_one(name, deg2):
    """1 - q^0 is zero, so idiv_one_minus(0) has no answer (it used to
    double every coefficient), and a negative ``deg2`` used to raise an
    IndexError; each multiplier refuses both with a ValueError that names
    the degree, and leaves the series as it was."""
    s = QSeries.one(4)
    with pytest.raises(ValueError, match="^deg2 must be >= 1, got %d$" % deg2):
        getattr(s, name)(deg2)
    assert s.c == [1, 0, 0, 0, 0]


def test_one_minus_roundtrip():
    s = qseries.inv_pochhammer("inf", 24)
    t = s.copy()
    t.imul_one_minus(6)
    t.idiv_one_minus(6)
    assert t.c == s.c


# ------------------------------------------------------------- pochhammer

def test_pochhammer_finite_hand_values():
    # (q)_2 = (1-q)(1-q^2) = 1 - q - q^2 + q^3
    p2 = qseries.pochhammer(2, 8)
    assert p2.c == [1, 0, -1, 0, -1, 0, 1, 0, 0]
    assert qseries.pochhammer(0, 6).c == QSeries.one(6).c


def test_pochhammer_infinite_is_pentagonal():
    """Euler: (q)_inf = sum (-1)^k q^{k(3k-1)/2} over all integers k."""
    p = qseries.pochhammer("inf", 60)  # doubled degree 60 = q^30
    want = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 <= 30:
        want[k * (3 * k - 1)] = (-1) ** k          # doubled exponent
        if k * (3 * k + 1) // 2 <= 30:
            want[k * (3 * k + 1)] = (-1) ** k
        k += 1
    for d in range(61):
        assert p[d] == want.get(d, 0), f"pentagonal coefficient at degree2={d}"


def test_inv_pochhammer_counts_partitions():
    ip = qseries.inv_pochhammer("inf", 30)
    for n in range(16):
        assert ip[2 * n] == len(brute_partitions(n)), f"p({n})"
        if n:
            assert ip[2 * n - 1] == 0


# ---------------------------------------------------------- fermionic sums

def test_fermionic_sum_empty():
    assert qseries.fermionic_sum({}, [], 10).c == QSeries.one(10).c


def test_fermionic_sum_refuses_a_negative_linear_term():
    """A negative linear term can put a term below q^0; no formula uses
    one, so it is refused rather than summed."""
    with pytest.raises(ValueError, match="lin2 must be >= 0"):
        qseries.fermionic_sum({(0, 0): 2}, [-4], 8)


@pytest.mark.parametrize("quad2, lin2, match", [
    ({(0, 0): 2, (1, 1): 2, (0, 5): 2}, [0, 0], r"quad2 index \(0, 5\)"),
])
def test_fermionic_sum_refuses_terms_outside_its_variables(quad2, lin2, match):
    """A term on a variable that is not summed over would be dropped, or
    fail as a bare IndexError; both are refused."""
    with pytest.raises(ValueError, match=match):
        qseries.fermionic_sum(quad2, lin2, 10)


def test_fermionic_sum_requires_growth():
    """A variable with no quadratic or linear contribution cannot be
    bounded, so the enumeration must refuse instead of looping."""
    with pytest.raises(ValueError):
        qseries.fermionic_sum({}, [0], 10)


def test_rr_sum_counts_difference_two_partitions():
    rr = qseries_formula("rr", 40)
    assert rr.c == qseries_formula("singlelattice:2", 40).c
    for n in range(21):
        want = sum(1 for lam in brute_partitions(n)
                   if all(lam[i] - lam[i + 1] >= 2 for i in range(len(lam) - 1)))
        assert rr[2 * n] == want, f"difference-2 count at n={n}"


def test_ag_sum_k2_matches_gap_two_min_two():
    ag = qseries.ag_sum(2, 40)
    for n in range(21):
        want = sum(1 for lam in brute_partitions(n)
                   if all(lam[i] - lam[i + 1] >= 2 for i in range(len(lam) - 1))
                   and (not lam or lam[-1] >= 2))
        assert ag[2 * n] == want, f"gap-2 min-2 count at n={n}"


def test_graph_sum_matches_direct_double_loop():
    """A2 path: sum q^{n1+n2+n1*n2} / ((q)_{n1} (q)_{n2}) by brute nesting."""
    maxdeg2 = 24
    bound = maxdeg2 // 2  # exponent n1+n2+n1*n2 is monotone in both
    want = QSeries(maxdeg2)
    for n1 in range(bound + 1):
        for n2 in range(bound + 1):
            e = n1 + n2 + n1 * n2
            if e > bound:
                break
            term = qseries.inv_pochhammer(n1, maxdeg2) * \
                qseries.inv_pochhammer(n2, maxdeg2)
            want = want + term.shift_up(2 * e)
    got = qseries_formula("graphsum:A2", maxdeg2)
    assert got.c == want.c


def test_ml_identity_survives_indefinite_cross_terms():
    """Cartan off-diagonals are negative; points can dip back under the
    truncation after exceeding it partway, so naive pruning is unsound.
    The identity below exercises exactly that regime."""
    lhs = qseries.ml_lhs(3, 24)
    rhs = qseries.ml_rhs(2, 24)
    assert lhs.c == rhs.c


def test_ml_n2_reduces_to_rogers_ramanujan():
    assert qseries.ml_lhs(2, 30).c == qseries_formula("rr", 30).c


def direct_fermionic(nvars, quad2, lin2, maxdeg2):
    """Sum q^{E(n)/2} * prod 1/(q)_{n_i} point by point with full series
    products.  Every form passed here has E(n) >= max(n) on nonzero n,
    so the box n_i <= maxdeg2 holds every point with E(n) <= maxdeg2."""
    out = QSeries(maxdeg2)
    for n in itertools.product(range(maxdeg2 + 1), repeat=nvars):
        e = sum(lin2[i] * n[i] for i in range(nvars))
        e += sum(v * n[i] * n[j] for (i, j), v in quad2.items())
        if not 0 <= e <= maxdeg2:
            continue
        term = QSeries.monomial(e, maxdeg2)
        for k in n:
            term = term * qseries.inv_pochhammer(k, maxdeg2)
        out = out + term
    return out


def cross_term(lo, hi):
    """A cross coefficient, drawn as zero about half the time: uncoupled
    variables let different prefixes share a future, which the levels of
    fermionic_sum merge."""
    return st.one_of(st.just(0), st.integers(lo, hi))


@st.composite
def monotone_forms(draw, sizes=st.integers(1, 3)):
    nvars = draw(sizes)
    quad2 = {(i, j): draw(st.integers(0, 3) if i == j else cross_term(0, 3))
             for i in range(nvars) for j in range(i, nvars)}
    # a positive square or a positive linear term keeps a variable growing
    lin2 = [draw(st.integers(0 if quad2[(i, i)] else 1, 3))
            for i in range(nvars)]
    return nvars, quad2, lin2


@st.composite
def dominant_forms(draw, sizes=st.integers(2, 3)):
    """Diagonally dominant forms with cross terms of either sign: each
    diagonal exceeds half the absolute off-diagonal row sum by at least 1,
    so E(n) >= sum n_i^2 >= max(n), as direct_fermionic needs."""
    nvars = draw(sizes)
    off = {(i, j): draw(cross_term(-3, 3))
           for i in range(nvars) for j in range(i + 1, nvars)}
    quad2 = dict(off)
    for i in range(nvars):
        row = sum(abs(v) for (j, k), v in off.items() if i in (j, k))
        quad2[(i, i)] = draw(st.integers(1 + (row + 1) // 2, 3 + row))
    lin2 = [draw(st.integers(0, 2)) for _ in range(nvars)]
    return nvars, quad2, lin2


@settings(max_examples=40, deadline=None)
@given(st.one_of(monotone_forms(), dominant_forms()), st.integers(0, 18))
def test_fermionic_sum_matches_direct_products(form, maxdeg2):
    """Leaf exponents at and next to maxdeg2 test the truncation of the
    carried series; negative cross terms test the completed-square bound."""
    nvars, quad2, lin2 = form
    assert qseries.fermionic_sum(quad2, lin2, maxdeg2).c == \
        direct_fermionic(nvars, quad2, lin2, maxdeg2).c


@settings(max_examples=30, deadline=None)
@given(st.one_of(monotone_forms(st.just(4)), dominant_forms(st.just(4))),
       st.integers(0, 8))
def test_fermionic_sum_matches_direct_products_in_four_variables(form, maxdeg2):
    """Four variables give the levels room to merge: with some cross
    terms zero, prefixes reach one state along different paths."""
    nvars, quad2, lin2 = form
    assert qseries.fermionic_sum(quad2, lin2, maxdeg2).c == \
        direct_fermionic(nvars, quad2, lin2, maxdeg2).c


def test_fermionic_sum_definite_forms_match_direct_products():
    """ml_rhs(3) has negative cross terms (the A_3 Cartan matrix, least
    eigenvalue 2 - sqrt 2) and ag_sum(3) couples its two variables."""
    cartan = {(0, 0): 2, (1, 1): 2, (2, 2): 2, (0, 1): -2, (1, 2): -2}
    assert qseries.ml_rhs(3, 30).c == direct_fermionic(3, cartan, [0, 0, 0], 30).c
    ag = {(0, 0): 2, (1, 1): 4, (0, 1): 4}
    assert qseries.ag_sum(3, 30).c == direct_fermionic(2, ag, [2, 4], 30).c


def test_ml_sl4_identity_at_benchmark_depth():
    """The monotone search (lhs) against the completed-square one (rhs)
    at the benchmark's depth."""
    assert qseries.ml_lhs(4, 80).c == qseries.ml_rhs(3, 80).c


@pytest.mark.parametrize("n, maxdeg2", [(5, 40), (6, 30), (7, 24), (8, 20),
                                        (12, 12)])
def test_ml_identity_at_higher_rank(n, maxdeg2):
    """The sums of many variables, where most branches share a future:
    ml_lhs(12) sums over the 66 positive roots of sl_12."""
    assert qseries.ml_lhs(n, maxdeg2).c == qseries.ml_rhs(n - 1, maxdeg2).c


# ------------------------------------------------------ named characters

def test_theta_over_eta_rows():
    t3 = qseries.theta_over_eta(3, 10)
    assert t3.c == [1, 0, 1, 2, 2, 2, 3, 4, 5, 6, 7]
    t2 = qseries.theta_over_eta(2, 14)
    assert t2.c == [1, 0, 3, 0, 4, 0, 7, 0, 13, 0, 19, 0, 29, 0, 43]


def test_theta_over_eta_p1_definition_instance():
    t1 = qseries.theta_over_eta(1, 12)
    num = QSeries(12)
    num.c[0] = 1
    n = 1
    while n * n <= 12:
        num.c[n * n] += 2
        n += 1
    want = num * qseries.inv_pochhammer("inf", 12)
    assert t1.c == want.c


def test_n1_product_k1_is_trivial():
    assert qseries.n1_product(1, 30).c == QSeries.one(30).c


def test_n1_product_constant_term():
    for k in (1, 2, 3, 5):
        assert qseries.n1_product(k, 12)[0] == 1


def test_n1_product_matches_brute_product():
    k = 2
    maxdeg2 = 30
    want = QSeries.one(maxdeg2)
    for n in range(1, maxdeg2 + 1):
        if n % 4 == 2 or n % (4 * k) in (0, 1, 4 * k - 1):
            continue
        want.idiv_one_minus(n)
    assert qseries.n1_product(k, maxdeg2).c == want.c


def test_n1_character_even_case_matches_product():
    """(p, p') = (2, 8) is the k=2 member of the (2, 4k) family."""
    a = qseries.n1_character(2, 8, 24)
    b = qseries.n1_product(2, 24)
    assert a.c == b.c


def test_free_fermion_product():
    """prod (1 + q^{n-1/2}) counts partitions into distinct half-odd parts."""
    f = qseries.free_product([(1, "odd")], 21)
    for d in range(22):
        want = len([lam for lam in brute_partitions(d, distinct=True)
                    if all(p % 2 == 1 for p in lam)])
        assert f[d] == want, f"distinct odd doubled parts at degree2={d}"


# ------------------------------------------------- closed forms (bosonic)

def test_jm_closed_forms_match_sums():
    for key in ("A2", "A3", "A4"):
        got = qseries.jm_closed(key, 20)
        want = qseries_formula("graphsum:" + key, 20)
        assert got.c == want.c, f"closed form {key}"


def test_jm2_closed_forms_match_sums():
    assert qseries.jm2_closed("C3", 20).c == \
        qseries_formula("graphsum:C3", 20).c
    assert qseries.jm2_closed("C5", 60).c == \
        qseries_formula("graphsum:C5", 60).c


def test_ext_vir_pair_equals_triple():
    assert qseries.ext_vir_pair_sum(24).c == qseries.ext_vir_triple_sum(24).c


# ------------------------------------------------------ partition stats

def test_partition_stats_anchor_values():
    assert qseries.partition_stats("total_parts", 4) == 12
    assert qseries.partition_stats("np", 4) == 20
    assert qseries.partition_stats("least_vs_greatest", 3) == 2
    assert qseries.partition_stats("p", 0) == 1


def test_partition_stats_np_is_n_times_p():
    for n in range(11):
        assert qseries.partition_stats("np", n) == \
            n * len(brute_partitions(n))


def test_partition_stats_total_parts_brute():
    for n in range(11):
        want = sum(len(lam) for lam in brute_partitions(n))
        assert qseries.partition_stats("total_parts", n) == want


def test_partition_stats_unknown_kind():
    with pytest.raises(KeyError):
        qseries.partition_stats("nope", 3)


@pytest.mark.parametrize("key, maxdeg2", [("ml:sl4:lhs", 40),
                                          ("graphsum:C5", 30),
                                          ("ml:sl4:rhs", 40)])
def test_fermionic_sum_caps_the_states_of_a_level(key, maxdeg2):
    """A level that would hold more than ``limit`` states is refused with
    ResourceLimitError; the smallest cap that is not refused, and any
    larger one, give the series of the default cap."""
    from jetchar import ResourceLimitError

    def capped(limit):
        try:
            return qseries_formula(key, maxdeg2, limit).c
        except ResourceLimitError as exc:
            assert str(exc).startswith("more than %d states at level "
                                       % limit)
            return None

    full = qseries_formula(key, maxdeg2).c
    smallest = next(k for k in itertools.count(1) if capped(k) is not None)
    assert smallest > 1
    assert capped(smallest) == capped(smallest + 7) == full


@pytest.mark.parametrize("key, maxdeg2, largest", [("ml:sl4:lhs", 80, 40),
                                                   ("graphsum:C5", 60, 496)])
def test_fermionic_sum_merges_prefixes_up_to_a_shift(key, maxdeg2, largest):
    """Prefixes with equal forms whose bounds differ by whole powers of q
    share one state, so the largest level holds exactly ``largest``
    states: the smallest cap that is not refused.  States keyed by the
    bound itself would hold 332 and 794."""
    from jetchar import ResourceLimitError
    with pytest.raises(ResourceLimitError):
        qseries_formula(key, maxdeg2, largest - 1)
    assert qseries_formula(key, maxdeg2, largest).c == \
        qseries_formula(key, maxdeg2).c
