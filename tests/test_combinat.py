"""Tests for a complete lexicographic order and the constrained counters.

The order (compare / leading_term below) is not part of the package: it
records where the clauses of GhRules come from, as the leading terms of
the N=2 relations.  The ordering tests pin the orientation of every
comparison clause on small hand cases, then check the order axioms
exhaustively on all monomials of low degree.  The counting tests use
independent brute-force enumerators written directly from the clause
lists.
"""
import itertools
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from jetchar import (RingSpec, VariableSpec, ColoredRules, GhRules, Dk1Rules,
                     count_constrained, enumerate_monomials, get_model,
                     qseries)
from jetchar import combinat, models


# ------------------------------------------- complete lexicographic order

def _slot_key(spec, atom):
    """Position of a jet atom in the variable order: shift-major,
    base-minor (declaration order breaks ties)."""
    base, shift = atom
    return (shift, base)


def compare(spec, mono_a, mono_b):
    """Total order on normalized monomials; returns -1, 0, or 1.

    Lower total exponent count compares smaller.  On ties the exponent
    vectors are read along the variable order and the first difference
    decides, with the smaller exponent belonging to the *greater*
    monomial.
    """
    if len(mono_a) != len(mono_b):
        return -1 if len(mono_a) < len(mono_b) else 1
    if mono_a == mono_b:
        return 0
    ea = _exponents(spec, mono_a)
    eb = _exponents(spec, mono_b)
    for slot in sorted(set(ea) | set(eb)):
        va = ea.get(slot, 0)
        vb = eb.get(slot, 0)
        if va != vb:
            return 1 if va < vb else -1
    return 0


def _exponents(spec, mono):
    out = {}
    for atom in mono:
        slot = _slot_key(spec, atom)
        out[slot] = out.get(slot, 0) + 1
    return out


def leading_term(spec, poly):
    """(coefficient, monomial) of the greatest monomial; None for 0."""
    best = None
    for mono in poly:
        if best is None or compare(spec, mono, best) > 0:
            best = mono
    if best is None:
        return None
    return (poly[best], best)


def two_var_spec():
    return RingSpec([VariableSpec("x1", "even", 2),
                     VariableSpec("x2", "even", 2)])


def n2_spec():
    return get_model("n2_c1:ab").ring()


def only_mono(poly):
    [(mono, _coeff)] = list(poly.items())
    return mono


# ------------------------------------------------------------ compare

def test_compare_multiplicity_dominates():
    spec = two_var_spec()
    u = only_mono(spec.var("x1", 3))                      # one atom
    v = only_mono(spec.mul(spec.var("x1"), spec.var("x1")))  # two atoms
    assert compare(spec, u, v) == -1
    assert compare(spec, v, u) == 1


def test_compare_equal_only_for_identical():
    spec = two_var_spec()
    u = only_mono(spec.mul(spec.var("x1"), spec.var("x2", 1)))
    assert compare(spec, u, u) == 0


def test_compare_first_slot_orientation():
    """At equal multiplicity the larger exponent on the earliest variable
    makes the monomial *smaller*: x1(-1)^2 < x1(-1) x2(-1)."""
    spec = two_var_spec()
    u = only_mono(spec.mul(spec.var("x1"), spec.var("x1")))
    v = only_mono(spec.mul(spec.var("x1"), spec.var("x2")))
    assert compare(spec, u, v) == -1
    assert compare(spec, v, u) == 1


def test_compare_shift_major_before_base():
    """Variable order is shift-major: x2 at shift 0 precedes x1 at shift 1,
    so a difference there decides before any higher slot."""
    spec = two_var_spec()
    u = only_mono(spec.mul(spec.var("x2", 0), spec.var("x2", 2)))
    v = only_mono(spec.mul(spec.var("x1", 1), spec.var("x1", 1)))
    # u occupies slot (0, x2); v is zero there, so v has the smaller
    # exponent at the earliest differing slot and is the greater monomial.
    assert compare(spec, u, v) == -1


def test_compare_is_total_order_on_small_degrees():
    spec = n2_spec()
    monos = []
    for d in range(9):
        monos.extend(enumerate_monomials(spec, d))
    # antisymmetry and identity-only equality
    for a, b in itertools.combinations(monos, 2):
        ab = compare(spec, a, b)
        ba = compare(spec, b, a)
        assert ab in (-1, 1) and ba == -ab, (a, b)
    for a in monos:
        assert compare(spec, a, a) == 0
    # transitivity on monomials of one degree (where ties in length occur)
    deg8 = [m for m in monos if spec.mono_degree2(m) == 8]
    for a, b, c in itertools.permutations(deg8, 3):
        if compare(spec, a, b) == 1 and compare(spec, b, c) == 1:
            assert compare(spec, a, c) == 1


# ------------------------------------------------------- leading terms

def test_leading_term_single_and_zero():
    spec = n2_spec()
    p = spec.scale(spec.mul(spec.var("h"), spec.var("h", 2)), 5)
    coeff, mono = leading_term(spec, p)
    assert coeff == 5 and mono == only_mono(spec.mul(spec.var("h"),
                                                     spec.var("h", 2)))
    assert leading_term(spec, {}) is None


def series_coefficient(spec, names, n):
    """Coefficient of z^n in the product of the generating series
    x(z) = sum_s x[s] z^s over the given generator names."""
    total = {}
    for split in itertools.product(range(n + 1), repeat=len(names)):
        if sum(split) != n:
            continue
        term = spec.poly([(1, ())])
        for name, s in zip(names, split):
            term = spec.mul(term, spec.var(name, s))
        total = spec.add(total, term)
    return total


def test_leading_terms_of_gp_h_product():
    """z^n coefficient of G+(z)h(z): the leading monomial alternates
    between the balanced pair (n even) and the G-heavy pair (n odd)."""
    spec = n2_spec()
    for n in range(6):
        poly = series_coefficient(spec, ["gp", "h"], n)
        _, mono = leading_term(spec, poly)
        if n % 2 == 0:
            want = spec.mul(spec.var("gp", n // 2), spec.var("h", n // 2))
        else:
            want = spec.mul(spec.var("gp", (n + 1) // 2),
                            spec.var("h", (n - 1) // 2))
        assert mono == only_mono(want), f"gp*h leading term at z^{n}"


def test_leading_terms_of_gm_h_product():
    """z^n coefficient of G-(z)h(z): same shape but the h-heavy pair wins
    for odd n — the two odd generators sit on opposite sides of h in the
    variable order, so the asymmetry is real and pinned here."""
    spec = n2_spec()
    for n in range(6):
        poly = series_coefficient(spec, ["gm", "h"], n)
        _, mono = leading_term(spec, poly)
        if n % 2 == 0:
            want = spec.mul(spec.var("gm", n // 2), spec.var("h", n // 2))
        else:
            want = spec.mul(spec.var("h", (n + 1) // 2),
                            spec.var("gm", (n - 1) // 2))
        assert mono == only_mono(want), f"gm*h leading term at z^{n}"


def balanced_triple(n):
    q, r = divmod(n, 3)
    return tuple(sorted([q] * (3 - r) + [q + 1] * r))


def test_leading_terms_of_cubic_relation():
    """z^n coefficient of G+(z)G-(z) - h(z)^3: the h-cube terms have
    multiplicity 3 and therefore always dominate the G-pairs; among them
    the most balanced shift pattern is greatest.  The lowest coefficient
    gives h(-1)^3."""
    spec = n2_spec()
    for n in range(5):
        poly = spec.sub(series_coefficient(spec, ["gp", "gm"], n),
                        series_coefficient(spec, ["h", "h", "h"], n))
        _, mono = leading_term(spec, poly)
        shifts = balanced_triple(n)
        want = spec.poly([(1, ())])
        for s in shifts:
            want = spec.mul(want, spec.var("h", s))
        assert mono == only_mono(want), f"cubic relation leading term z^{n}"
        if n == 0:
            assert mono == only_mono(
                spec.mul(spec.mul(spec.var("h"), spec.var("h")),
                         spec.var("h")))


def balanced_distinct_pair(total):
    lo = total // 2
    hi = total - lo
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    return lo, hi


def test_leading_terms_of_null_vector_derivatives():
    """T^t applied to the quadratic null generators: the leading monomial
    is always the most balanced *distinct* shift pair with total t+1
    (equal shifts square an odd variable to zero)."""
    spec = n2_spec()
    ring = get_model("n2_c1:ab").ring()
    for name, poly0 in (("gp", ring.extras[0]), ("gm", ring.extras[1])):
        poly = poly0
        for t in range(4):
            coeff, mono = leading_term(spec, poly)
            lo, hi = balanced_distinct_pair(t + 1)
            want = spec.mul(spec.var(name, hi), spec.var(name, lo))
            assert mono == only_mono(want), (name, t)
            assert coeff != 0
            poly = spec.derive(poly)


# ----------------------------------------------------- colored counting

def brute_colored(rules, degree2):
    """Independent enumerator: generate every tuple of descending part
    lists directly and test the admissibility clauses verbatim."""

    def lists_for(weight2, odd, diffs, budget):
        out = []

        def rec(parts, total):
            out.append((tuple(parts), total))
            start = parts[-1] if parts else budget
            p = weight2
            while total + p <= budget:
                if p <= start:
                    cand = parts + [p]
                    ok = True
                    if odd and len(set(cand)) != len(cand):
                        ok = False
                    for dist, gap2 in diffs:
                        for j in range(len(cand) - dist):
                            if cand[j] - cand[j + dist] < gap2:
                                ok = False
                    if ok:
                        rec(cand, total + p)
                p += 2
            return

        rec([], 0)
        return out

    per_color = [lists_for(w2, odd, rules.differences.get(name, ()), degree2)
                 for name, w2, odd in rules.colors]
    w2_of = {name: w2 for name, w2, _ in rules.colors}
    names = [c[0] for c in rules.colors]

    def combos(i, budget):
        # every tuple of lists whose total stays within the budget
        if i == len(per_color):
            yield ()
            return
        for parts, total in per_color[i]:
            if total <= budget:
                for rest in combos(i + 1, budget - total):
                    yield ((parts, total),) + rest

    count = 0
    for combo in combos(0, degree2):
        if sum(t for _, t in combo) != degree2:
            continue
        chosen = dict(zip(names, [parts for parts, _ in combo]))
        ok = True
        for s, t in rules.boundaries:
            if chosen[s] and chosen[s][-1] < w2_of[s] + 2 * len(chosen[t]):
                ok = False
        if ok:
            count += 1
    return count


def test_single_color_difference_two_example():
    rules = ColoredRules([("x", 2, False)], {"x": ((1, 4),)})
    assert count_constrained(rules, 8).c == [1, 0, 1, 0, 1, 0, 1, 0, 2]


def test_single_color_difference_two_matches_rr():
    rules = ColoredRules([("x", 2, False)], {"x": ((1, 4),)})
    rr = qseries.single_lattice_sum(2, 40)
    assert count_constrained(rules, 40).c == rr.c


def test_colored_against_brute_force():
    cases = [
        ColoredRules([("x", 2, False)], {"x": ((1, 4),)}),
        ColoredRules([("g", 3, True)]),
        ColoredRules([("x", 2, False), ("y", 2, False)],
                     {"x": ((1, 4),), "y": ((1, 4),)},
                     boundaries=(("x", "y"), ("y", "x"))),
        ColoredRules([("x", 4, False), ("g", 3, True)],
                     {"x": ((2, 4),)},
                     boundaries=(("g", "x"),)),
    ]
    for rules in cases:
        for d in range(15):
            assert (count_constrained(rules, d)[d]
                    == brute_colored(rules, d)), (rules, d)


@st.composite
def colored_rules(draw):
    names = ["x", "y", "z"][:draw(st.integers(1, 3))]
    colors = [(name, draw(st.sampled_from([2, 3, 4])), draw(st.booleans()))
              for name in names]
    diffs = {name: tuple(draw(st.lists(
                 st.tuples(st.integers(1, 2), st.integers(0, 6)), max_size=2)))
             for name in names}
    pairs = [(s, t) for s in names for t in names]
    bounds = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
    return ColoredRules(colors, diffs, bounds)


CHAIN = ColoredRules([("x", 2, False), ("y", 3, True), ("z", 4, False)],
                     {"x": ((1, 4),)}, (("x", "y"), ("y", "z")))
MUTUAL = ColoredRules([("x", 2, False), ("y", 2, False), ("z", 3, True)],
                      {"y": ((2, 4),)}, (("x", "y"), ("y", "x"), ("z", "z")))


@settings(max_examples=60, deadline=None)
@given(colored_rules(), st.integers(0, 12))
@example(CHAIN, 12)
@example(MUTUAL, 12)
def test_one_pass_colored_count_matches_brute_force(rules, maxdeg2):
    """The colour-by-colour fold gives every coefficient the clause-by-
    clause enumerator gives, for chains, mutual pairs and self-bounds."""
    got = count_constrained(rules, maxdeg2).c
    assert got == [brute_colored(rules, d) for d in range(maxdeg2 + 1)]


def test_registered_colored_rules_match_brute_force():
    checked = 0
    for key in models.model_keys():
        rules = get_model(key).spanning
        if isinstance(rules, ColoredRules):
            want = [brute_colored(rules, d) for d in range(11)]
            assert count_constrained(rules, 10).c == want, key
            checked += 1
    assert checked >= 18


@settings(max_examples=60, deadline=None)
@given(colored_rules(), st.integers(0, 14), st.data())
def test_colored_count_ignores_the_color_order(rules, maxdeg2, data):
    """The fold order is read off the boundaries, with ties in the given
    order: listing the colors in any other order gives the same series."""
    colors = data.draw(st.permutations(rules.colors))
    shuffled = ColoredRules(colors, rules.differences, rules.boundaries)
    assert (count_constrained(shuffled, maxdeg2).c
            == count_constrained(rules, maxdeg2).c)


def test_registered_colored_rules_ignore_the_color_order():
    checked = 0
    for key in models.model_keys():
        model = get_model(key)
        rules = model.spanning
        if isinstance(rules, ColoredRules):
            reversed_rules = ColoredRules(rules.colors[::-1],
                                          rules.differences, rules.boundaries)
            d = min(model.default_maxdeg2, 14)
            assert (count_constrained(reversed_rules, d).c
                    == count_constrained(rules, d).c), key
            checked += 1
    assert checked >= 18


def per_list_profiles(weight2, odd, diffs, maxdeg2, keep_n, keep_min, step):
    """Oracle for combinat._color_profiles: one recursion per part list,
    each descending list extended by every part the conditions allow."""
    diffs = tuple(diffs) + (((1, 2, 2),) if odd else ())
    profiles = {}

    def gap(anchor, gap_even, gap_odd):
        return gap_odd if anchor % 2 else gap_even

    def rec(parts, deg2):
        key = (deg2, len(parts) if keep_n else 0,
               parts[-1] if keep_min and parts else None)
        profiles[key] = profiles.get(key, 0) + 1
        p = weight2
        while deg2 + p <= maxdeg2:
            if ((not parts or p <= parts[-1])
                    and all(len(parts) < dist
                            or parts[len(parts) - dist] - p
                            >= gap(parts[len(parts) - dist], *gaps)
                            for dist, *gaps in diffs)):
                rec(parts + [p], deg2 + p)
            p += step

    rec([], 0)
    return profiles


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.booleans(),
       st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 6),
                          st.integers(-2, 6)),
                max_size=3),
       st.integers(0, 16), st.booleans(), st.booleans(),
       st.sampled_from([1, 2]))
@example(3, False, [(1, 0, 1), (2, 3, 2)], 16, True, True, 1)  # D_{3,1}
def test_color_profiles_match_the_per_list_recursion(weight2, odd, diffs,
                                                     maxdeg2, keep_n,
                                                     keep_min, step):
    """The level-by-level tables equal the per-list recursion entry by
    entry, not just in total, for every kept feature, on both grid steps
    and with gaps that differ by the parity of their anchor."""
    args = (weight2, odd, diffs, maxdeg2, keep_n, keep_min)
    assert (combinat._color_profiles(*args, step=step)
            == per_list_profiles(*args, step))


def test_colored_count_builds_each_color_table_once(monkeypatch):
    """Guard against rebuilding the per-colour tables once per degree, or
    once per colour: graph:A4's four colours share three distinct tables
    (weight, parity, differences, kept features), each built once."""
    calls = []
    build = combinat._color_profiles

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(combinat, "_color_profiles", counting)
    count_constrained(get_model("graph:A4").spanning, 20)
    assert len(calls) == len(set(calls)) == 3


def test_registered_color_profiles_ascend_in_degree(monkeypatch):
    """_count_colored reads each colour table in its own order and stops
    at the first degree past the room left, so every table that a
    registered colored rule builds at its default truncation lists its
    degrees in nondecreasing order."""
    tables = []
    build = combinat._color_profiles

    def recording(*args):
        tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(combinat, "_color_profiles", recording)
    checked = 0
    for key in models.model_keys():
        model = get_model(key)
        if isinstance(model.spanning, ColoredRules):
            count_constrained(model.spanning, model.default_maxdeg2)
            checked += 1
    assert checked >= 18 and tables
    for table in tables:
        degrees = [d for d, _, _ in table]
        assert degrees == sorted(degrees)


def test_odd_color_counts_distinct_parts():
    rules = ColoredRules([("g", 3, True)])
    got = count_constrained(rules, 21)
    for d in range(22):
        want = 0
        # partitions of d into distinct odd doubled parts >= 3
        def rec(rem, mx):
            nonlocal want
            if rem == 0:
                want += 1
                return
            p = 3
            while p <= min(rem, mx):
                rec(rem - p, p - 2)
                p += 2
        rec(d, d)
        assert got[d] == want, f"distinct odd parts at degree2={d}"


def test_colored_rules_validation():
    with pytest.raises(ValueError):
        ColoredRules([("x", 2, False), ("x", 4, False)])
    with pytest.raises(ValueError):
        ColoredRules([("x", 2, False)], {"y": ((1, 4),)})
    with pytest.raises(ValueError):
        ColoredRules([("x", 2, False)], boundaries=(("x", "z"),))
    # refused where they are made, not deep inside the count
    for weight2 in (0, -2, 1.5):
        with pytest.raises(ValueError):
            ColoredRules([("x", weight2, False)])
    for diff in ((0, 4), (-1, 4), (1, 1.5)):
        with pytest.raises(ValueError):
            ColoredRules([("x", 2, False)], {"x": (diff,)})


def test_colored_rules_of_ring_read_the_leading_monomials():
    """A power gives a difference, a product a boundary in canonical order
    (the lighter variable first), an odd square nothing; a linear or cubic
    leading monomial is refused by name."""
    variables = (VariableSpec("u", "even", 4), VariableSpec("v", "even", 2),
                 VariableSpec("g", "odd", 3))
    base = RingSpec(variables)
    spec = RingSpec(variables, [base.parse_poly(t) for t in (
        "u(-2)^3", "u(-2)*v(-1) + v(-1)^3", "g(-3/2)^2", "u(-2)^2")])
    rules = ColoredRules.of_ring(spec)
    assert rules.colors == (("u", 4, False), ("v", 2, False), ("g", 3, True))
    assert rules.differences == {"u": ((2, 4), (1, 4))}
    assert rules.boundaries == (("v", "u"),)
    for text in ("v(-1)", "v(-1)*g(-3/2)*u(-2)"):
        with pytest.raises(ValueError, match=re.escape(text)):
            ColoredRules.of_ring(RingSpec(variables, [base.parse_poly(text)]))


def test_count_constrained_counts_the_empty_configuration():
    rules = ColoredRules([("x", 2, False)])
    assert count_constrained(rules, 0)[0] == 1


def test_count_constrained_rejects_unknown_rules():
    with pytest.raises(TypeError):
        count_constrained(object(), 4)


def test_graph_path_rules_match_two_variable_sum():
    """One cross-color boundary and no difference conditions: the count
    of such pairs of partitions matches the two-variable nested sum."""
    rules = ColoredRules([("x", 2, False), ("y", 2, False)],
                         boundaries=(("x", "y"),))
    got = count_constrained(rules, 20)
    want = models.qseries_formula("graphsum:A2", 20)
    assert got.c == want.c


# ---------------------------------------------------------- Gh counting

def brute_gh(degree2):
    """Clause-by-clause transcription on complete exponent tuples."""
    top = max(1, degree2)
    count = 0

    def admissible(a, b, c):
        get = lambda arr, i: arr[i] if 1 <= i <= top else 0
        if get(b, 1) > 2:
            return False
        for i in range(1, top + 1):
            if get(b, i) and get(c, i):
                return False
            if get(b, i) and get(c, i + 1):
                return False
            if get(a, i) and get(b, i):
                return False
            if get(a, i) and get(b, i + 1):
                return False
            if i >= 2 and get(a, i) + get(c, i) + get(c, i + 1) > 1:
                return False
            if get(c, i) + get(c, i + 1) + get(c, i + 2) > 1:
                return False
            if get(a, i) + get(a, i + 1) + get(a, i + 2) > 1:
                return False
        return True

    def rec(i, rem, a, b, c):
        nonlocal count
        if rem == 0:
            if admissible(a, b, c):
                count += 1
            return
        if i > top or 2 * i > rem:
            return
        for ai in (0, 1):
            for ci in (0, 1):
                used_odd = (ai + ci) * (2 * i + 1)
                if used_odd > rem:
                    continue
                for bi in range((rem - used_odd) // (2 * i) + 1):
                    a2, b2, c2 = list(a), list(b), list(c)
                    a2[i], b2[i], c2[i] = ai, bi, ci
                    rec(i + 1, rem - used_odd - bi * 2 * i, a2, b2, c2)

    zeros = [0] * (top + 1)
    rec(1, degree2, zeros, zeros, zeros)
    return count


def test_gh_counts_match_brute_force():
    for d in range(15):
        assert count_constrained(GhRules(), d)[d] == brute_gh(d), \
            f"Gh count at degree2={d}"


def test_gh_series_in_one_pass_matches_brute_force():
    """One walk to 32 records every monomial at its own degree, once:
    not again where trailing zero letters are placed after it."""
    assert count_constrained(GhRules(), 32).c == [brute_gh(d)
                                                  for d in range(33)]


def test_gh_row_through_ten():
    assert [count_constrained(GhRules(), d)[d] for d in range(11)] == [
        1, 0, 1, 2, 2, 2, 3, 4, 6, 7, 7]


def test_gh_count_at_degree_nine():
    assert count_constrained(GhRules(), 9)[9] == 7


# ---------------------------------------------------------- Dk1 counting

def test_dk1_requires_k_at_least_two():
    for k in (1, 2.5):
        with pytest.raises(ValueError):
            Dk1Rules(k)


def test_dk1_matches_product_characters():
    for k in (2, 3, 4):
        got = count_constrained(Dk1Rules(k), 80)
        want = qseries.n1_product(k, 80)
        assert got.c == want.c, f"D_{{{k},1}} vs product"


def test_dk1_rejects_repeated_half_odd_part():
    # at doubled degree 6 the only candidates are [6] and [3, 3]; the
    # repeated half-odd part 3/2 is forbidden, so exactly one survives.
    assert count_constrained(Dk1Rules(2), 6)[6] == 1
    assert count_constrained(Dk1Rules(3), 6)[6] == 1


def test_dk1_empty_partition_admitted():
    for k in (2, 3, 4):
        assert count_constrained(Dk1Rules(k), 0)[0] == 1


def brute_dk1(k, degree2):
    """Clause-by-clause transcription of the Dk1Rules docstring: every
    descending list of doubled parts >= 3 (odd parts >= 3, even parts >= 4)
    summing to the degree, kept when no odd part repeats and B_j -
    B_{j+k-1} >= 2 for odd B_j, >= 3 for even B_j."""

    def descending(rem, cap):
        if rem == 0:
            yield ()
            return
        for p in range(min(rem, cap), 2, -1):
            for rest in descending(rem - p, p):
                yield (p,) + rest

    count = 0
    for parts in descending(degree2, degree2):
        odd = [p for p in parts if p % 2]
        if len(set(odd)) != len(odd):
            continue
        if all(parts[j] - parts[j + k - 1] >= (2 if parts[j] % 2 else 3)
               for j in range(len(parts) - k + 1)):
            count += 1
    return count


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dk1_series_matches_brute_force(k):
    assert count_constrained(Dk1Rules(k), 20).c == [brute_dk1(k, d)
                                                    for d in range(21)]
