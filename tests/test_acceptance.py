"""Acceptance gate: ten end-to-end criteria, all exact arithmetic.

Each test prints one `[criterion N] PASS/FAIL: ...` line and asserts the
criterion, including its runtime budget.  Three criteria on the N=2,
c=1 counterexample (the lattice algebra of sqrt(3)Z) once encoded
reference values that a hand count refutes; they now assert the true
values, with the count in a comment beside each:

* criterion 1: the claimed n2_c1:ab row ...,5,7,7 is false; doubled
  degree 9 has 7 monomials of charge -1 and the ideal 4, so the slice is
  6 even without a and b, and the row equals the character through 10;
* criterion 2: the claimed equality of n2_c1:abc with the character is
  false; c has the linear term gm(-9/2), so it lies outside the
  <relations, a, b> ideal, and adjoining it drops degree 9 to 5 < 6;
* criterion 4: the claimed first lattice:3 excess at 9 is false;
  x(-5/2)x(-3/2) and y(-5/2)y(-3/2) have charge +-2 and survive at 8,
  where the lattice has no charge +-2 state, so 7 > 5 there.
"""
import itertools
import random
import time
from fractions import Fraction

from jetchar import (ColoredRules, Dk1Rules, contains, count_constrained,
                     get_model, hilbert_series, model_keys, qseries,
                     qseries_formula)
from jetchar.superring import RingSpec


def _finish(num, start, budget, problems, summary):
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        problems.append("runtime %.1fs exceeds %ds budget" % (elapsed, budget))
    status = "PASS" if not problems else "FAIL"
    detail = summary if not problems else "; ".join(problems)
    line = "[criterion %d] %s: %s (%.1fs)" % (num, status, detail, elapsed)
    print(line, flush=True)
    assert not problems, line


def test_criterion_01_two_supercurrent_quotient_row():
    # Hand count at doubled degree 9, graded by charge (gp +1, gm -1, h 0;
    # every relation and extra is charge-homogeneous); x[k] is the k-th jet
    # of x.  Only charges +-1 occur.  Charge -1 has 7 monomials: gm[3],
    # gm[2]h[0], gm[1]h[1], gm[1]h[0]^2, gm[0]h[2], gm[0]h[1]h[0] and
    # gm[0]h[0]^3.  The ideal meets them in h[0]^2*gm[0]h[0], h[1]*gm[0]h[0],
    # h[0]*T(gm h) and T^2(gm h), independent since each holds a monomial
    # that none before it holds; gm[0]*(gp gm - h^3) = -gm[0]h[0]^3 is among
    # them, and gp h, a and b have the wrong charge.  So 3 survive for each
    # sign and the slice has dimension 6 = 2 p(3), the character's value,
    # even for n2_c1:bare: the once-claimed 7 at 9 is impossible.
    start = time.perf_counter()
    problems = []
    hs = hilbert_series(get_model("n2_c1:ab").ring(), 10)
    char = qseries_formula("theta:3", 10).c
    want = [1, 0, 1, 2, 2, 2, 3, 4, 5, 6, 7]
    if char != want:
        problems.append("character row %r != %r" % (char, want))
    if hs != want:
        problems.append("jet HS row is %r, not %r" % (hs, want))
    first = next((d for d in range(11) if hs[d] != char[d]), None)
    if first is not None:
        problems.append("jet HS first differs from the character at doubled "
                        "degree %d (%d vs %d)" % (first, hs[first], char[first]))
    _finish(1, start, 10, problems,
            "jet HS %r equals the character through 10" % (hs,))


def test_criterion_02_kernel_witness():
    # c has the linear term gm[3] = gm(-9/2).  Every relation and extra of
    # <rels, a, b> has only terms of polynomial degree >= 2, and T and
    # multiplication keep that, so c lies outside that ideal whatever the
    # engine computes.  c sits at doubled degree 9; T(c) is at 11 and no
    # monomial has doubled degree 1, so through 10 adjoining c adds only
    # the line of c at 9: that slice drops from 6 to 5, below the
    # character's 6.  So c is not in the kernel of J(R_V) -> gr V, and
    # the once-claimed equality of n2_c1:abc with the character is false.
    start = time.perf_counter()
    problems = []
    ab = get_model("n2_c1:ab").ring()
    abc = get_model("n2_c1:abc").ring()
    c = abc.extras[2]
    if contains(ab, c):
        problems.append("third null generator already lies in the "
                        "two-generator differential ideal")
    if not contains(abc, c):
        problems.append("third null generator missing from the enlarged ideal")
    if not any(len(mono) == 1 for mono in c):
        problems.append("third null generator has no linear term")
    if any(len(mono) < 2 for g in ab.relations + ab.extras for mono in g):
        problems.append("a generator of <rels, a, b> has a linear term")
    hs_ab = hilbert_series(ab, 10)
    hs = hilbert_series(abc, 10)
    char = qseries_formula("theta:3", 10).c
    moved = [d for d in range(11) if hs[d] != hs_ab[d]]
    if moved != [9] or hs[9] != hs_ab[9] - 1:
        problems.append("adjoining c changes the row at %r (%r -> %r), not "
                        "by exactly one at 9" % (moved, hs_ab, hs))
    bad = [d for d in range(11) if hs[d] != char[d]]
    if bad != [9] or (hs[9], char[9]) != (5, 6):
        problems.append(
            "with the third generator added, jet HS deviates from the "
            "character at doubled degrees %r (HS %r vs character %r), "
            "not only at 9 with 5 < 6"
            % (bad, [hs[d] for d in bad], [char[d] for d in bad]))
    _finish(2, start, 30, problems,
            "c is outside <rels, a, b> (linear term) and inside <rels, a, b, "
            "c>; the quotient drops below the character only at 9 (5 < 6)")


def test_criterion_03_rogers_ramanujan_chain():
    start = time.perf_counter()
    problems = []
    hs = hilbert_series(get_model("positive_lattice:2").ring(), 40)
    count = count_constrained(
        ColoredRules([("x", 2, False)], {"x": ((1, 4),)}), 40).c
    fsum = qseries_formula("rr", 40).c
    if hs != count:
        problems.append("jet HS != difference-2 count (first diff at %d)"
                        % next(d for d in range(41) if hs[d] != count[d]))
    if hs != fsum:
        problems.append("jet HS != fermionic sum (first diff at %d)"
                        % next(d for d in range(41) if hs[d] != fsum[d]))
    _finish(3, start, 5, problems,
            "all three series agree through doubled degree 40")


def test_criterion_04_rank_one_lattice_models():
    # lattice:3 graded by charge (x +1, y -1, z 0).  x(-5/2)x(-3/2) and
    # y(-5/2)y(-3/2) have charge +-2 and doubled degree 8.  No ideal element
    # of that charge and degree is nonzero: x x and y y are zero, x y - z^3
    # has charge 0 and no monomial of degree 2 has charge +-2, T(x z) is at
    # 7 with no monomial of degree 1 to raise it, and x(-3/2)*(x z) = 0.
    # The lattice sqrt(3)Z has no charge +-2 state below doubled degree 12
    # (e^{+-2 alpha} has weight 6), and its charge 0 part at 8 is the whole
    # character value 5 (charge +-1 states sit at odd doubled degree).  By
    # dominance the jet side has charge 0 part >= 5, so it is >= 5 + 2 = 7
    # at 8: the first excess is at 8, not at the once-claimed 9.
    start = time.perf_counter()
    problems = []
    hs2 = hilbert_series(get_model("lattice:2").ring(), 16)
    th2 = qseries_formula("theta:2", 16).c
    spec3 = get_model("lattice:3").ring()
    hs3 = hilbert_series(spec3, 16)
    th3 = qseries_formula("theta:3", 16).c
    if any(hs2[d] < th2[d] for d in range(17)):
        problems.append("p=2 jet HS drops below theta_over_eta(2)")
    if any(hs3[d] < th3[d] for d in range(17)):
        problems.append("p=3 jet HS drops below theta_over_eta(3)")
    if hs2 != th2:
        problems.append("p=2 equality fails before 16 (first diff at %d)"
                        % next(d for d in range(17) if hs2[d] != th2[d]))
    first3 = next((d for d in range(17) if hs3[d] != th3[d]), None)
    if first3 != 8:
        problems.append("p=3 equality first fails at doubled degree %r, "
                        "not 8" % (first3,))
    elif hs3[8] - th3[8] != 2:
        problems.append("p=3 excess at 8 is %d (jet %d vs character %d), "
                        "not 2" % (hs3[8] - th3[8], hs3[8], th3[8]))
    for witness in ("x(-5/2)*x(-3/2)", "y(-5/2)*y(-3/2)"):
        if contains(spec3, spec3.parse_poly(witness)):
            problems.append("p=3 witness %s lies in the ideal" % witness)
    _finish(4, start, 60, problems,
            "dominance holds for both; p=2 equal through 16; p=3 first "
            "failure at %r, where x(-5/2)x(-3/2) and y(-5/2)y(-3/2) lie "
            "outside the ideal" % (first3,))


def test_criterion_05_graph_identities():
    start = time.perf_counter()
    problems = []
    for k in range(2, 7):
        got = qseries_formula("graphsum:A%d" % k, 30)
        want = qseries.jm_closed("A%d" % k, 30)
        if got.c != want.c:
            problems.append("A%d sum != closed form at %d"
                            % (k, got.first_difference(want)))
    for k in (3, 5):
        got = qseries_formula("graphsum:C%d" % k, 30)
        want = qseries.jm2_closed("C%d" % k, 30)
        if got.c != want.c:
            problems.append("C%d sum != closed form at %d"
                            % (k, got.first_difference(want)))
    for k in (2, 3, 4):
        hs = hilbert_series(get_model("graph:A%d" % k).ring(), 20)
        want = qseries_formula("graphsum:A%d" % k, 20).c
        if hs != want:
            problems.append("A%d jet HS != sum through 20" % k)
    _finish(5, start, 60, problems,
            "A2..A6 and C3, C5 equal their closed forms through 30; "
            "A2..A4 jet HS equal the sums through 20")


def test_criterion_06_combinatorial_interpretations():
    start = time.perf_counter()
    problems = []
    M = 34
    pinf = qseries.pochhammer("inf", M)
    stats = qseries.partition_stats
    A = {k: qseries_formula("graphsum:A%d" % k, M) for k in range(2, 7)}
    C = {k: qseries_formula("graphsum:C%d" % k, M) for k in (3, 5)}

    def check(name, series, expected, lo=0):
        for n in range(lo, 16):
            want = expected(n)
            if series[2 * n] != want:
                problems.append("%s: coefficient at n=%d is %d, expected %d"
                                % (name, n, series[2 * n], want))
                return

    # the seven statistics, each matched against its q-series; the
    # third-from-last and A5 shapes need one extra factor of q to align
    # the gradings, and the A6 shape holds from n=1 on
    check("A2 ~ even-or-one partitions", A[2],
          lambda n: stats("even_or_one", n))
    check("qA3 ~ two-colored partitions", A[3].shift_up(2),
          lambda n: stats("two_colored", n))
    check("q(q)A4 ~ total parts", (pinf * A[4]).shift_up(2),
          lambda n: stats("total_parts", n))
    check("q(q)^2 A5 ~ largest-part multiplicities",
          (pinf * pinf * A[5]).shift_up(2),
          lambda n: stats("largest_part_mult_sum", n))
    check("q(q)^2 A6 ~ 2*total parts - p", (pinf * pinf * A[6]).shift_up(2),
          lambda n: 2 * stats("total_parts", n) - stats("p", n), lo=1)
    check("q(q)C3 ~ least-vs-greatest partitions", (pinf * C[3]).shift_up(2),
          lambda n: stats("least_vs_greatest", n))
    check("q(q)C5 ~ np", (pinf * C[5]).shift_up(2),
          lambda n: stats("np", n))

    if stats("total_parts", 4) != 12:
        problems.append("total_parts(4) != 12")
    if stats("np", 4) != 20:
        problems.append("np(4) != 20")
    if stats("least_vs_greatest", 3) != 2:
        problems.append("least_vs_greatest(3) != 2")
    _finish(6, start, 10, problems,
            "all seven interpretations hold for n <= 15 "
            "(total_parts(4)=12, np(4)=20, least_vs_greatest(3)=2)")


def test_criterion_07_nested_sum_identities():
    start = time.perf_counter()
    problems = []
    pairs = {3: (qseries.ml_lhs(3, 24), qseries.ml_rhs(2, 24)),
             4: (qseries.ml_lhs(4, 24), qseries.ml_rhs(3, 24))}
    for n, (lhs, rhs) in pairs.items():
        if lhs.c != rhs.c:
            problems.append("rank-%d identity fails at %d"
                            % (n - 1, lhs.first_difference(rhs)))
    for n in (3, 4):
        hs = hilbert_series(get_model("sln_principal:%d" % n).ring(), 14)
        lhs, rhs = pairs[n]
        if hs != lhs.c[:15] or hs != rhs.c[:15]:
            problems.append("principal subspace %d jet HS deviates "
                            "through 14" % n)
    _finish(7, start, 120, problems,
            "both Cartan identities hold through 24 and the jet HS "
            "matches both sides through 14")


def test_criterion_08_n1_minimal_models():
    start = time.perf_counter()
    problems = []
    for k in (2, 3):
        prod = qseries.n1_product(k, 24).c
        count = count_constrained(Dk1Rules(k), 24).c
        hs = hilbert_series(get_model("n1_minimal:%d" % k).ring(), 24)
        if prod != count:
            problems.append("k=%d: product != constrained count" % k)
        if prod != hs:
            problems.append("k=%d: product != jet HS" % k)
    odd = get_model("n1_odd_odd:3:5")
    hs = hilbert_series(odd.ring(), odd.default_maxdeg2)
    char = odd.character(odd.default_maxdeg2).c
    first = next((d for d in range(len(hs)) if hs[d] != char[d]), None)
    if first is None:
        problems.append("both-odd presentation unexpectedly matches its "
                        "character")
    _finish(8, start, 120, problems,
            "k=2,3 chains agree through 24; both-odd presentation "
            "mismatches first at doubled degree %r" % (first,))


def test_criterion_09_extended_virasoro():
    start = time.perf_counter()
    problems = []
    series = {key: hilbert_series(get_model(key).ring(), 32)
              for key in ("ext_vir:xy", "ext_vir:uv_sum", "ext_vir:uv_mixed")}
    pair = qseries.ext_vir_pair_sum(32).c
    for (k1, s1), (k2, s2) in itertools.combinations(series.items(), 2):
        if s1 != s2:
            problems.append("%s != %s" % (k1, k2))
    for key, s in series.items():
        if s != pair:
            problems.append("%s != double sum" % key)
    _finish(9, start, 60, problems,
            "all three quotients agree with the double sum through 32")


def _random_homogeneous_poly(spec, rng, monos_by_degree):
    degree2 = rng.choice([d for d, ms in monos_by_degree.items() if ms])
    pool = monos_by_degree[degree2]
    picks = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
    return spec.poly([(Fraction(rng.randint(-6, 6) or 1,
                                rng.randint(1, 4)), m) for m in picks])


def test_criterion_10_property_suites():
    from jetchar import enumerate_monomials

    start = time.perf_counter()
    problems = []
    rng = random.Random(20260814)

    # -- 1,000 randomized polynomials: grading, Leibniz, supercommutativity
    pool = [get_model(k).ring()
            for k in ("lattice:3", "n2_c1:ab", "sl2_affine:1",
                      "ext_vir:uv_sum")]
    cache = {}
    built = 0
    while built < 1000 and not problems:
        spec = rng.choice(pool)
        if id(spec) not in cache:
            cache[id(spec)] = {d: enumerate_monomials(spec, d)
                               for d in range(2, 9)}
        p = _random_homogeneous_poly(spec, rng, cache[id(spec)])
        q = _random_homogeneous_poly(spec, rng, cache[id(spec)])
        built += 2
        prod = spec.mul(p, q)
        if prod and spec.degree2(prod) != spec.degree2(p) + spec.degree2(q):
            problems.append("grading violated")
            break
        left = spec.derive(prod)
        right = spec.add(spec.mul(spec.derive(p), q),
                         spec.mul(p, spec.derive(q)))
        if left != right:
            problems.append("Leibniz rule violated")
            break
        parities_p = {spec.mono_parity(m) for m in p}
        parities_q = {spec.mono_parity(m) for m in q}
        if len(parities_p) == 1 and len(parities_q) == 1:
            sign = -1 if (parities_p.pop() and parities_q.pop()) else 1
            if prod != spec.scale(spec.mul(q, p), sign):
                problems.append("supercommutativity violated")
                break

    # -- rank invariance under 100 generator shuffles/scalings per model
    for key in model_keys():
        if problems:
            break
        m = get_model(key)
        spec = m.ring()
        d = min(8, m.default_maxdeg2)
        base = hilbert_series(spec, d)

        def rescaled(polys):
            out = list(polys)
            rng.shuffle(out)
            scaled = []
            for p in out:
                s = Fraction(rng.randint(1, 7), rng.randint(1, 5))
                if rng.random() < 0.5:
                    s = -s
                scaled.append({mono: c * s for mono, c in p.items()})
            return tuple(scaled)

        for trial in range(100):
            variant = RingSpec(spec.variables, rescaled(spec.relations),
                               rescaled(spec.extras), name=spec.name)
            if hilbert_series(variant, d) != base:
                problems.append("rank not invariant for %s (trial %d)"
                                % (key, trial))
                break

    # -- truncation monotonicity: deeper runs extend shallower ones
    for key in model_keys():
        if problems:
            break
        spec = get_model(key).ring()
        if hilbert_series(spec, 6) != hilbert_series(spec, 10)[:7]:
            problems.append("truncation changes low coefficients for %s" % key)

    # -- sandwich: character <= jet HS <= spanning count
    for key in model_keys():
        if problems:
            break
        m = get_model(key)
        if m.character_key is None or m.spanning is None:
            continue
        d = m.default_maxdeg2
        char = m.character(d)
        span = m.spanning_series(d)
        hs = hilbert_series(m.ring(), d)
        for deg in range(d + 1):
            if not char[deg] <= hs[deg] <= span[deg]:
                problems.append(
                    "sandwich fails for %s at %d: %d <= %d <= %d"
                    % (key, deg, char[deg], hs[deg], span[deg]))
                break

    _finish(10, start, 120, problems,
            "1,000 randomized polynomial checks, 100 shuffles/scalings per "
            "model, truncation stability and the sandwich inequality all hold")
