"""Graph models: nested q-series, closed product forms, and partitions.

To a finite graph we attach one weight-1 even generator per vertex, with
relations x_i^2 = 0 for every vertex and x_i x_j = 0 for every edge
(a loop at vertex i upgrades that vertex to weight 3/2 odd).  The jet
Hilbert series of such a quotient is computed by the nested sum

    sum over (n_1..n_k >= 0) of
        q^(sum n_i + sum_{edges} n_i n_j + sum_{loops} n_i^2 / ...)
        / product (q)_{n_i}

For path graphs A_k and odd cycles C_k these sums also have closed
forms built from theta-like numerators over eta-like denominators, and
-- after clearing small prefactors -- their coefficients count familiar
partition statistics.  This demo checks all of that numerically.

Run:  python3 demos/03_graph_characters.py
"""
from jetchar import get_model, hilbert_series, qseries, qseries_formula

MAX2 = 30

# ----------------------------------------------------------------------
# 1. Nested sums agree with the closed forms.
# ----------------------------------------------------------------------
print("path graphs A_k: nested sum vs closed form, coefficients of q^0..q^8")
for k in range(2, 7):
    s = qseries_formula("graphsum:A%d" % k, MAX2)
    closed = qseries.jm_closed("A%d" % k, MAX2)
    assert s.c == closed.c, "A%d mismatch at %d" % (k, s.first_difference(closed))
    print("    A%d: %s" % (k, s.c[0:18:2]))
print("odd cycles C_k:")
for k in (3, 5):
    s = qseries_formula("graphsum:C%d" % k, MAX2)
    closed = qseries.jm2_closed("C%d" % k, MAX2)
    assert s.c == closed.c, "C%d mismatch at %d" % (k, s.first_difference(closed))
    print("    C%d: %s" % (k, s.c[0:18:2]))
print()

# ----------------------------------------------------------------------
# 2. The jet quotients really have these Hilbert series.
# ----------------------------------------------------------------------
for k in (2, 3, 4):
    hs = hilbert_series(get_model("graph:A%d" % k).ring(), 20)
    assert hs == qseries_formula("graphsum:A%d" % k, 20).c
print("jet Hilbert series of graph:A2, graph:A3, graph:A4 match the sums")
print("through q^10")
print()

# ----------------------------------------------------------------------
# 3. Partition statistics carried by the coefficients.
# ----------------------------------------------------------------------
pinf = qseries.pochhammer("inf", MAX2)
stats = qseries.partition_stats
A = {k: qseries_formula("graphsum:A%d" % k, MAX2) for k in range(2, 7)}
C = {k: qseries_formula("graphsum:C%d" % k, MAX2) for k in (3, 5)}

table = [
    ("A2[n]            = even-or-one partitions of n",
     A[2], lambda n: stats("even_or_one", n), 0),
    ("[q A3][n]        = two-colored partition pairs of n",
     A[3].shift_up(2), lambda n: stats("two_colored", n), 0),
    ("[q (q)inf A4][n] = total number of parts over partitions of n",
     (pinf * A[4]).shift_up(2), lambda n: stats("total_parts", n), 0),
    ("[q (q)inf^2 A5][n] = sum of largest-part multiplicities",
     (pinf * pinf * A[5]).shift_up(2),
     lambda n: stats("largest_part_mult_sum", n), 0),
    ("[q (q)inf^2 A6][n] = 2*total_parts(n) - p(n)   (n >= 1)",
     (pinf * pinf * A[6]).shift_up(2),
     lambda n: 2 * stats("total_parts", n) - stats("p", n), 1),
    ("[q (q)inf C3][n] = partitions counted by least-vs-greatest parts",
     (pinf * C[3]).shift_up(2), lambda n: stats("least_vs_greatest", n), 0),
    ("[q (q)inf C5][n] = np(n) = n * p(n)",
     (pinf * C[5]).shift_up(2), lambda n: stats("np", n), 0),
]
for label, series, expected, lo in table:
    for n in range(lo, 13):
        assert series[2 * n] == expected(n), (label, n, series[2 * n],
                                              expected(n))
    print("ok:", label)

print()
print("spot values: total_parts(4) = %d, np(4) = %d, "
      "least_vs_greatest(3) = %d"
      % (stats("total_parts", 4), stats("np", 4),
         stats("least_vs_greatest", 3)))
print("All checks passed.")
