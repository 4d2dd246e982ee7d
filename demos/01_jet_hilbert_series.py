"""Build a graded super-polynomial ring, truncate its jets, count dimensions.

Start from a finitely presented ring R = C[x_1, ..., x_n] / (relations).
Each generator carries a parity (even/odd) and a conformal weight; we
store doubled weights so that half-integer gradings stay integral.  The
jet ring adjoins shifted copies x_i[s] of every generator (degree
weight + s) and the differential ideal adjoins every T-derivative of
every relation, where T is the shift derivation

    T(x[s]) = -(weight + s) * x[s+1].

Truncating at a maximal doubled degree leaves a finite-dimensional graded
linear-algebra problem in each degree, which we solve exactly over the
rationals.  The simplest non-trivial example below is C[x]/(x^2) with x
even of weight 1: its jet Hilbert series is the Rogers-Ramanujan series

    sum_n q^(n^2) / ((1-q)...(1-q^n)),

i.e. the generating function of partitions with difference >= 2 between
consecutive parts.

Run:  python3 demos/01_jet_hilbert_series.py
"""
from jetchar import (ColoredRules, RingSpec, VariableSpec, count_constrained,
                     enumerate_monomials, hilbert_series, qseries)

MAX2 = 40  # doubled degree: q^k lives at doubled degree 2k

# ----------------------------------------------------------------------
# 1. A free ring first: one even generator of weight 1 (doubled weight 2).
# ----------------------------------------------------------------------
free = RingSpec([VariableSpec("x", "even", 2)], relations=(), name="free x")
hs_free = hilbert_series(free, 20)
print("free ring on one weight-1 boson, jet dimensions by degree:")
print("   ", hs_free)
# Jets of a free ring are a polynomial ring on x[0], x[1], ...; the
# graded dimension at q^n is the number of partitions of n.
expected = [qseries.partition_stats("p", n) for n in range(11)]
assert hs_free[0::2] == expected, (hs_free[0::2], expected)
print("    matches the partition numbers p(n) -- jets of a free ring are free")
print()

# ----------------------------------------------------------------------
# 2. Impose x^2 = 0.  The differential ideal contains T(x^2) = -2 x x[1],
#    T^2(x^2) = ..., and the quotient becomes very thin.
# ----------------------------------------------------------------------
rr = RingSpec([VariableSpec("x", "even", 2)],
              relations=(free.poly([(1, (free.atom("x"), free.atom("x")))]),),
              name="x^2 = 0")
hs = hilbert_series(rr, MAX2)
print("quotient by <x^2>, jet dimensions at q^0..q^10:")
print("   ", hs[0:22:2])

# Independent count #1: the fermionic sum  sum q^(n^2)/(q;q)_n, the
# rank-one lattice sum for norm 2.
fsum = qseries.single_lattice_sum(2, MAX2)
assert hs == fsum.c, "jet Hilbert series disagrees with the fermionic sum"
print("    equals sum_n q^(n^2)/(q)_n through q^%d" % (MAX2 // 2))

# Independent count #2: partitions with difference >= 2 between parts.
# ColoredRules encodes such difference conditions directly.
gap2 = ColoredRules([("x", 2, False)], {"x": ((1, 4),)})
counted = count_constrained(gap2, MAX2)
assert hs == counted.c, "jet Hilbert series disagrees with the gap count"
print("    equals the number of difference-2 partitions (Rogers-Ramanujan)")
print()

# ----------------------------------------------------------------------
# 3. What the solver does in one degree: count the monomials, take the
#    rank of the ideal elements there, subtract.
# ----------------------------------------------------------------------
deg2 = 10
n_monos = len(enumerate_monomials(rr, deg2))
rank = n_monos - hs[deg2]
print("inside doubled degree %d:" % deg2)
print("    %d jet monomials, ideal rank %d, quotient dimension %d"
      % (n_monos, rank, hs[deg2]))
# q^5: the 7 partitions of 5, of which 5 and 4+1 have difference >= 2
assert (n_monos, rank, hs[deg2]) == (7, 5, 2)
print()
print("All checks passed.")
