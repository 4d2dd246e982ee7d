"""Spanning sets, nested-sum identities, and coefficient-level verdicts.

Three independent counts can be attached to one presentation:

    character   <=   jet Hilbert series   <=   spanning-set count.

The character is the conjectured answer; the jet Hilbert series is the
exact dimension of the truncated quotient; the spanning count enumerates
the combinatorial monomial family (partitions with difference and
boundary conditions) that is proved to span.  The sandwich holds for
every model that registers all three, and whenever the two outer counts
agree the middle one is pinned.

This demo also exercises the higher-rank machinery: the principal
subspace presentations for sl_n (built from the positive roots, with
one relation per root-pair) against an indefinite-quadratic-form
identity, the N=1 minimal-model products against difference-condition
counts, and the structured verification reports the registry produces.

Run:  python3 demos/05_spanning_sets_and_verification.py
"""
from jetchar import (Dk1Rules, count_constrained, get_model,
                     hilbert_series, qseries, verify)

# ----------------------------------------------------------------------
# 1. An indefinite-form identity: two nested sums with the same values.
# ----------------------------------------------------------------------
for n in (3, 4):
    lhs = qseries.ml_lhs(n, 24)
    rhs = qseries.ml_rhs(n - 1, 24)
    assert lhs.c == rhs.c, "rank %d identity fails" % (n - 1)
    print("sl%d Cartan-matrix sum == rank-%d lattice sum, through q^12:"
          % (n, n - 1))
    print("   ", lhs.c[0:26:2])
print()

# ----------------------------------------------------------------------
# 2. The principal-subspace presentations actually compute those series.
# ----------------------------------------------------------------------
for n in (3, 4):
    m = get_model("sln_principal:%d" % n)
    hs = hilbert_series(m.ring(), 14)
    assert hs == qseries.ml_lhs(n, 14).c
    nvars = len(m.ring().variables)
    nrels = len(m.ring().relations)
    print("sln_principal:%d (%d root generators, %d relations) matches "
          "through q^7" % (n, nvars, nrels))
print()

# ----------------------------------------------------------------------
# 3. N=1 minimal models: product formula == difference count == jet HS.
# ----------------------------------------------------------------------
for k in (2, 3):
    prod = qseries.n1_product(k, 24)
    count = count_constrained(Dk1Rules(k), 24)
    hs = hilbert_series(get_model("n1_minimal:%d" % k).ring(), 24)
    assert prod.c == count.c == hs
    print("n1_minimal:%d: product == constrained count == jet HS, "
          "through q^12" % k)
    print("   ", hs[0:26:2])
print()

# ----------------------------------------------------------------------
# 4. The sandwich, on a model where all three sides are registered.
# ----------------------------------------------------------------------
m = get_model("n2_c1:ab")
d = m.default_maxdeg2
char = m.character(d)
hs = hilbert_series(m.ring(), d)
span = m.spanning_series(d)
print("n2_c1:ab through doubled degree %d:" % d)
print("    character:  %s" % (char.c,))
print("    jet HS:     %s" % (hs,))
print("    spanning:   %s" % (span.c,))
for deg in range(d + 1):
    assert char[deg] <= hs[deg] <= span[deg]
print("    character <= jet HS <= spanning count, degree by degree")
print()

# ----------------------------------------------------------------------
# 5. Structured verdicts for the whole registry, at small depth.
# ----------------------------------------------------------------------
print("registry verdicts at doubled degree 10:")
for key in ("lattice:2", "lattice:3", "n1_odd_odd:3:5", "graph:C3"):
    report = verify(key, maxdeg2=10)
    tail = ("" if report.mismatch_degree2 is None
            else ", first mismatch at doubled degree %d"
                 % report.mismatch_degree2)
    print("    %-14s %s%s" % (key, report.verdict, tail))
print()
print("All checks passed.")
