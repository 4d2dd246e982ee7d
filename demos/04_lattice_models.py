"""Rank-one lattice presentations: dominance, equality, and a failure.

The family ``lattice:p`` presents one even weight-1 generator z and two
generators x, y of weight p/2, odd for odd p and even for even p, with
relations

    x^2 = 0,   y^2 = 0,   x * y = z^p,   x * z = 0,   y * z = 0

(for odd p the squares are identically zero but are still listed: they
are honest relations of the presentation).  The candidate character is
theta_over_eta(p), a theta-function numerator over an eta-like
denominator.  General principles give one-way dominance -- the jet
quotient can only be too big, never too small -- and the interesting
question is whether equality holds.

    p = 2: equality through q^8 (as far as we compute here);
    p = 3: the quotient is strictly bigger starting at q^4.

The positive halves ``positive_lattice:p`` (a single generator x of
weight p/2, even for even p, with x^2 = 0) reproduce Rogers-Ramanujan-
type products for p = 2 and deviate for p >= 3.  The Virasoro-type
quotients C[x]/(x^k) land on the Andrews-Gordon sums.

Run:  python3 demos/04_lattice_models.py
"""
from jetchar import get_model, hilbert_series, qseries, qseries_formula

MAX2 = 16

# ----------------------------------------------------------------------
# 1. Two odd generators: equality for p=2, excess for p=3.
# ----------------------------------------------------------------------
for p in (2, 3):
    hs = hilbert_series(get_model("lattice:%d" % p).ring(), MAX2)
    char = qseries_formula("theta:%d" % p, MAX2).c
    assert all(hs[d] >= char[d] for d in range(MAX2 + 1)), \
        "dominance must hold"
    first = next((d for d in range(MAX2 + 1) if hs[d] != char[d]), None)
    print("lattice:%d  jet HS  %s" % (p, hs))
    print("           character %s" % (char,))
    if first is None:
        print("           equal through doubled degree %d" % MAX2)
    else:
        print("           first excess at doubled degree %d (%d > %d)"
              % (first, hs[first], char[first]))
    print()
assert hilbert_series(get_model("lattice:2").ring(), MAX2) \
    == qseries_formula("theta:2", MAX2).c
assert hilbert_series(get_model("lattice:3").ring(), MAX2)[8] == 7

# ----------------------------------------------------------------------
# 2. The same theta:2 series appears as a level-1 affine sl2 character.
# ----------------------------------------------------------------------
hs = hilbert_series(get_model("sl2_affine:1").ring(), 12)
assert hs == qseries_formula("theta:2", 12).c
print("sl2_affine:1 (level-1 adjoint-power relation) also matches theta:2")
print()

# ----------------------------------------------------------------------
# 3. Single odd generator: Rogers-Ramanujan again, then a deviation.
# ----------------------------------------------------------------------
for p in (2, 3):
    hs = hilbert_series(get_model("positive_lattice:%d" % p).ring(), 20)
    target = qseries.single_lattice_sum(p, 20)
    first = next((d for d in range(21) if hs[d] != target[d]), None)
    tag = ("matches sum_n q^(p n^2/2) / (q)_n through q^10"
           if first is None
           else "first deviates from the single-variable sum at doubled "
                "degree %d" % first)
    print("positive_lattice:%d: %s" % (p, tag))
assert hilbert_series(get_model("positive_lattice:2").ring(), 20) \
    == qseries.single_lattice_sum(2, 20).c
print()

# ----------------------------------------------------------------------
# 4. Bosonic powers: C[x]/(x^k) against the Andrews-Gordon sums.
# ----------------------------------------------------------------------
for k in (2, 3):
    hs = hilbert_series(get_model("virasoro_2_2k1:%d" % k).ring(), 24)
    ag = qseries.ag_sum(k, 24)
    assert hs == ag.c, "k=%d deviates from the Andrews-Gordon sum" % k
    print("virasoro_2_2k1:%d matches the k=%d Andrews-Gordon sum "
          "through q^12" % (k, k))
print()
print("All checks passed.")
