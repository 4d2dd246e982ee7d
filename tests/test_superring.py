"""Unit tests for the graded super-polynomial layer.

Everything is exact: coefficients are Fractions, degrees are doubled
integers, and Koszul signs are checked against hand-computed cases.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetchar import RingSpec, VariableSpec


def n2_spec():
    return RingSpec((VariableSpec("gp", "odd", 3),
                     VariableSpec("h", "even", 2),
                     VariableSpec("gm", "odd", 3)))


def test_variable_validation():
    with pytest.raises(ValueError):
        VariableSpec("x", "weird", 2)
    with pytest.raises(ValueError):
        VariableSpec("x", "even", 0)
    with pytest.raises(ValueError):
        RingSpec((VariableSpec("x", "even", 2), VariableSpec("x", "odd", 3)))


def test_atom_grading():
    spec = n2_spec()
    assert spec.atom_degree2(spec.atom("gp", 0)) == 3
    assert spec.atom_degree2(spec.atom("gp", 2)) == 7
    assert spec.atom_degree2(spec.atom("h", 3)) == 8
    assert spec.atom_odd(spec.atom("gp", 5))
    assert not spec.atom_odd(spec.atom("h", 0))


def test_odd_square_vanishes():
    spec = n2_spec()
    gp = spec.var("gp")
    assert spec.mul(gp, gp) == {}, "odd generators square to zero"


def test_koszul_sign_swap():
    """gp[1] * gp[0] must pick up a sign when sorted into canonical order."""
    spec = n2_spec()
    p = spec.poly([(1, (spec.atom("gp", 1), spec.atom("gp", 0)))])
    q = spec.poly([(1, (spec.atom("gp", 0), spec.atom("gp", 1)))])
    assert p == spec.scale(q, -1), "odd atoms anticommute"
    # even atoms commute freely with everything
    r1 = spec.mul(spec.var("h", 2), spec.var("gp"))
    r2 = spec.mul(spec.var("gp"), spec.var("h", 2))
    assert r1 == r2


def test_supercommutativity_basic():
    spec = n2_spec()
    gp, gm = spec.var("gp"), spec.var("gm")
    assert spec.mul(gp, gm) == spec.scale(spec.mul(gm, gp), -1)


def test_derive_single_atom():
    """T(x[i]) = -(weight2 + 2i)/2 * x[i+1]."""
    spec = n2_spec()
    d = spec.derive(spec.var("gp"))
    assert d == {(spec.atom("gp", 1),): Fraction(-3, 2)}
    d2 = spec.derive(spec.var("h", 1))
    assert d2 == {(spec.atom("h", 2),): Fraction(-2)}


def test_derive_raises_degree_by_two():
    spec = n2_spec()
    p = spec.mul(spec.var("gp"), spec.var("h", 1))
    assert spec.degree2(p) == 7
    assert spec.degree2(spec.derive(p)) == 9


def test_derive_leibniz_hand_case():
    spec = n2_spec()
    h = spec.var("h")
    h3 = spec.mul(spec.mul(h, h), h)
    # T(h[0]^3) = 3 h[0]^2 T(h[0]) = -3 h[0]^2 h[1]
    a0, a1 = spec.atom("h", 0), spec.atom("h", 1)
    assert spec.derive(h3) == {(a0, a0, a1): Fraction(-3)}


def _random_poly(spec, rng, max_terms=3, max_atoms=3, max_shift=2):
    terms = []
    nvars = len(spec.variables)
    for _ in range(rng.randint(1, max_terms)):
        atoms = tuple((rng.randrange(nvars), rng.randrange(max_shift + 1))
                      for _ in range(rng.randint(0, max_atoms)))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms.append((coeff, atoms))
    return spec.poly(terms)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_leibniz_randomized(seed):
    """T(pq) == T(p) q + p T(q) on random small super-polynomials."""
    import random
    rng = random.Random(seed)
    spec = n2_spec()
    p = _random_poly(spec, rng)
    q = _random_poly(spec, rng)
    lhs = spec.derive(spec.mul(p, q))
    rhs = spec.add(spec.mul(spec.derive(p), q), spec.mul(p, spec.derive(q)))
    assert lhs == rhs, f"Leibniz failed for seed {seed}"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_supercommutativity_randomized(seed):
    """ab == (-1)^{|a||b|} ba for random homogeneous-parity monomial pairs."""
    import random
    rng = random.Random(seed)
    spec = n2_spec()
    nvars = len(spec.variables)
    a = tuple((rng.randrange(nvars), rng.randrange(3)) for _ in range(rng.randint(1, 3)))
    b = tuple((rng.randrange(nvars), rng.randrange(3)) for _ in range(rng.randint(1, 3)))
    pa, pb = spec.poly([(1, a)]), spec.poly([(1, b)])
    sign = -1 if (spec.mono_parity(a) and spec.mono_parity(b)) else 1
    assert spec.mul(pa, pb) == spec.scale(spec.mul(pb, pa), sign)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_associativity_randomized(seed):
    import random
    rng = random.Random(seed)
    spec = n2_spec()
    p, q, r = (_random_poly(spec, rng, max_terms=2, max_atoms=2) for _ in range(3))
    assert spec.mul(spec.mul(p, q), r) == spec.mul(p, spec.mul(q, r))


def test_homogeneity_enforced():
    spec = n2_spec()
    bad = spec.add(spec.var("h"), spec.var("gp"))  # degrees 2 and 3
    with pytest.raises(ValueError):
        spec.degree2(bad)
    with pytest.raises(ValueError):
        RingSpec(spec.variables, relations=(bad,))


def test_relations_must_be_shift_zero():
    spec = n2_spec()
    with pytest.raises(ValueError):
        RingSpec(spec.variables, relations=(spec.var("h", 1),))


def test_parse_poly_roundtrip():
    spec = n2_spec()
    text = "3/2 * h(-1)^2 * gp(-3/2) - gm(-5/2)"
    p = spec.parse_poly(text)
    a = spec.atom
    want = spec.poly([(Fraction(3, 2), (a("h", 0), a("h", 0), a("gp", 0))),
                      (-1, (a("gm", 1),))])
    assert p == want
    # the printed form parses back to the same polynomial
    assert spec.parse_poly(spec.poly_str(p)) == p


def test_parse_poly_grid_validation():
    spec = n2_spec()
    with pytest.raises(ValueError):
        spec.parse_poly("gp(-1)")  # gp lives on half-integer subscripts
    with pytest.raises(ValueError):
        spec.parse_poly("h(-1/2)")
    with pytest.raises(ValueError):
        spec.parse_poly("nosuch(-1)")
    with pytest.raises(ValueError):
        spec.parse_poly("")


@pytest.mark.parametrize("text", ["h(-1)^0", "h(-1)^-1", "h(-1)^0 * h(-2)"])
def test_parse_poly_rejects_exponents_below_one(text):
    with pytest.raises(ValueError):
        n2_spec().parse_poly(text)


def test_poly_str_zero_and_constant():
    spec = n2_spec()
    assert spec.poly_str({}) == "0"
    assert spec.poly_str(spec.poly([(Fraction(5, 3), ())])) == "5/3"
