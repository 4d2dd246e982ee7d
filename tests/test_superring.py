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


def _bubble_sort(spec, atoms):
    """Canonical order by adjacent swaps, with the sign (-1)^(swaps of two
    odd atoms), or None when an odd atom repeats."""
    odd = [spec.variables[base].odd for base, _ in atoms]
    if any(o and atoms.count(a) > 1 for a, o in zip(atoms, odd)):
        return None
    key = lambda a: (spec.variables[a[0]].weight2 + 2 * a[1], a[0], a[1])
    atoms, sign = list(atoms), 1
    for end in range(len(atoms) - 1, 0, -1):
        for i in range(end):
            if key(atoms[i]) > key(atoms[i + 1]):
                if odd[i] and odd[i + 1]:
                    sign = -sign
                atoms[i], atoms[i + 1] = atoms[i + 1], atoms[i]
                odd[i], odd[i + 1] = odd[i + 1], odd[i]
    return sign, tuple(atoms)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_normalize_matches_bubble_sort(atoms, coeff):
    """normalize agrees with sorting by adjacent swaps on a ring with two
    odd variables and one even one; a polynomial minus itself, or scaled
    by zero, is the empty dict."""
    spec = n2_spec()
    assert spec.normalize(atoms) == _bubble_sort(spec, atoms)
    p = spec.poly([(coeff, atoms), (1, atoms[::-1])])
    assert spec.scale(p, 0) == {}
    assert spec.add(p, spec.scale(p, -1)) == {}


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


def test_derivation_with_t_image_is_derive():
    """The T image reproduces derive, frozen on a case where T moves an odd
    atom past another (sign flip) and onto an existing one (vanishes)."""
    spec = n2_spec()
    a = spec.atom
    p = spec.poly([(1, (a("gp"), a("gm"), a("h"))), (2, (a("gp"), a("gp", 1)))])
    frozen = {
        (a("gp"), a("gm"), a("h", 1)): Fraction(-1),
        (a("h"), a("gm"), a("gp", 1)): Fraction(3, 2),
        (a("h"), a("gp"), a("gm", 1)): Fraction(-3, 2),
        (a("gp"), a("gp", 2)): Fraction(-5),
    }
    t_image = lambda atom: {((atom[0], atom[1] + 1),):
                            Fraction(-spec.atom_degree2(atom), 2)}
    assert spec.derivation(p, t_image) == frozen
    assert spec.derive(p) == frozen


def _random_image(spec, rng, odd, max_shift=2):
    """A polynomial of two or three terms, each of parity ``odd``."""
    nvars = len(spec.variables)
    want = rng.randint(2, 3)
    image = {}
    while len(image) < want:
        atoms = tuple((rng.randrange(nvars), rng.randrange(max_shift + 1))
                      for _ in range(rng.randint(1, 3)))
        if spec.mono_parity(atoms) == odd:
            coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4))
            image = spec.add(image, spec.poly([(coeff, atoms)]))
    return image


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_derivation_leibniz_with_multi_term_images(seed):
    """D(pq) == D(p) q + p D(q) for a random even derivation D whose atom
    images have several terms with odd atoms, so an image inserted
    mid-monomial must be re-sorted past odd atoms on both sides."""
    import random
    rng = random.Random(seed)
    spec = n2_spec()
    images = {(base, shift): _random_image(spec, rng, int(v.odd))
              for base, v in enumerate(spec.variables) for shift in range(3)}
    p = _random_poly(spec, rng)
    q = _random_poly(spec, rng)
    d = lambda r: spec.derivation(r, images.__getitem__)
    lhs = d(spec.mul(p, q))
    rhs = spec.add(spec.mul(d(p), q), spec.mul(p, d(q)))
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


_ROUNDTRIP_SPEC = RingSpec((VariableSpec("gp", "odd", 3),
                            VariableSpec("h", "even", 2),
                            VariableSpec("f", "odd", 1),
                            VariableSpec("w", "even", 5)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=4)),
    max_size=5))
def test_parse_poly_inverts_poly_str(terms):
    """parse_poly(poly_str(p)) == p on an odd/even ring with half-integer
    weights, rational coefficients, constants and shifted atoms; every
    shipped presentation is built by parse_poly."""
    spec = _ROUNDTRIP_SPEC
    p = spec.poly(terms)
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


@pytest.mark.parametrize("text, message", [
    ("h(-1)^2 -", "polynomial 'h(-1)^2 -' ends in an operator"),
    ("h(-1)^2 +", "polynomial 'h(-1)^2 +' ends in an operator"),
    ("h(-1)^", "bad exponent in factor 'h(-1)^'"),
    ("h(-1", "unclosed parenthesis in factor 'h(-1'"),
    ("2*h(-1", "unclosed parenthesis in factor 'h(-1'"),
    ("h(-1)*h(-2", "unclosed parenthesis in factor 'h(-2'"),
])
def test_parse_poly_names_a_dangling_operator(text, message):
    """A text that lost its last term, exponent or closing parenthesis is
    refused, not read as the terms before it."""
    with pytest.raises(ValueError) as exc:
        n2_spec().parse_poly(text)
    assert str(exc.value) == message


def test_poly_str_zero_and_constant():
    spec = n2_spec()
    assert spec.poly_str({}) == "0"
    assert spec.poly_str(spec.poly([(Fraction(5, 3), ())])) == "5/3"
