"""Graded super-polynomial rings and their infinite-jet differential extensions.

Every generator carries a parity (``"even"`` / ``"odd"``) and a positive
conformal weight.  Weights may be half-integers, so they are stored *doubled*
(``weight2 = 2 * weight``); with that convention every graded degree in the
library is a plain ``int`` and all arithmetic stays exact.

For a base variable ``x`` of doubled weight ``w`` the jet variables are
``x[i]`` for shifts ``i >= 0``, of doubled degree ``w + 2*i``.  They print in
mode notation ``x(-w/2 - i)``, e.g. ``g(-3/2)`` for an odd weight-3/2
generator at shift 0.

A monomial is a canonically sorted tuple of ``(base, shift)`` atoms; sorting
is by ``(degree2, base, shift)``.  Reordering tracks the Koszul sign on odd
atoms, and a repeated odd atom kills the monomial.  A polynomial is a dict
mapping monomials to nonzero ``Fraction`` coefficients; the zero polynomial
is the empty dict.  :meth:`RingSpec.poly` builds every polynomial: the sum,
product and derivations only list their signed terms for it.

The derivation ``T`` acts on atoms by ``T(x[i]) = -(w/2 + i) * x[i+1]`` and
extends to polynomials by the Leibniz rule.  ``T`` is even: it never
introduces Koszul signs by itself (re-sorting may).

This module is the exact, readable reference.  The slice builder in
:mod:`jetchar.jetquot` does not multiply through it: it numbers the atoms
in the canonical order above and packs a monomial into one integer, a
digit per atom, so that a product is one addition, and it applies ``T``
on the packed form as the integer derivation ``2T``, not through
:meth:`RingSpec.derive`, which stays here as the readable reference that
its tests compare against.
Everything public, here and there, still uses ``(base, shift)`` atom
tuples and ``Fraction`` coefficients.
"""

from fractions import Fraction


class VariableSpec:
    """A generator of the base ring: name, parity, doubled weight."""

    __slots__ = ("name", "parity", "weight2")

    def __init__(self, name, parity, weight2):
        if parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd': %r" % (parity,))
        if not isinstance(weight2, int) or weight2 < 1:
            raise ValueError("weight2 must be a positive integer: %r" % (weight2,))
        self.name = name
        self.parity = parity
        self.weight2 = weight2

    @property
    def odd(self):
        return self.parity == "odd"

    def __repr__(self):
        return "VariableSpec(%r, %r, %d)" % (self.name, self.parity, self.weight2)


def _halves(deg2):
    """Render a doubled number as an integer or a fraction in halves."""
    if deg2 % 2 == 0:
        return str(deg2 // 2)
    return "%d/2" % deg2


def _signed_sum(terms):
    """Join printed terms, folding a leading minus into `` - ``."""
    return terms[0] + "".join(" - " + t[1:] if t.startswith("-") else " + " + t
                              for t in terms[1:])


class RingSpec:
    """A finitely presented graded super-polynomial ring plus jet structure.

    ``variables`` fixes the generator order, which breaks degree ties in
    the canonical atom order ``atom_key``.  ``relations`` are homogeneous
    polynomials in the shift-0 jet variables; ``extras`` are additional
    homogeneous jet polynomials adjoined to the differential ideal (they
    need not be T-images of anything).
    """

    def __init__(self, variables, relations=(), extras=(), name=""):
        self.variables = tuple(variables)
        self.name = name
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self._index = {v.name: i for i, v in enumerate(self.variables)}
        self.relations = tuple(relations)
        self.extras = tuple(extras)
        for p in self.relations:
            for mono in p:
                if any(shift != 0 for _, shift in mono):
                    raise ValueError("relations must use shift-0 variables only")
            self.degree2(p)  # homogeneity check
        for p in self.extras:
            self.degree2(p)

    # -- atoms ---------------------------------------------------------

    def atom_degree2(self, atom):
        base, shift = atom
        return self.variables[base].weight2 + 2 * shift

    def atom_odd(self, atom):
        return self.variables[atom[0]].odd

    def atom_key(self, atom):
        base, shift = atom
        return (self.variables[base].weight2 + 2 * shift, base, shift)

    def atom_str(self, atom):
        base, shift = atom
        return "%s(-%s)" % (self.variables[base].name,
                            _halves(self.variables[base].weight2 + 2 * shift))

    # -- monomials -----------------------------------------------------

    def normalize(self, atoms):
        """Sort an atom sequence into canonical order.

        Returns ``(sign, monomial)`` with ``sign`` in ``{1, -1}``, or ``None``
        when the monomial vanishes (a repeated odd atom).  The Koszul sign is
        the parity of the out-of-order pairs among the odd atoms.
        """
        atoms = tuple(atoms)
        odd = [self.atom_key(a) for a in atoms if self.atom_odd(a)]
        if len(set(odd)) < len(odd):
            return None
        inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
        return (-1 if inversions % 2 else 1,
                tuple(sorted(atoms, key=self.atom_key)))

    def mono_degree2(self, mono):
        variables = self.variables
        return sum(variables[base].weight2 + 2 * shift for base, shift in mono)

    def mono_parity(self, mono):
        return sum(1 for a in mono if self.atom_odd(a)) % 2

    def mono_str(self, mono):
        if not mono:
            return "1"
        parts = []
        i = 0
        while i < len(mono):
            j = i
            while j < len(mono) and mono[j] == mono[i]:
                j += 1
            e = j - i
            parts.append(self.atom_str(mono[i]) + ("^%d" % e if e > 1 else ""))
            i = j
        return "*".join(parts)

    # -- polynomials ---------------------------------------------------

    def poly(self, terms):
        """Build a polynomial from ``(coeff, atom-sequence)`` pairs: sort
        each sequence with its Koszul sign, add it in, drop zero sums."""
        out = {}
        for coeff, atoms in terms:
            norm = self.normalize(atoms)
            if norm is None:
                continue
            sign, mono = norm
            c = out.get(mono, Fraction(0)) + Fraction(coeff) * sign
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
        return out

    def atom(self, name, shift=0):
        """The atom tuple for the jet variable ``name`` at ``shift``."""
        return (self._index[name], shift)

    def var(self, name, shift=0):
        """The jet variable ``name[shift]`` as a polynomial."""
        return self.poly([(1, (self.atom(name, shift),))])

    def add(self, p, q):
        return self.poly((c, m) for r in (p, q) for m, c in r.items())

    def sub(self, p, q):
        return self.add(p, self.scale(q, -1))

    def scale(self, p, c):
        return self.poly((coeff * c, mono) for mono, coeff in p.items())

    def mul(self, p, q):
        return self.poly((c1 * c2, m1 + m2)
                         for m1, c1 in p.items() for m2, c2 in q.items())

    def derivation(self, p, image):
        """Apply the even derivation sending each atom ``a`` to ``image(a)``.

        ``image(a)`` is a polynomial of the same parity as ``a``.  By the
        Leibniz rule every atom slot of a monomial is replaced in turn by
        its image, inserted at that slot, and the product is normalized,
        which supplies the Koszul signs.
        """
        return self.poly((coeff * icoeff, mono[:pos] + imono + mono[pos + 1:])
                         for mono, coeff in p.items()
                         for pos, a in enumerate(mono)
                         for imono, icoeff in image(a).items())

    def derive(self, p):
        """Apply the even derivation T once: ``x[i] -> -(w/2 + i) x[i+1]``."""
        return self.derivation(p, lambda a: self.poly(
            [(Fraction(-self.atom_degree2(a), 2), ((a[0], a[1] + 1),))]))

    def degree2(self, p):
        """Doubled degree of a homogeneous polynomial (0 for the zero poly)."""
        degs = {self.mono_degree2(m) for m in p}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous: degrees %s" % sorted(degs))
        return degs.pop()

    def poly_str(self, p):
        if not p:
            return "0"
        parts = []
        for mono in sorted(p, key=lambda m: (self.mono_degree2(m), m)):
            c = p[mono]
            s = self.mono_str(mono)
            if c == 1 and mono:
                term = s
            elif c == -1 and mono:
                term = "-" + s
            elif not mono:
                term = str(c)
            else:
                term = "%s*%s" % (c, s)
            parts.append(term)
        return _signed_sum(parts)

    # -- parsing (registry files use the same grammar) -------------------

    def parse_poly(self, text):
        """Parse ``3/2 * x(-1)^2 * g(-3/2) - y(-2)`` into a polynomial.

        Terms are separated by top-level ``+``/``-``; factors by ``*``.  A
        factor is either a rational number or ``name(-subscript)`` with an
        optional ``^exponent`` of at least 1.  The subscript must match the
        variable's weight grid: ``subscript = weight2/2 + shift`` for integer
        shift >= 0.
        """
        terms = []
        for sign, chunk in _split_terms(text):
            coeff = Fraction(sign)
            chunk = chunk.strip()
            while chunk[:1] in ("+", "-"):
                if chunk[0] == "-":
                    coeff = -coeff
                chunk = chunk[1:].strip()
            atoms = []
            for factor in chunk.split("*"):
                factor = factor.strip()
                if not factor:
                    raise ValueError("empty factor in %r" % text)
                if "(" not in factor:
                    coeff *= Fraction(factor)
                    continue
                name, _, rest = factor.partition("(")
                sub, closed, tail = rest.partition(")")
                if not closed:
                    raise ValueError("unclosed parenthesis in factor %r"
                                     % factor)
                exp = 1
                tail = tail.strip()
                if tail.startswith("^"):
                    exp = int(tail[1:]) if tail[1:].strip().isdecimal() else 0
                    if exp < 1:
                        raise ValueError("bad exponent in factor %r" % factor)
                elif tail:
                    raise ValueError("trailing junk in factor %r" % factor)
                name = name.strip()
                if name not in self._index:
                    raise ValueError("unknown variable %r" % name)
                base = self._index[name]
                sub = Fraction(sub.strip())
                shift2 = -2 * sub - self.variables[base].weight2
                if shift2 < 0 or shift2 % 2:
                    raise ValueError("subscript %s is not on the grid of %s" % (sub, name))
                atoms.extend([(base, int(shift2) // 2)] * exp)
            terms.append((coeff, atoms))
        return self.poly(terms)


def _split_terms(text):
    """Split a polynomial string at top-level + and - (yielding sign, term)."""
    out = []
    depth = 0
    sign = 1
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and _ends_term(cur):
            out.append((sign, "".join(cur)))
            sign = 1 if ch == "+" else -1
            cur = []
        else:
            cur.append(ch)
    if "".join(cur).strip():
        out.append((sign, "".join(cur)))
    elif out:
        raise ValueError("polynomial %r ends in an operator" % text)
    else:
        raise ValueError("empty polynomial string")
    return out


def _ends_term(cur):
    """True when the buffer holds a complete term (so +/- starts a new one)."""
    s = "".join(cur).strip()
    if not s:
        return False
    # a trailing '*' or '/' or '^' means the sign belongs to the next factor
    return not s.endswith(("*", "/", "^"))
