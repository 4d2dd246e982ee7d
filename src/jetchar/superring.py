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
is the empty dict.

The derivation ``T`` acts on atoms by ``T(x[i]) = -(w/2 + i) * x[i+1]`` and
extends to polynomials by the Leibniz rule.  ``T`` is even: it never
introduces Koszul signs by itself (re-sorting may).

This module is the exact, readable reference.  The slice builder in
:mod:`jetchar.jetquot` does not multiply through it: it numbers the atoms
in the canonical order above, so that a monomial is a sorted tuple of int
ids and a product is a merge, and it converts each ``T^j`` of a generator,
computed here with :meth:`RingSpec.derive`, into a primitive integer
polynomial over those ids.  Everything public, here and there, still uses
``(base, shift)`` atom tuples and ``Fraction`` coefficients.
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


class RingSpec:
    """A finitely presented graded super-polynomial ring plus jet structure.

    ``variables`` fixes the generator order (it also drives the term order in
    :mod:`jetchar.combinat`).  ``relations`` are homogeneous polynomials in
    the shift-0 jet variables; ``extras`` are additional homogeneous jet
    polynomials adjoined to the differential ideal (they need not be
    T-images of anything).
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
        when the monomial vanishes (a repeated odd atom).
        """
        atoms = list(atoms)
        keyed = sorted(range(len(atoms)), key=lambda i: (self.atom_key(atoms[i]), i))
        # Koszul sign: parity of inversions among odd atoms in the original order.
        odd_positions = [i for i in range(len(atoms)) if self.atom_odd(atoms[i])]
        seen = set()
        for i in odd_positions:
            if atoms[i] in seen:
                return None
            seen.add(atoms[i])
        inversions = 0
        odd_ranks = [keyed.index(i) for i in odd_positions]
        # odd_positions is in original order; count pairs sorted the other way round
        for a in range(len(odd_ranks)):
            for b in range(a + 1, len(odd_ranks)):
                if odd_ranks[a] > odd_ranks[b]:
                    inversions += 1
        return (-1 if inversions % 2 else 1, tuple(atoms[i] for i in keyed))

    def mono_degree2(self, mono):
        return sum(self.atom_degree2(a) for a in mono)

    def mono_parity(self, mono):
        return sum(1 for a in mono if self.atom_odd(a)) % 2

    def mul_mono(self, m1, m2):
        """Product of two canonical monomials: ``(sign, monomial)`` or None."""
        if not m1:
            return (1, m2)
        if not m2:
            return (1, m1)
        return self.normalize(m1 + m2)

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
        """Build a polynomial from ``(coeff, atom-sequence)`` pairs."""
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
        return {((self._index[name], shift),): Fraction(1)}

    def add(self, p, q):
        out = dict(p)
        for mono, c in q.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return out

    def sub(self, p, q):
        return self.add(p, self.scale(q, -1))

    def scale(self, p, c):
        c = Fraction(c)
        if not c:
            return {}
        return {mono: coeff * c for mono, coeff in p.items()}

    def mul(self, p, q):
        out = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                norm = self.mul_mono(m1, m2)
                if norm is None:
                    continue
                sign, mono = norm
                c = out.get(mono, Fraction(0)) + c1 * c2 * sign
                if c:
                    out[mono] = c
                else:
                    out.pop(mono, None)
        return out

    def derive(self, p):
        """Apply the even derivation T once (Leibniz over every atom slot)."""
        out = {}
        for mono, coeff in p.items():
            for pos, (base, shift) in enumerate(mono):
                w = self.variables[base].weight2
                factor = coeff * Fraction(-(w + 2 * shift), 2)
                bumped = mono[:pos] + ((base, shift + 1),) + mono[pos + 1:]
                norm = self.normalize(bumped)
                if norm is None:
                    continue
                sign, m = norm
                c = out.get(m, Fraction(0)) + factor * sign
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        return out

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
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

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
                sub, _, tail = rest.partition(")")
                exp = 1
                tail = tail.strip()
                if tail.startswith("^"):
                    exp = int(tail[1:])
                    if exp < 1:
                        raise ValueError("exponent below 1 in factor %r" % factor)
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
    elif not out:
        raise ValueError("empty polynomial string")
    return out


def _ends_term(cur):
    """True when the buffer holds a complete term (so +/- starts a new one)."""
    s = "".join(cur).strip()
    if not s:
        return False
    # a trailing '*' or '/' or '^' means the sign belongs to the next factor
    return not s.endswith(("*", "/", "^"))
