"""A small super-polynomial algebra of the benchmark's own.

The membership workload builds ideal members as combinations of
``m * T^j(g)``.  If it built them with ``jetchar``'s own ``derive`` and
``mul_mono_poly``, a defect there would make the program agree with its
own oracle.  So this module redoes that arithmetic independently, from the
definitions alone:

* an atom ``(base, shift)`` is the jet variable ``x_base[shift]``, of
  doubled degree ``weight2 + 2 * shift``;
* odd atoms anticommute and square to zero;
* ``T(x[s]) = -(weight2 + 2s)/2 * x[s+1]`` and ``T`` is an even derivation.

Monomials are kept sorted by ``(base, shift)``, an order unrelated to the
one ``jetchar`` uses.  Polynomials cross the boundary only as text in the
grammar that ``RingSpec.poly_str`` prints and ``RingSpec.parse_poly`` reads.
"""

import re
from fractions import Fraction

_ATOM = re.compile(r"^(\w+)\(-(\d+(?:/2)?)\)(?:\^(\d+))?$")


class Algebra:
    """Super-polynomials over the generators ``(name, odd, weight2)``."""

    def __init__(self, variables):
        self.names = [name for name, _, _ in variables]
        self.odd = [odd for _, odd, _ in variables]
        self.weight2 = [w2 for _, _, w2 in variables]
        self._index = {name: i for i, name in enumerate(self.names)}

    def atom_degree2(self, atom):
        base, shift = atom
        return self.weight2[base] + 2 * shift

    def degree2(self, poly):
        """Doubled degree of a nonzero homogeneous polynomial."""
        return sum(self.atom_degree2(a) for a in next(iter(poly)))

    def atoms_up_to(self, degree2):
        """Every atom of doubled degree at most ``degree2``."""
        return [(base, shift)
                for base, w2 in enumerate(self.weight2)
                for shift in range((degree2 - w2) // 2 + 1)]

    def canonical(self, atoms):
        """``(sign, sorted monomial)``, or None when an odd atom repeats.

        Sorting swaps neighbours; each swap of two odd atoms flips the sign.
        """
        atoms = list(atoms)
        sign = 1
        for i in range(1, len(atoms)):
            j = i
            while j > 0 and atoms[j - 1] > atoms[j]:
                if self.odd[atoms[j][0]] and self.odd[atoms[j - 1][0]]:
                    sign = -sign
                atoms[j - 1], atoms[j] = atoms[j], atoms[j - 1]
                j -= 1
        for a, b in zip(atoms, atoms[1:]):
            if a == b and self.odd[a[0]]:
                return None
        return sign, tuple(atoms)

    def add_term(self, poly, coeff, atoms):
        """Add ``coeff`` times the product of ``atoms`` (in that order)."""
        norm = self.canonical(atoms)
        if norm is None or not coeff:
            return
        sign, mono = norm
        value = poly.get(mono, 0) + sign * coeff
        if value:
            poly[mono] = value
        else:
            poly.pop(mono, None)

    def derive(self, poly):
        """``T`` applied once, by the Leibniz rule."""
        out = {}
        for mono, coeff in poly.items():
            for pos, (base, shift) in enumerate(mono):
                factor = Fraction(-(self.weight2[base] + 2 * shift), 2)
                bumped = mono[:pos] + ((base, shift + 1),) + mono[pos + 1:]
                self.add_term(out, coeff * factor, bumped)
        return out

    def times(self, coeff, mono, poly):
        """``coeff * mono * poly``."""
        out = {}
        for m, c in poly.items():
            self.add_term(out, coeff * c, mono + m)
        return out

    def add(self, p, q):
        out = dict(p)
        for mono, c in q.items():
            self.add_term(out, c, mono)
        return out

    def parse(self, text):
        """Read the output of ``RingSpec.poly_str``."""
        poly = {}
        for sign, term in _terms(text):
            coeff = Fraction(sign)
            atoms = []
            for factor in term.split("*"):
                match = _ATOM.match(factor)
                if match is None:
                    coeff *= Fraction(factor)
                    continue
                name, sub, exp = match.groups()
                base = self._index[name]
                shift2 = 2 * Fraction(sub) - self.weight2[base]
                if shift2 < 0 or shift2 % 2:
                    raise ValueError("atom %r is off the weight grid" % factor)
                atoms.extend([(base, int(shift2) // 2)] * int(exp or 1))
            self.add_term(poly, coeff, atoms)
        return poly

    def format(self, poly):
        """Text that ``RingSpec.parse_poly`` reads back to ``poly``."""
        if not poly:
            return "0"
        out = []
        for mono, coeff in poly.items():
            atoms = "*".join("%s(-%s)" % (self.names[base],
                                          _halves(self.atom_degree2((base, shift))))
                             for base, shift in mono)
            sep = " - " if coeff < 0 else " + "
            out.append("%s%s*%s" % (sep, abs(coeff), atoms))
        text = "".join(out)
        return text[3:] if text.startswith(" + ") else "-" + text[3:]


def _halves(degree2):
    return str(degree2 // 2) if degree2 % 2 == 0 else "%d/2" % degree2


def _terms(text):
    """Split ``a - b + c`` at its top-level signs; subscripts hold no spaces."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    yield sign, pieces[0]
    for op, term in zip(pieces[1::2], pieces[2::2]):
        yield (1 if op == "+" else -1), term
