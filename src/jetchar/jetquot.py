"""Truncated infinite-jet quotients and their graded dimensions.

For a presented ring (see :class:`jetchar.superring.RingSpec`) the jet
algebra is the free super-polynomial ring on all jet variables ``x[i]``
modulo the differential ideal generated by the relations, their
T-derivatives of every order, and any extra generators (again with all
T-derivatives).

Everything here is graded by the doubled degree, which is finite in each
piece, so each graded component is handled by exact rational linear algebra:
rows are the ideal elements ``m * T^j(g)`` landing in that degree, columns
are the jet monomials of that degree, and the quotient dimension is
``#columns - rank``.

Rows are scaled to integers and reduced by a sparse Gaussian echelon with
deterministic smallest-column pivoting, so ranks do not depend on dict
ordering, generator order, or scalar rescalings of the generators.

Slices are built on integers only.  The jet atoms ``(base, shift)`` are
numbered in the canonical atom order ``(degree2, base, shift)``; the table
grows a whole degree at a time, so an id never changes once given.  A
monomial with multiplicity ``k_a`` of atom ``a`` is the *packed* integer
``sum(k_a << (w * a))`` (packed exponent vectors: Monagan and Pearce, CASC
2007).  A :func:`hilbert_series` or :func:`contains` call packs degrees up
to ``top`` (its ``maxdeg2`` or query degree, and the generators' degrees)
with ``w = top.bit_length() + 1``.  Every atom has doubled degree at least
1, so no digit of a monomial or product of degree at most ``top`` exceeds
``top``: bit ``w - 1`` of every digit is a free guard bit, digits never
carry, and a degree above ``top`` is refused.  So a product is the sum of
the packed forms (a shared odd atom gives a digit 2, which no column has,
so that product falls off the columns), its Koszul sign is one masked bit
count (:meth:`_Atoms.flips`), and ``t`` divides ``m`` exactly when
``((m | guard) - t) & guard == guard``.  Only ``w`` depends on ``top``:
the table still grows lazily, and each degree's monomial budget is checked
before it is enumerated.  Each ``T^j(g)`` is computed once per call and
stored packed as a primitive integer polynomial: ``T^0`` is the generator
with its denominators cleared, and each higher power applies the scaled
derivation ``2T`` on the packed form (one digit moves to the next shift
with an integer factor), so :meth:`RingSpec.derive` and ``Fraction`` stay
off the slice path.

Most relations are monomials, so many powers have a single term, and every
monomial that such a power divides lies in the ideal.  The columns of a
slice are therefore only the *standard* monomials, those that no
single-term power divides: the enumerator cuts every other one, the rows
are the products of the powers with several terms by standard factors,
restricted to the standard columns, and the rank is smaller by exactly
the number of monomials left out, so ``#columns - rank`` is unchanged.
The public functions still take and return ``(base, shift)`` atom tuples
and ``Fraction`` coefficients.  Each call builds one slice context,
:class:`_TPowers`, which also holds the monomial budget;
:func:`hilbert_series` is the one per-degree loop.  :func:`ideal_basis` and
:func:`ideal_rows` are internal, but keep their names and take the degree
second, because ``perfbench`` traces them by name and reads it there.
"""

import math
from bisect import bisect_right

from .qseries import free_product

DEFAULT_MONOMIAL_LIMIT = 200_000


class ResourceLimitError(RuntimeError):
    """Raised when a graded piece exceeds the monomial budget."""


class _Atoms:
    """The jet atoms of a ring, numbered in canonical atom order.

    ``atom[i]`` is the ``(base, shift)`` atom with id ``i``, ``degree2[i]``
    its doubled degree, ``odd[i]`` its parity and ``unit[i]`` its packed
    form ``1 << (width * i)``; ``ids`` maps an atom to its id, and
    ``odd_bits`` is the sum of the odd units.  The table holds every atom
    of doubled degree at most ``grown``, and grows up to ``top``.
    """

    def __init__(self, spec, top):
        self.spec = spec
        self.top = top
        self.width = top.bit_length() + 1
        self.grown = -1
        self.grow(0)

    def grow(self, degree2):
        """Number every atom of doubled degree at most ``degree2``.

        The order is degree-first, so the atoms already numbered keep their
        ids: they are a prefix of the new table.
        """
        if degree2 <= self.grown:
            return
        if degree2 > self.top:
            raise ValueError("degree2=%d is above the packed top %d"
                             % (degree2, self.top))
        spec = self.spec
        atoms = [(base, shift) for base, v in enumerate(spec.variables)
                 for shift in range((degree2 - v.weight2) // 2 + 1)]
        self.atom = sorted(atoms, key=spec.atom_key)
        self.ids = {a: i for i, a in enumerate(self.atom)}
        self.degree2 = [spec.atom_degree2(a) for a in self.atom]
        self.odd = [spec.atom_odd(a) for a in self.atom]
        self.unit = [1 << (self.width * i) for i in range(len(self.atom))]
        self.odd_bits = sum(u for u, o in zip(self.unit, self.odd) if o)
        self.grown = degree2

    def encode(self, mono):
        """The packed form of a canonical atom-tuple monomial in the table."""
        return sum(self.unit[self.ids[a]] for a in mono)

    def digits(self, p):
        """The ``(id, multiplicity)`` pairs of a packed monomial, ascending."""
        w, a = self.width, 0
        mask = (1 << w) - 1
        while p:
            if p & mask:
                yield a, p & mask
            p, a = p >> w, a + 1

    def decode(self, p):
        """The canonical atom-tuple monomial of a packed one."""
        return tuple(self.atom[a] for a, k in self.digits(p) for _ in range(k))

    def flips(self, p):
        """The XOR of ``-1 << (width * b + 1)`` over the odd atoms ``b`` of
        ``p``: ``(m & odd_bits & flips(p)).bit_count()`` has the parity of
        the odd atoms ``a > b`` of ``m`` that ``b`` moves past in ``m * p``.
        """
        out = 0
        for b, _ in self.digits(p & self.odd_bits):
            out ^= -1 << (self.width * b + 1)
        return out

    def monomials(self, degree2, limit, cuts=()):
        """The packed monomials of the doubled degree, in a fixed order.

        The order is ascending in the exponent vector over atom ids (a
        monomial without an atom comes before those with it).  Odd atoms
        appear at most once.  A monomial that one of the packed monomials
        ``cuts`` divides is left out, with its whole subtree.  ``limit``
        caps the count of all monomials of the degree, cut or not, read off
        the free jet character before anything is enumerated.
        """
        if degree2 < 0:
            return []
        self.grow(degree2)
        weights = [(v.weight2, v.parity) for v in self.spec.variables]
        if free_product(weights, degree2)[degree2] > limit:
            raise ResourceLimitError(
                "more than %d monomials at degree2=%d" % (limit, degree2))
        if 0 in cuts:  # a constant generates the unit ideal
            return []
        deg, odd, unit, w = self.degree2, self.odd, self.unit, self.width
        fits = [bisect_right(deg, r) for r in range(degree2 + 1)]
        guard = sum(unit[:fits[degree2]]) << (w - 1)  # atoms that fit
        by_top = [[] for _ in range(fits[degree2])]  # cuts by largest id
        for t in cuts:
            if sum(deg[a] * k for a, k in self.digits(t)) <= degree2:
                by_top[(t.bit_length() - 1) // w].append(t)
        out = []

        def rec(first, remaining, prefix):
            if remaining == 0:
                out.append(prefix)
                return
            # extend prefix by atoms >= first that fit; each atom's exclusion
            # comes before its inclusion, hence the descending loop
            for i in range(fits[remaining] - 1, first - 1, -1):
                d, u, cut = deg[i], unit[i], by_top[i]
                mono, left = prefix, remaining
                while True:
                    mono += u
                    left -= d
                    # every atom below i is placed, so a cut ending in i
                    # divides mono now or no extension of it by atoms above i
                    if cut:
                        g = mono | guard
                        if any((g - t) & guard == guard for t in cut):
                            break
                    rec(i + 1, left, mono)
                    if odd[i] or left < d:
                        break

        rec(0, degree2, 0)
        return out


def enumerate_monomials(spec, degree2, limit=DEFAULT_MONOMIAL_LIMIT):
    """All jet monomials of the given doubled degree, in a fixed order.

    Atoms are taken ascending in the canonical atom order ``(degree2, base,
    shift)``; odd atoms appear at most once.  The result is deterministic and
    each monomial tuple is already canonical.  The columns of a slice built
    by :func:`ideal_rows` are the standard monomials of this list, in its
    order.
    """
    atoms = _Atoms(spec, max(degree2, 0))
    return [atoms.decode(m) for m in atoms.monomials(degree2, limit)]


class Echelon:
    """Sparse integer row echelon with deterministic pivoting.

    Rows are dicts ``{column: int}``; ``columns`` maps each packed
    standard monomial of the slice to its column.  ``insert`` reduces a row
    against the current pivots (always eliminating the smallest column
    first) and, if a nonzero remainder survives, installs it as a new pivot
    after dividing by its content.  ``reduce`` performs the same elimination
    without installing, so membership tests do not grow the basis.
    """

    def __init__(self, columns):
        self.columns = columns
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def _eliminate(self, row):
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                return row, c
            a = piv[c]
            b = row[c]
            g = math.gcd(a, b)
            fa = a // g
            fb = b // g
            if fa != 1:
                for k in row:
                    row[k] *= fa
            for k, v in piv.items():
                nv = row.get(k, 0) - fb * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        return row, None

    def insert(self, row):
        """Insert a row; returns True when it increased the rank."""
        row, c = self._eliminate(dict(row))
        if c is None:
            return False
        g = 0
        for v in row.values():
            g = math.gcd(g, v)
        if row[c] < 0:
            g = -g
        if g != 1:
            for k in row:
                row[k] //= g
        self.pivots[c] = row
        return True

    def reduce(self, row):
        """Reduce a row without installing; returns the remainder dict."""
        row, _ = self._eliminate(dict(row))
        return row


def _int_row(columns, poly):
    """Clear denominators of a polynomial supported on ``columns``."""
    if not poly:
        return {}
    denom = 1
    for c in poly.values():
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    row = {}
    for mono, c in poly.items():
        row[columns[mono]] = int(c * denom)
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
    if g > 1:
        for k in row:
            row[k] //= g
    return row


class _TPowers:
    """One call's atom table, T^j(generator), standard monomials and budget.

    It packs degrees up to ``top`` and the generators' own, within the
    monomial budget ``limit`` of each degree.  ``get(i, j)``
    is ``T^j`` of generator ``i`` as terms ``(monomial, int, flips)``: the
    primitive integer polynomial that is a positive multiple of
    ``spec.derive`` applied ``j`` times.  Only ``T^0`` is read from the
    ``Fraction`` generator; each higher power is ``2T`` of the one below
    (:meth:`_derive`).  ``standard(d)`` lists the monomials of degree
    ``d`` that no power with a single term divides.
    """

    def __init__(self, spec, top, limit):
        self.limit = limit
        gens = list(spec.relations) + list(spec.extras)
        gens = [g for g in gens if g]  # odd squares normalise to zero
        self.base_degree2 = [spec.degree2(g) for g in gens]
        self.atoms = atoms = _Atoms(spec, max([top, 0] + self.base_degree2))
        atoms.grow(max(self.base_degree2, default=0))
        self._tables = {}
        self._terms = []
        for g in gens:
            row = _int_row({m: atoms.encode(m) for m in g}, g)
            self._terms.append(
                [[(t, c, atoms.flips(t)) for t, c in row.items()]])

    def get(self, i, j):
        powers = self._terms[i]
        while len(powers) <= j:
            self.atoms.grow(self.base_degree2[i] + 2 * len(powers))
            powers.append(self._derive(powers[-1]))
        return powers[j]

    def standard(self, degree2):
        """The packed standard monomials of the degree, in enumeration order.

        Built once: every power of degree at most ``degree2`` is made
        first, so no cut that could divide one of them comes later.
        """
        table = self._tables.get(degree2)
        if table is None:
            for i, d0 in enumerate(self.base_degree2):
                if d0 <= degree2:
                    self.get(i, (degree2 - d0) // 2)
            cuts = [terms[0][0] for powers in self._terms
                    for terms in powers if len(terms) == 1]
            table = self._tables[degree2] = self.atoms.monomials(
                degree2, self.limit, cuts)
        return table

    def _derive(self, terms):
        """``2T`` of a list of terms, divided by its positive content.

        ``2T`` moves one copy of atom ``a`` to the next shift ``b`` with
        the integer factor ``-(degree2 of a)`` times the multiplicity of
        ``a``.  An odd ``a`` takes the sign of the odd atoms strictly
        between ``a`` and ``b``, which it passes, and dies when ``b`` is
        present.
        """
        atoms = self.atoms
        ids, deg, unit = atoms.ids, atoms.degree2, atoms.unit
        out = {}
        for t, c, _ in terms:
            t_odd = t & atoms.odd_bits
            for a, k in atoms.digits(t):
                base, shift = atoms.atom[a]
                b = ids[(base, shift + 1)]
                f = -deg[a] * k * c
                if atoms.odd[a]:
                    if t & unit[b]:
                        continue
                    # the bits strictly between digit a and digit b
                    if (t_odd & (unit[b] - (unit[a] << 1))).bit_count() & 1:
                        f = -f
                new = t - unit[a] + unit[b]
                out[new] = out.get(new, 0) + f
        out = {t: c for t, c in out.items() if c}
        if not out:
            return []
        g = math.gcd(*out.values())
        return [(t, c // g, atoms.flips(t)) for t, c in out.items()]


def _product_row(columns, m, m_odd, terms):
    """The row of ``m * T^j(g)`` on the standard ``columns``, where
    ``m_odd`` is ``m & odd_bits``: ``_int_row`` of the product with the
    entries off the columns (a shared odd atom among them) dropped, divided
    by its content.
    """
    row = {}
    partial = False
    for t, c, flip in terms:
        k = columns.get(m + t)
        if k is None:
            partial = True
        else:
            row[k] = -c if (m_odd & flip).bit_count() & 1 else c
    # distinct terms give distinct products, so only a vanished or dropped
    # term can leave a common factor behind
    if partial and row:
        g = math.gcd(*row.values())
        if g > 1:
            row = {k: v // g for k, v in row.items()}
    return row


def ideal_rows(tpowers, degree2):
    """Integer rows spanning the degree-``degree2`` slice of the ideal.

    Returns ``(columns, rows)`` where ``columns`` maps each standard
    monomial of the degree (packed, see :class:`_Atoms`) to its index and
    ``rows`` is a list of sparse integer rows over them.  Every monomial
    off the columns is in the ideal, and the rows span the products
    ``m * T^j(g)`` modulo those monomials.

    Only the powers with several terms give rows, and only with standard
    factors ``m``: the other products lie in the span of the left-out
    monomials.  A row left empty, or equal to one already taken, is
    skipped.
    """
    table = tpowers.standard(degree2)
    odd_bits = tpowers.atoms.odd_bits
    columns = {m: k for k, m in enumerate(table)}
    rows = []
    seen = {frozenset()}  # an empty row counts as taken
    for i, d0 in enumerate(tpowers.base_degree2):
        for j in range((degree2 - d0) // 2 + 1):
            terms = tpowers.get(i, j)
            if len(terms) < 2:
                continue
            for m in tpowers.standard(degree2 - d0 - 2 * j):
                row = _product_row(columns, m, m & odd_bits, terms)
                key = frozenset(row.items())
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
    # Short structured rows first: they pin pivots cheaply and keep fill low.
    rows.sort(key=lambda r: (len(r), min(r)))
    return columns, rows


def ideal_basis(tpowers, degree2):
    """Echelon basis of the degree slice of the differential ideal.

    Returns ``(echelon, n_columns)``; the quotient dimension of the slice is
    ``n_columns - echelon.rank``.
    """
    columns, rows = ideal_rows(tpowers, degree2)
    ech = Echelon(columns)
    for row in rows:
        ech.insert(row)
    return ech, len(columns)


def hilbert_series(spec, maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """Graded dimensions of the jet quotient for doubled degrees 0..maxdeg2."""
    tpowers = _TPowers(spec, maxdeg2, limit)
    return [n - ech.rank for ech, n in
            (ideal_basis(tpowers, d) for d in range(maxdeg2 + 1))]


def contains(spec, poly, limit=DEFAULT_MONOMIAL_LIMIT):
    """Is the homogeneous polynomial in the differential ideal's slice?"""
    if not poly:
        return True
    degree2 = spec.degree2(poly)
    tpowers = _TPowers(spec, degree2, limit)
    ech, _ = ideal_basis(tpowers, degree2)
    index = {m: ech.columns.get(tpowers.atoms.encode(m)) for m in poly}
    # a monomial off the columns is in the ideal already
    live = {m: c for m, c in poly.items() if index[m] is not None}
    return not ech.reduce(_int_row(index, live))
