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
so that product falls off the columns), and its Koszul sign is one masked
bit count (:meth:`_Atoms.flips`).  Only ``w`` depends on ``top``:
the table still grows lazily, and each degree's monomial budget is checked
before it is enumerated.  Each ``T^j(g)`` is computed once per call and
stored packed as a primitive integer polynomial: ``T^0`` is the generator
with its denominators cleared, and each higher power applies the scaled
derivation ``2T`` on the packed form (one digit moves to the next shift
with an integer factor), so :meth:`RingSpec.derive` and ``Fraction`` stay
off the slice path.

Most relations are monomials, so many powers have a single term, and every
monomial that such a power divides lies in the ideal.  So does every
monomial ``c`` that a slice's echelon pivots on alone (a pivot row
``{c: 1}``): :func:`hilbert_series` *learns* these as cuts, after the
echelon of their degree, and no slice above spends columns, factors or
rows on their multiples again.  The columns of a slice are therefore only
the *standard* monomials, those that no cut divides: no single-term power
and no learned monomial of lower degree.  Their table for each degree is
built from the tables below it (:meth:`_Atoms.monomials`): a standard
monomial less its smallest atom is a standard monomial of lower degree,
so only the cuts that start at that atom can divide it, and their
multiples in the block are made from the lower tables and removed in one
set difference.  The rows are the products of the powers with several
terms by standard factors, restricted to the standard columns.  A
monomial left out is in the ideal, and a product with a factor left out
lands on monomials left out only, so the rank is smaller by exactly the
number of monomials left out and ``#columns - rank`` is unchanged.  Rows
that repeat are not filtered: the echelon reduces a repeat to zero, which
costs less than hashing every row to find the few repeats.

The public functions still take and return ``(base, shift)`` atom tuples
and ``Fraction`` coefficients.  Each call builds one slice context,
:class:`_TPowers`, which also holds the monomial budget;
:func:`hilbert_series` is the one per-degree loop, and the only caller
that learns cuts (:func:`contains` builds a single slice).
:func:`ideal_basis` and :func:`ideal_rows` are internal, but keep their
names and take the degree second, because ``perfbench`` traces them by
name and reads it there.
"""

import math
from bisect import bisect_left, bisect_right

from .qseries import free_product
from .superring import RingSpec

DEFAULT_MONOMIAL_LIMIT = 200_000


class ResourceLimitError(RuntimeError):
    """Raised when a graded piece exceeds the monomial budget."""


class _Atoms:
    """The jet atoms of a ring, numbered in canonical atom order.

    ``atom[i]`` is the ``(base, shift)`` atom with id ``i``, ``degree2[i]``
    its doubled degree, ``odd[i]`` its parity and ``unit[i]`` its packed
    form ``1 << (width * i)``, and ``next[i]`` the id of the atom one shift
    up (``None`` past the table); ``ids`` maps an atom to its id, and
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
        self.next = [self.ids.get((b, s + 1)) for b, s in self.atom]
        self.grown = degree2

    def encode(self, mono):
        """The packed form of a canonical atom-tuple monomial in the table."""
        return sum(self.unit[self.ids[a]] for a in mono)

    def digits(self, p):
        """The ``(id, multiplicity)`` pairs of a packed monomial, ascending."""
        w = self.width
        mask = (1 << w) - 1
        while p:
            a = ((p & -p).bit_length() - 1) // w  # the lowest nonzero digit
            k = p >> (w * a) & mask
            yield a, k
            p -= k << (w * a)

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

    def monomials(self, tables, degree2, cuts):
        """The packed monomials of the doubled degree that none of the
        ``cuts`` divides, in a fixed order.

        A cut is a pair (packed monomial, its doubled degree).  The order
        is ascending in the exponent vector over atom ids (a monomial
        without an atom comes before those with it), so the monomials
        whose atoms are all ``i`` or above form a prefix.  Odd atoms appear
        at most once.  ``tables[d]`` is the pair (monomials of degree
        ``d``, prefix length by atom), and the list grows through
        ``degree2`` a degree at a time: a monomial whose smallest atom is
        ``i`` is ``x + unit[i]`` for an ``x`` in the prefix of atoms ``i``
        and above (above ``i`` when ``i`` is odd) of the table
        ``degree2[i]`` degrees lower, so only the cuts whose smallest atom
        is ``i`` can divide it.  Their multiples are made, not tested for:
        each is ``t + y`` with ``y`` from the same prefix of the table
        ``deg(t)`` degrees lower, and the block drops them in one set
        difference.  That finds every one, because when ``t`` divides
        ``x + unit[i]``, ``y`` divides ``x``, so ``y`` is standard and in
        that prefix.  Every cut of degree at most ``d`` must be in ``cuts``
        when the table of ``d`` is built.
        """
        self.grow(degree2)
        deg, odd, unit, w = self.degree2, self.odd, self.unit, self.width
        while len(tables) <= degree2:
            d = len(tables)
            fits = bisect_right(deg, d)
            by_low = {}  # the cuts of degree at most d, by smallest atom
            for t, e in cuts:
                if 0 < e <= d:
                    by_low.setdefault(((t & -t).bit_length() - 1) // w,
                                      []).append((t, e))
            out = [0] if d == 0 and (0, 0) not in cuts else []  # unit ideal
            starts = [len(out)] * (fits + 1)
            for i in range(fits - 1, -1, -1):
                start, u = i + odd[i], unit[i]
                new = [x + u for x in _prefix(tables[d - deg[i]], start)]
                if i in by_low:
                    multiples = {t + y for t, e in by_low[i]
                                 for y in _prefix(tables[d - e], start)}
                    new = [m for m in new if m not in multiples]
                out += new
                starts[i] = len(out)
            tables.append((out, starts))
        return tables[degree2][0]


def _prefix(table, i):
    """The monomials of a table whose atoms are all ``i`` or above."""
    monomials, starts = table
    return monomials[:starts[min(i, len(starts) - 1)]]


def enumerate_monomials(spec, degree2, limit=DEFAULT_MONOMIAL_LIMIT):
    """All jet monomials of the given doubled degree, in a fixed order.

    Atoms are taken ascending in the canonical atom order ``(degree2, base,
    shift)``; odd atoms appear at most once.  The result is deterministic and
    each monomial tuple is already canonical.  These are the standard
    monomials of the free ring on ``spec``'s variables, and the columns of
    a slice built by :func:`ideal_rows` are the standard monomials of this
    list, in its order.
    """
    if degree2 < 0:
        return []
    tpowers = _TPowers(RingSpec(spec.variables), degree2, limit)
    return [tpowers.atoms.decode(m) for m in tpowers.standard(degree2)]


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
    ``d`` that no cut divides: no power with a single term, and no
    monomial that :meth:`cut` was given.
    """

    def __init__(self, spec, top, limit):
        self.limit = limit
        self._weights = [(v.weight2, v.parity) for v in spec.variables]
        self._free = free_product(self._weights, 0)
        gens = list(spec.relations) + list(spec.extras)
        gens = [g for g in gens if g]  # odd squares normalise to zero
        self.base_degree2 = [spec.degree2(g) for g in gens]
        self.atoms = atoms = _Atoms(spec, max([top, 0] + self.base_degree2))
        atoms.grow(max(self.base_degree2, default=0))
        self._tables = []
        self._learned = []  # (packed monomial, degree2) given to cut
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
        """The packed standard monomials of the degree, in the order of
        :meth:`_Atoms.monomials`, which builds each table from those below.

        The atom table is grown to the degree first, and then every power
        of degree at most ``degree2`` is made before its table, so no cut
        that could divide one of them comes later.  Besides the powers with
        a single term, the cuts are the monomials learned by :meth:`cut`,
        which leave the tables above theirs.  ``limit`` caps the count of
        all monomials of the degree, cut or not, read off the free jet
        character, which is kept to the highest degree asked for so far and
        doubled when a higher one is asked for.
        """
        tables = self._tables
        if degree2 >= len(tables):
            self.atoms.grow(degree2)
            for i, d0 in enumerate(self.base_degree2):
                if d0 <= degree2:
                    self.get(i, (degree2 - d0) // 2)
        if degree2 > self._free.maxdeg2:
            self._free = free_product(self._weights, min(
                self.atoms.top, max(degree2, 2 * self._free.maxdeg2)))
        if self._free[degree2] > self.limit:
            raise ResourceLimitError(
                "more than %d monomials at degree2=%d" % (self.limit, degree2))
        if degree2 >= len(tables):
            cuts = [(terms[0][0], d0 + 2 * j)
                    for d0, powers in zip(self.base_degree2, self._terms)
                    for j, terms in enumerate(powers) if len(terms) == 1]
            self.atoms.monomials(tables, degree2, cuts + self._learned)
        return tables[degree2][0]

    def cut(self, degree2, monomials):
        """Learn that the packed ``monomials`` of the degree lie in the
        ideal: drop them from the table of the degree, and their multiples
        from every table built after it.

        A product with a multiple of a learned cut is a multiple too, so it
        leaves the factors as well as the columns, and ``#columns - rank``
        stays the quotient dimension.  Only the newest table can be cut,
        because the tables above it would still hold the multiples.
        """
        if degree2 != len(self._tables) - 1:
            raise ValueError("cannot cut degree2=%d: the newest table is %d"
                             % (degree2, len(self._tables) - 1))
        drop = set(monomials)
        table, starts = self._tables[degree2]
        gone = [k for k, m in enumerate(table) if m in drop]
        self._tables[degree2] = ([m for m in table if m not in drop],
                                 [s - bisect_left(gone, s) for s in starts])
        self._learned += [(m, degree2) for m in drop]

    def _derive(self, terms):
        """``2T`` of a list of terms, divided by its positive content.

        ``2T`` moves one copy of atom ``a`` to the next shift ``b`` with
        the integer factor ``-(degree2 of a)`` times the multiplicity of
        ``a``.  An odd ``a`` takes the sign of the odd atoms strictly
        between ``a`` and ``b``, which it passes, and dies when ``b`` is
        present.
        """
        atoms = self.atoms
        nxt, deg, unit = atoms.next, atoms.degree2, atoms.unit
        out = {}
        for t, c, _ in terms:
            t_odd = t & atoms.odd_bits
            for a, k in atoms.digits(t):
                b = nxt[a]
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
    monomials.  A row left empty is skipped; a repeated row is kept, and
    :meth:`Echelon.insert` reduces it to zero.
    """
    table = tpowers.standard(degree2)
    odd_bits = tpowers.atoms.odd_bits
    columns = {m: k for k, m in enumerate(table)}
    rows = []
    for i, d0 in enumerate(tpowers.base_degree2):
        for j in range((degree2 - d0) // 2 + 1):
            terms = tpowers.get(i, j)
            if len(terms) < 2:
                continue
            for m in tpowers.standard(degree2 - d0 - 2 * j):
                row = _product_row(columns, m, m & odd_bits, terms)
                if row:
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
    """Graded dimensions of the jet quotient for doubled degrees 0..maxdeg2.

    A pivot with a single column ``{c: 1}`` shows that the monomial ``c``
    lies in the ideal, so after each degree's echelon those monomials are
    cut (:meth:`_TPowers.cut`): the slices above leave out their multiples,
    as columns and as factors, and do not spend rows on them again.
    """
    tpowers = _TPowers(spec, maxdeg2, limit)
    dims = []
    for d in range(maxdeg2 + 1):
        ech, n = ideal_basis(tpowers, d)
        dims.append(n - ech.rank)
        table = tpowers.standard(d)
        tpowers.cut(d, [table[c] for c, row in ech.pivots.items()
                        if len(row) == 1])
    return dims


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
