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

Integer rows are handed over as built to one sparse Gaussian echelon,
:class:`Echelon` (deterministic smallest-column pivoting), which reduces
them in place and alone takes out their content, so ranks do not depend
on dict ordering, generator order, or scalar rescalings of generators.

Slices are built on integers only.  The jet atoms ``(base, shift)`` are
numbered in the canonical atom order ``(degree2, base, shift)``; the table
grows a degree at a time by appending that degree's atoms, so an id never
changes once given.  A monomial with multiplicity ``k_a`` of atom ``a`` is
the *packed* integer ``sum(k_a << (w * a))`` (packed exponent vectors:
Monagan and Pearce, CASC 2007).  A slice context packs degrees up to
``top`` (the ``maxdeg2`` of a :func:`hilbert_series` call, or for
:func:`contains` the largest number with the query degree's bit length)
with ``w = top.bit_length() + 1``.
Every atom has doubled degree at least 1, so no digit of a monomial or
product of degree at most ``top`` exceeds ``top``: bit ``w - 1`` of every
digit is a free guard bit, digits never carry, and a degree above ``top``
is refused.  So a product is the sum of the packed forms (a shared odd
atom gives a digit 2, which no column has, so that product falls off the
columns), and its Koszul sign is one masked bit count
(:meth:`_TPowers.flips`).  Only ``w`` depends on ``top``, never on the
atom count: the table still grows lazily.  Each ``T^j(g)`` is computed
once per context and stored packed
as a primitive integer polynomial: ``T^0`` is the generator
with its denominators cleared, and each higher power applies the scaled
derivation ``2T`` on the packed form (one digit moves to the next shift
with an integer factor), so :meth:`RingSpec.derive` and ``Fraction`` stay
off the slice path.

Most relations are monomials, so many powers have a single term, and every
monomial that such a power divides lies in the ideal.  So does every
monomial ``c`` that a slice's echelon pivots on alone (a pivot row
``{c: 1}``): :func:`_learn` *learns* these as cuts, after the echelon of
their degree, and no slice above spends columns, factors or rows on
their multiples again.  The columns of a slice are therefore only
the *standard* monomials, those that no cut divides.  Their table for
each degree is built from the tables below it (:meth:`_TPowers._table`):
a standard monomial less its smallest atom is a standard monomial of
lower degree, so only the cuts whose smallest atom is that atom can
divide it, and their multiples in the block are made from the lower
tables and removed in one set difference.  The rows are the products of
the powers with several terms by standard factors, restricted to the
standard columns.  A monomial left out is in the ideal, and a product
with a factor left out lands on monomials left out only, so the rank is
smaller by exactly the number of monomials left out and ``#columns -
rank`` is unchanged.  Each row is built in one loop over its power's
terms and filed by its length, and the rows go in shortest first, in
build order within a length (:func:`ideal_rows`).  Rows that repeat are
not filtered: the echelon reduces a repeat to zero, which costs less than
hashing every row to find the few repeats.  A slice's columns are its
table's positions, so the single-column pivots are cut by position
(:meth:`_TPowers.cut`).

The public functions still take and return ``(base, shift)`` atom tuples
and ``Fraction`` coefficients.  One slice context, :class:`_TPowers`,
holds all of the above for a ring: the atom table and its packing, the
powers, the standard tables (a degree whose table would hold more than the
monomial budget is refused as it is built), and one index of the cuts by
smallest atom, filed as they are found: a single-term power when it is
made, a learned monomial when its position is given to
:meth:`_TPowers.cut`.  Every degree is learned, by one step
(:func:`_learn`, the one rank path of :func:`hilbert_series` and
:func:`contains`), before the table above it is built, so a standard
table depends only on the ring and its degree, whichever entry point
built it, and one ``limit`` bounds one set of tables.
:func:`hilbert_series` builds one context per call; :func:`contains`
keeps one per ring (weakly, so a dropped ring frees it)
for the ring's next query under the same budget, up to its packed top.
It also keeps the echelon of each degree a query has asked, for as long
as the ring lives, so a later query of the degree only reduces.
:func:`ideal_basis` and :func:`ideal_rows` are internal, but keep their
names and take the degree second, because ``perfbench`` traces them by
name and reads it there.
"""

import math
import weakref
from bisect import bisect_left, bisect_right

from .superring import RingSpec

DEFAULT_MONOMIAL_LIMIT = 200_000


class ResourceLimitError(RuntimeError):
    """Raised when a degree table or a fermionic level exceeds its budget."""


# RingSpec -> the slice context that contains keeps for its next query
_CONTEXTS = weakref.WeakKeyDictionary()


def enumerate_monomials(spec, degree2, limit=DEFAULT_MONOMIAL_LIMIT):
    """All jet monomials of the given doubled degree, in a fixed order.

    Atoms are taken ascending in the canonical atom order ``(degree2, base,
    shift)``; odd atoms appear at most once.  The result is deterministic and
    each monomial tuple is already canonical.  These are the standard
    monomials of the free ring on ``spec``'s variables, and the columns of
    a slice built by :func:`ideal_rows` are the standard monomials of this
    list, in its order.  Every table up to ``degree2`` is built, and the
    first with more than ``limit`` monomials is refused.
    """
    if degree2 < 0:
        return []
    tpowers = _TPowers(RingSpec(spec.variables), degree2, limit)
    return [tpowers.decode(m) for m in tpowers.standard(degree2)]


class Echelon:
    """Sparse integer row echelon with deterministic pivoting, the one
    integer elimination here.

    Rows are dicts ``{column: int}`` whose entries are all nonzero (a zero
    entry would be taken for a column of the row); ``columns`` maps each
    packed standard monomial of the slice to its column, if the caller
    needs one.  ``extend`` takes over fresh rows and reduces each where it
    stands against the current pivots, smallest column first, with no gcd
    against a pivot entry of 1.  A nonzero remainder becomes a pivot, its
    content taken out, pivot entry positive, so a row scaled by a nonzero
    integer gives the same pivots.  A remainder whose leading entry is 1
    or -1 has content 1, so it is installed as it is or negated, and a
    single entry is divided by itself, with no gcd.  ``insert``
    and ``reduce`` work on a copy; ``reduce`` installs nothing.
    """

    def __init__(self, columns=None):
        self.columns = columns
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def _eliminate(self, row):
        """Reduce ``row`` in place; its smallest column left, or None."""
        pivots = self.pivots
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                return c
            a = piv[c]
            b = row[c]
            if a != 1:
                g = math.gcd(a, b)
                b //= g
                if g != a:
                    a //= g
                    for k in row:
                        row[k] *= a
            for k, v in piv.items():
                nv = row.get(k, 0) - b * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
        return None

    def extend(self, rows):
        """Insert rows that are not read again: they may become pivots."""
        pivots, eliminate, gcd = self.pivots, self._eliminate, math.gcd
        for row in rows:
            c = eliminate(row)
            if c is None:
                continue
            g = row[c]  # the signed content when it is 1 or -1, or alone
            if g != 1 and g != -1 and len(row) > 1:
                g = gcd(*row.values()) if g > 0 else -gcd(*row.values())
            if g != 1:
                for k in row:
                    row[k] //= g
            pivots[c] = row

    def insert(self, row):
        """Insert a copy of a row; True when it increased the rank."""
        rank = len(self.pivots)
        self.extend([dict(row)])
        return len(self.pivots) > rank

    def reduce(self, row):
        """The remainder of a copy of a row, which is not installed."""
        row = dict(row)
        self._eliminate(row)
        return row


def _int_row(columns, poly):
    """Clear denominators of a polynomial supported on ``columns``."""
    denom = math.lcm(*(c.denominator for c in poly.values()))
    row = {columns[mono]: c.numerator * (denom // c.denominator)
           for mono, c in poly.items()}
    g = math.gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g
    return row


class _TPowers:
    """A slice context: the atoms, packing, powers ``T^j(g)``, standard
    tables, monomial budget and cuts of a ring.

    ``atom[i]`` is the ``(base, shift)`` atom with id ``i``, numbered in
    canonical atom order, ``atom_degree2[i]`` its doubled degree,
    ``odd[i]`` its parity, ``next[i]`` the id of the atom one shift up
    (``None`` past the table), and ``ids`` maps an atom to its id.  The
    table holds every atom of doubled degree at most ``grown``, and grows
    up to ``top``.  A generator of degree above ``top`` reaches no slice,
    so it is left out, and ``top`` stays as asked.

    A packed monomial is its atom digits alone: ``unit[i] = 1 << (width *
    i)`` is one copy of atom ``i``, so a product is one addition, and
    ``odd_bits`` is the sum of the odd ``unit``.  The width depends on
    ``top``, never on the atom count, so the table can grow without
    repacking.

    ``get(i, j)`` is ``T^j`` of generator ``i`` as terms ``(monomial, int,
    flips)``: the primitive integer polynomial that is a positive multiple
    of ``spec.derive`` applied ``j`` times.  Only ``T^0`` is read from the
    ``Fraction`` generator; each higher power is ``2T`` of the one below
    (:meth:`_derive`).

    A cut is a monomial known to lie in the ideal: a power with a single
    term, filed when the power is made, or a monomial whose position in
    its table is given to :meth:`cut`.  ``_cuts`` is the one index of
    them: the pairs (packed cut, its doubled degree) under the id of the
    cut's smallest atom, and the unit under ``-1``.  ``standard(d)``
    lists the monomials of degree ``d`` that no cut divides, at most
    ``limit`` of them (:meth:`_table`).

    ``echelons`` maps a degree to the :class:`Echelon` of its slice, for
    the degrees that :func:`contains` has learned; :func:`hilbert_series`
    keeps none.
    """

    def __init__(self, spec, top, limit):
        self.limit = limit
        # the variables, not spec: a context that contains keeps must not
        # keep its ring alive
        self.variables = spec.variables
        self.top = top = max(top, 0)
        # odd squares normalise to zero
        gens = [g for g in spec.relations + spec.extras
                if g and spec.degree2(g) <= top]
        self.base_degree2 = [spec.degree2(g) for g in gens]
        self.width = top.bit_length() + 1
        self.atom, self.ids, self.atom_degree2, self.odd = [], {}, [], []
        self.next, self.unit = [], []
        self.odd_bits = 0
        self.grown = -1
        self.grow(max(self.base_degree2, default=0))
        self._tables = []  # by degree: (monomials, prefix length by atom)
        self._cuts = {}
        self.echelons = {}
        self._terms = [[] for _ in gens]
        for i, g in enumerate(gens):
            row = _int_row({m: self.encode(m) for m in g}, g)
            self._add_power(i, [(t, c, self.flips(t)) for t, c in row.items()])

    def grow(self, degree2):
        """Number every atom of doubled degree at most ``degree2``.

        The order is degree-first, and bases ascend within a degree, so
        each new degree only appends its atoms: the ids already given stay.
        """
        if degree2 <= self.grown:
            return
        if degree2 > self.top:
            raise ValueError("degree2=%d is above the packed top %d"
                             % (degree2, self.top))
        for d in range(self.grown + 1, degree2 + 1):
            for base, v in enumerate(self.variables):
                if v.weight2 > d or (d - v.weight2) % 2:
                    continue
                i, shift = len(self.atom), (d - v.weight2) // 2
                self.atom.append((base, shift))
                self.ids[base, shift] = i
                self.atom_degree2.append(d)
                self.odd.append(v.odd)
                self.next.append(None)
                if shift:
                    self.next[self.ids[base, shift - 1]] = i
                unit = 1 << (self.width * i)
                self.unit.append(unit)
                if v.odd:
                    self.odd_bits += unit
        self.grown = degree2

    def encode(self, mono):
        """The packed form of a canonical atom-tuple monomial in the table."""
        return sum(map(self.unit.__getitem__,
                       map(self.ids.__getitem__, mono)))

    def lowest(self, p):
        """The smallest atom id in a packed monomial, or -1 for the unit."""
        return ((p & -p).bit_length() - 1) // self.width

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
        """The XOR of ``-1 << (width * b + 1)`` over the odd
        atoms ``b`` of ``p``: ``(m & odd_bits & flips(p)).bit_count()`` has
        the parity of the odd atoms ``a > b`` of ``m`` that ``b`` moves past
        in ``m * p``.
        """
        if not p & self.odd_bits:
            return 0
        out = 0
        for b, _ in self.digits(p & self.odd_bits):
            out ^= -1 << (self.width * b + 1)
        return out

    def get(self, i, j):
        powers = self._terms[i]
        while len(powers) <= j:
            self.grow(self.base_degree2[i] + 2 * len(powers))
            self._add_power(i, self._derive(powers[-1]))
        return powers[j]

    def _add_power(self, i, terms):
        """Append the next power of generator ``i``; one with a single
        term is a cut."""
        powers = self._terms[i]
        if len(terms) == 1:
            self._file(terms[0][0], self.base_degree2[i] + 2 * len(powers))
        powers.append(terms)

    def _file(self, t, degree2):
        """Put the cut ``t`` of the degree into the index."""
        self._cuts.setdefault(self.lowest(t), []).append((t, degree2))

    def standard(self, degree2):
        """The packed standard monomials of the degree, in the order of
        :meth:`_table`, which builds each table from those below.

        The atom table is grown to the degree first, and then every power
        of degree at most ``degree2`` is made before its table, so no cut
        that could divide one of them comes later.  Each table is built
        within the budget, those below ``degree2`` first.
        """
        tables = self._tables
        if degree2 >= len(tables):
            self.grow(degree2)
            for i, d0 in enumerate(self.base_degree2):
                if d0 <= degree2:
                    self.get(i, (degree2 - d0) // 2)
            while len(tables) <= degree2:
                tables.append(self._table(len(tables)))
        return tables[degree2][0]

    def _table(self, d):
        """The pair (packed monomials of degree ``d`` that no cut divides,
        prefix length by atom), in a fixed order.

        The order is ascending in the exponent vector over atom ids (a
        monomial without an atom comes before those with it), so the
        monomials whose atoms are all ``i`` or above form a prefix.  Odd
        atoms appear at most once.  A monomial whose smallest atom is ``i``
        is ``x + unit[i]`` for an ``x`` in the prefix of atoms ``i`` and
        above (above ``i`` when ``i`` is odd) of the table
        ``atom_degree2[i]`` degrees lower, so only the cuts filed under
        ``i`` can divide it.  Their multiples are made, not tested for:
        each is ``t + y`` with ``y`` from the same prefix of the table
        ``deg(t)`` degrees lower, and the block drops them in one set
        difference.  That finds every one, because when ``t`` divides
        ``x + unit[i]``, ``y`` divides ``x``, so ``y`` is standard and in
        that prefix.  Every cut of degree at most ``d`` must be filed when
        the table of ``d`` is built.  An atom whose lower prefix is empty
        starts no monomial, so its block is skipped and only its prefix
        length is set.  The budget is kept here, the one place: once the
        table, unit included, holds more than ``limit`` monomials, no more
        blocks are made and the degree is refused.
        """
        deg, odd, unit = self.atom_degree2, self.odd, self.unit
        fits = bisect_right(deg, d)
        out = [] if d or -1 in self._cuts else [0]  # -1: the unit is cut
        starts = [len(out)] * (fits + 1)
        for i in range(fits - 1, -1, -1):
            if len(out) > self.limit:
                break
            start = i + odd[i]
            lower = self._prefix(d - deg[i], start)
            if lower:
                u = unit[i]
                new = [x + u for x in lower]
                multiples = {t + y for t, e in self._cuts.get(i, ()) if e <= d
                             for y in self._prefix(d - e, start)}
                if multiples:
                    new = [m for m in new if m not in multiples]
                out += new
            starts[i] = len(out)
        if len(out) > self.limit:
            raise ResourceLimitError("more than %d monomials at degree2=%d"
                                     % (self.limit, d))
        return out, starts

    def _prefix(self, degree2, i):
        """The standard monomials of the degree whose atoms are all ``i``
        or above."""
        monomials, starts = self._tables[degree2]
        return monomials[:starts[min(i, len(starts) - 1)]]

    def cut(self, degree2, positions):
        """Learn that the monomials at the ascending ``positions`` of the
        table of the degree lie in the ideal: drop them from the table,
        and file them, so that every table built after it leaves out their
        multiples.

        A position is the monomial's column in the degree's whole slice,
        so :func:`_learn` passes its pivots' columns as they are.  The
        table is rebuilt from the slices between the positions, and each
        prefix length drops by the number of positions below it.  A
        product with a multiple of a cut is a multiple too, so it leaves
        the factors as well as the columns, and ``#columns - rank`` stays
        the quotient dimension.  Only the newest table can be cut, because
        the tables above it would still hold the multiples.  A cut of no
        positions learns nothing and leaves the table as it is.
        """
        if degree2 != len(self._tables) - 1:
            raise ValueError("cannot cut degree2=%d: the newest table is %d"
                             % (degree2, len(self._tables) - 1))
        if not positions:
            return
        table, starts = self._tables[degree2]
        kept, last = [], 0
        for k in positions:
            kept += table[last:k]
            self._file(table[k], degree2)
            last = k + 1
        kept += table[last:]
        self._tables[degree2] = (kept, [s - bisect_left(positions, s)
                                        for s in starts])

    def _derive(self, terms):
        """``2T`` of a list of terms, divided by its positive content.

        ``2T`` moves one copy of atom ``a`` to the next shift ``b`` with
        the integer factor ``-(degree2 of a)`` times the multiplicity of
        ``a``.  An odd ``a`` takes the sign of the odd atoms strictly
        between ``a`` and ``b``, which it passes, and dies when ``b`` is
        present.
        """
        nxt, deg, unit, odd = self.next, self.atom_degree2, self.unit, self.odd
        w, mask = self.width, (1 << self.width) - 1
        out = {}
        for t, c, _ in terms:
            t_odd = t & self.odd_bits
            p = t
            while p:  # the digits of t, as :meth:`digits`, no generator
                a = ((p & -p).bit_length() - 1) // w
                k = p >> (w * a) & mask
                p -= k << (w * a)
                b = nxt[a]
                f = -deg[a] * k * c
                if odd[a]:
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
        return [(t, c // g, self.flips(t)) for t, c in out.items()]


def ideal_rows(tpowers, degree2):
    """Integer rows spanning the degree-``degree2`` slice of the ideal.

    Returns ``(columns, rows)`` where ``columns`` maps each standard
    monomial of the degree (packed, see :class:`_TPowers`) to its index and
    ``rows`` is a list of sparse integer rows over them.  Every monomial
    off the columns is in the ideal, and the rows span the products
    ``m * T^j(g)`` modulo those monomials.

    Only the powers with several terms give rows, and only with standard
    factors ``m``: the other products lie in the span of the left-out
    monomials.  The row of ``m * T^j(g)`` is one loop over the power's
    terms ``(t, c, flips)``: each ``m + t`` is looked up in the columns
    and, where it lands (a shared odd atom lands on none), gets ``c`` with
    the sign of ``(m & odd_bits & flips).bit_count()``; the content is
    left for :meth:`Echelon.extend` to take out.  Short structured rows go
    first, as they pin pivots cheaply and keep fill low: each row goes
    into the bucket of its length as it is built (an empty one into bucket
    0, which is dropped), and the buckets are joined by increasing length.
    Within a bucket the rows keep their build order (generator, power,
    factor table): a sort by smallest column saved only about 2 % of the
    elimination steps, less than it cost, while the buckets pay (all rows
    in build order, ``n2_c1:abc`` at 32 takes four times as long).  A
    repeated row is kept, and :meth:`Echelon.extend` reduces it to zero.
    A slice with no columns (every odd degree of a ring of integer
    weights) has no rows either, since every product lands off the
    columns, so it is returned at once as ``({}, [])``.
    """
    table = tpowers.standard(degree2)
    if not table:
        return {}, []
    odd_bits = tpowers.odd_bits
    columns = dict(zip(table, range(len(table))))
    column = columns.get
    buckets = [[]]  # by row length
    for i, d0 in enumerate(tpowers.base_degree2):
        for j in range((degree2 - d0) // 2 + 1):
            terms = tpowers.get(i, j)
            if len(terms) < 2:
                continue
            buckets += [[] for _ in range(len(terms) + 1 - len(buckets))]
            for m in tpowers.standard(degree2 - d0 - 2 * j):
                m_odd = m & odd_bits
                row = {}
                for t, c, flip in terms:
                    k = column(m + t)
                    if k is not None:
                        row[k] = (-c if m_odd and (m_odd & flip).bit_count() & 1
                                  else c)
                buckets[len(row)].append(row)
    rows = []
    for bucket in buckets[1:]:
        rows += bucket
    return columns, rows


def ideal_basis(tpowers, degree2):
    """Echelon basis of the degree slice of the differential ideal.

    Returns ``(echelon, n_columns)``; the quotient dimension of the slice
    is ``n_columns - echelon.rank``.
    """
    columns, rows = ideal_rows(tpowers, degree2)
    ech = Echelon(columns)
    ech.extend(rows)
    return ech, len(columns)


def _learn(tpowers, degree2):
    """The echelon of the whole slice of a degree whose table is the newest
    or not yet built; the monomials that it pivots on alone are then cut
    by position (:meth:`_TPowers.cut`), and leave every slice above as
    columns and as factors."""
    ech, _ = ideal_basis(tpowers, degree2)
    tpowers.cut(degree2, sorted(c for c, row in ech.pivots.items()
                                if len(row) == 1))
    return ech


def hilbert_series(spec, maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """Graded dimensions of the jet quotient for doubled degrees 0..maxdeg2."""
    tpowers = _TPowers(spec, maxdeg2, limit)
    return [len(ech.columns) - ech.rank
            for ech in (_learn(tpowers, d) for d in range(maxdeg2 + 1))]


def _refuse(spec, poly):
    """ValueError for the nonzero terms of a query, if any: first an atom
    that is not a pair (variable index, shift >= 0), both ``int``, then
    inhomogeneity."""
    nonzero = {m: c for m, c in poly.items() if c}
    for atom in (a for m in nonzero for a in m):
        if not (type(atom) is tuple and len(atom) == 2
                and type(atom[0]) is int and type(atom[1]) is int
                and 0 <= atom[0] < len(spec.variables) and atom[1] >= 0):
            raise ValueError("%r is not an atom of the ring" % (atom,))
    spec.degree2(nonzero)


def contains(spec, poly, limit=DEFAULT_MONOMIAL_LIMIT):
    """Is the homogeneous polynomial in the differential ideal's slice?

    Every degree through the query's is learned first, as in
    :func:`hilbert_series`, so the query is refused under ``limit``
    exactly where ``hilbert_series(spec, degree2, limit)`` is, and a first
    query on a ring costs about a ``hilbert_series`` to its degree.  The
    query is a member exactly when it reduces to zero against the echelon
    of its degree's slice, which is kept in the context, so a later query
    of the degree only reduces.  The echelon of every degree learned is
    kept, so a degree learned for a higher query builds no rows when it is
    first asked.

    The query is read in one pass before any slice is built.  Zero terms
    are skipped, so they change no answer and no degree; the first other
    term gives the degree.  Each term's atom ids (an atom above the degree
    has none yet) give its degree and packed monomial.  A key with an atom
    not of the ring (not a pair, a base that is not an ``int`` index of
    its variables, or a shift that is not an ``int`` of at least 0),
    named, or a query that is not homogeneous is refused there with
    ``ValueError``, and a coefficient that is not ``int`` or ``Fraction``
    with ``TypeError``; the context is kept.  The query is one row on its
    echelon's columns, scaled to integers by the common denominator and
    reduced where it stands; a monomial off those columns is in the ideal
    already.  A key
    out of the canonical atom order of :meth:`RingSpec.normalize`, which
    would share a column with its reordering, is refused with
    ``ValueError`` after the degrees through the query's are learned, and
    the ring's context is kept.

    The slice context of a ring, echelons included, is kept for the next
    query of the same ring and ``limit`` up to its packed top, for as long
    as the ring lives, so a ring is taken as fixed once it has been
    queried: changing its variables, relations or extras in place
    afterwards gives wrong answers.
    """
    try:
        degree2 = next((spec.mono_degree2(m) for m, c in poly.items() if c),
                       None)
    except (IndexError, TypeError, ValueError):  # an atom not of the ring
        _refuse(spec, poly)
        raise
    if degree2 is None:
        return True
    if type(degree2) is not int:  # a shift that is not an int
        _refuse(spec, poly)
    # taken out while in use, so that no other call shares it, and a call
    # cut short (an error, an interrupt) leaves none half grown behind
    kept = tpowers = _CONTEXTS.pop(spec, None)
    if tpowers is None or tpowers.limit != limit or degree2 > tpowers.top:
        # the same digit width as degree2: a ring asked at 13 to 23 is
        # built at most twice, with tops 15 and 31
        tpowers = _TPowers(spec, (1 << degree2.bit_length()) - 1, limit)
    tpowers.grow(degree2)
    ids, unit, deg = tpowers.ids, tpowers.unit, tpowers.atom_degree2
    terms, denom, unordered = {}, 1, None
    try:
        for mono, c in poly.items():
            if not c:
                continue
            atoms = list(map(ids.__getitem__, mono))
            for base, shift in mono:  # (0, 1.0) would find the id of (0, 1)
                if type(base) is not int or type(shift) is not int:
                    raise KeyError(mono)
            if sum(map(deg.__getitem__, atoms)) != degree2:
                raise KeyError(mono)
            if atoms != sorted(atoms):
                unordered = unordered or mono
            denom = math.lcm(denom, c.denominator)
            terms[sum(map(unit.__getitem__, atoms))] = c
    except (KeyError, AttributeError) as exc:
        if kept is not None:  # nothing of the query is in it yet
            _CONTEXTS[spec] = kept
        _refuse(spec, poly)
        if isinstance(exc, KeyError):
            raise
        raise TypeError("coefficients must be int or Fraction, not %s: %r"
                        % (type(c).__name__, c)) from None
    # every table of a kept context is learned, its echelon kept
    for d in range(len(tpowers._tables), degree2 + 1):
        tpowers.echelons[d] = _learn(tpowers, d)
    # put back only now: another call may then grow and cut its tables
    _CONTEXTS[spec] = tpowers
    if unordered is not None:  # nothing of the query is in the context
        raise ValueError("monomial %r is not in canonical atom order"
                         % (unordered,))
    ech = tpowers.echelons[degree2]
    columns = ech.columns
    row = {columns[p]: c.numerator * (denom // c.denominator)
           for p, c in terms.items() if p in columns}
    return ech._eliminate(row) is None
