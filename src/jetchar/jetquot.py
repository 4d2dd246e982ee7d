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
grows a whole degree at a time, so an id never changes once given, and a
canonical monomial is a sorted tuple of ids.  The product of two monomials
is the sorted concatenation of their tuples, its Koszul sign is the parity
of the pairs of odd ids that the merge puts out of order, and a shared odd
id makes it vanish.  Each ``T^j(g)`` is computed once per
:func:`hilbert_series` or :func:`contains` call and stored over ids as a
primitive integer polynomial: ``T^0`` is the generator with its
denominators cleared, and each higher power applies the scaled derivation
``2T`` on ids (an atom id moves to the next shift with an integer factor),
so :meth:`RingSpec.derive` and ``Fraction`` stay off the slice path.

Most relations are monomials, so many powers have a single term, and every
monomial that such a power divides lies in the ideal.  The columns of a
slice are therefore only the *standard* monomials, those that no
single-term power divides: the enumerator cuts every other one, the rows
are the products of the powers with several terms by standard factors,
restricted to the standard columns, and the rank is smaller by exactly
the number of monomials left out, so ``#columns - rank`` is unchanged.
The public functions still take and return ``(base, shift)`` atom tuples
and ``Fraction`` coefficients.
"""

import math
from bisect import bisect_left, bisect_right

from .qseries import free_product

DEFAULT_MONOMIAL_LIMIT = 200_000


class ResourceLimitError(RuntimeError):
    """Raised when a graded piece exceeds the monomial budget."""


class _Atoms:
    """The jet atoms of a ring, numbered in canonical atom order.

    ``atom[i]`` is the ``(base, shift)`` atom with id ``i``, ``degree2[i]``
    its doubled degree and ``odd[i]`` its parity; ``ids`` maps an atom to
    its id.  The table holds every atom of doubled degree at most ``top``.
    """

    def __init__(self, spec):
        self.spec = spec
        self.top = -1
        self.grow(0)

    def grow(self, degree2):
        """Number every atom of doubled degree at most ``degree2``.

        The order is degree-first, so the atoms already numbered keep their
        ids: they are a prefix of the new table.
        """
        if degree2 <= self.top:
            return
        spec = self.spec
        atoms = [(base, shift) for base, v in enumerate(spec.variables)
                 for shift in range((degree2 - v.weight2) // 2 + 1)]
        self.atom = sorted(atoms, key=spec.atom_key)
        self.ids = {a: i for i, a in enumerate(self.atom)}
        self.degree2 = [spec.atom_degree2(a) for a in self.atom]
        self.odd = [spec.atom_odd(a) for a in self.atom]
        self.top = degree2

    def encode(self, mono):
        """The id tuple of a canonical atom-tuple monomial in the table."""
        return tuple(self.ids[a] for a in mono)

    def odd_ids(self, mono):
        """The odd ids of an id-encoded monomial, ascending."""
        return tuple(a for a in mono if self.odd[a])

    def monomials(self, degree2, limit, cuts=()):
        """The id-encoded monomials of the doubled degree, in a fixed order.

        The order is ascending in the exponent vector over atom ids (a
        monomial without an atom comes before those with it).  Odd atoms
        appear at most once.  A monomial that one of the id-encoded
        monomials ``cuts`` divides as a multiset is left out, with its
        whole subtree.  ``limit`` caps the count of all monomials of the
        degree, cut or not, read off the free jet character before anything
        is enumerated.
        """
        if degree2 < 0:
            return []
        self.grow(degree2)
        weights = [(v.weight2, v.parity) for v in self.spec.variables]
        if free_product(weights, degree2)[degree2] > limit:
            raise ResourceLimitError(
                "more than %d monomials at degree2=%d" % (limit, degree2))
        deg, odd = self.degree2, self.odd
        fits = [bisect_right(deg, r) for r in range(degree2 + 1)]
        by_top = [[] for _ in range(fits[degree2])]  # cuts by largest id
        for t in cuts:
            if sum(deg[a] for a in t) <= degree2:
                by_top[t[-1]].append(t)
        out = []

        def rec(first, remaining, prefix):
            if remaining == 0:
                out.append(prefix)
                return
            # extend prefix by atoms >= first that fit; each atom's exclusion
            # comes before its inclusion, hence the descending loop
            for i in range(fits[remaining] - 1, first - 1, -1):
                d = deg[i]
                cut = by_top[i]
                mono, left = prefix, remaining
                while True:
                    mono += (i,)
                    left -= d
                    # every atom below i is placed, so a cut ending in i
                    # divides mono now or no extension of it by atoms above i
                    if cut and any(_divides(t, mono) for t in cut):
                        break
                    rec(i + 1, left, mono)
                    if odd[i] or left < d:
                        break

        rec(0, degree2, ())
        return out


def _divides(t, m):
    """Is the sorted id tuple ``t`` a sub-multiset of the sorted ``m``?"""
    k = 0
    for a in t:
        k = bisect_left(m, a, k)
        if k == len(m) or m[k] != a:
            return False
        k += 1
    return True


def enumerate_monomials(spec, degree2, limit=DEFAULT_MONOMIAL_LIMIT):
    """All jet monomials of the given doubled degree, in a fixed order.

    Atoms are taken ascending in the canonical atom order ``(degree2, base,
    shift)``; odd atoms appear at most once.  The result is deterministic and
    each monomial tuple is already canonical.  The columns of a slice built
    by :func:`ideal_rows` are the standard monomials of this list, in its
    order.
    """
    atoms = _Atoms(spec)
    return [tuple(atoms.atom[a] for a in m)
            for m in atoms.monomials(degree2, limit)]


def _merge(m, m_odd, t, t_odd):
    """Product ``m * t`` of canonical id-encoded monomials.

    ``m_odd`` and ``t_odd`` are their odd ids.  Returns ``(sign, monomial)``,
    or None when an odd id is shared.  The sign counts the odd ids of ``m``
    that ``t``'s odd ids must move past.
    """
    flips = 0
    for b in t_odd:
        k = bisect_right(m_odd, b)
        if k and m_odd[k - 1] == b:
            return None
        flips += len(m_odd) - k
    return -1 if flips & 1 else 1, tuple(sorted(m + t))


class Echelon:
    """Sparse integer row echelon with deterministic pivoting.

    Rows are dicts ``{column: int}``; ``columns`` maps each id-encoded
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
    """The atom table, T^j(generator) and standard monomials of one call.

    ``get(i, j)`` is ``T^j`` of generator ``i`` as a list of terms
    ``(monomial ids, int coefficient, odd ids)``: the primitive integer
    polynomial that is a positive multiple of ``spec.derive`` applied ``j``
    times.  Only ``T^0`` is read from the ``Fraction`` generator; each
    higher power is the scaled derivation ``2T`` of the one below, applied
    on ids by :meth:`_derive`.  ``standard(d, limit)`` lists the
    monomials of degree ``d`` that no power with a single term divides.
    """

    def __init__(self, spec):
        self.atoms = atoms = _Atoms(spec)
        gens = list(spec.relations) + list(spec.extras)
        gens = [g for g in gens if g]  # odd squares normalise to zero
        self.base_degree2 = [spec.degree2(g) for g in gens]
        atoms.grow(max(self.base_degree2, default=0))
        self._tables = {}
        self._terms = []
        for g in gens:
            row = _int_row({m: atoms.encode(m) for m in g}, g)
            self._terms.append(
                [[(t, c, atoms.odd_ids(t)) for t, c in row.items()]])

    def get(self, i, j):
        powers = self._terms[i]
        while len(powers) <= j:
            self.atoms.grow(self.base_degree2[i] + 2 * len(powers))
            powers.append(self._derive(powers[-1]))
        return powers[j]

    def standard(self, degree2, limit):
        """The standard monomials of the degree as ``[(ids, odd ids)]``.

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
            atoms = self.atoms
            table = self._tables[degree2] = [
                (m, atoms.odd_ids(m))
                for m in atoms.monomials(degree2, limit, cuts)]
        return table

    def _derive(self, terms):
        """``2T`` of a list of terms, divided by its positive content.

        ``2T`` moves one copy of atom ``a`` to the next shift ``b`` with
        the integer factor ``-(degree2 of a)`` times the multiplicity of
        ``a``.  An odd ``a`` takes the sign of the odd ids strictly between
        ``a`` and ``b``, which it passes, and dies when ``b`` is present.
        """
        atoms = self.atoms
        atom, ids, deg, odd = atoms.atom, atoms.ids, atoms.degree2, atoms.odd
        out = {}
        for t, c, t_odd in terms:
            for k, a in enumerate(t):
                if k and t[k - 1] == a:
                    continue  # one term per distinct atom
                base, shift = atom[a]
                b = ids[(base, shift + 1)]
                f = -deg[a] * t.count(a) * c
                if odd[a]:
                    hi = bisect_left(t_odd, b)
                    if hi < len(t_odd) and t_odd[hi] == b:
                        continue
                    if (hi - bisect_right(t_odd, a)) & 1:
                        f = -f
                rest = t[:k] + t[k + 1:]
                p = bisect_right(rest, b)
                new = rest[:p] + (b,) + rest[p:]
                out[new] = out.get(new, 0) + f
        out = {t: c for t, c in out.items() if c}
        if not out:
            return []
        g = math.gcd(*out.values())
        return [(t, c // g, atoms.odd_ids(t)) for t, c in out.items()]


def _product_row(columns, m, m_odd, terms):
    """The row of ``m * T^j(g)`` on the standard ``columns``.

    It is ``_int_row`` of the product with the entries off the columns
    dropped, divided by its content.
    """
    row = {}
    partial = False
    for t, c, t_odd in terms:
        prod = _merge(m, m_odd, t, t_odd)
        k = None if prod is None else columns.get(prod[1])
        if k is None:
            partial = True
        else:
            row[k] = c if prod[0] > 0 else -c
    # distinct terms give distinct products, so only a vanished or dropped
    # term can leave a common factor behind
    if partial and row:
        g = math.gcd(*row.values())
        if g > 1:
            row = {k: v // g for k, v in row.items()}
    return row


def ideal_rows(spec, degree2, tpowers=None, limit=DEFAULT_MONOMIAL_LIMIT):
    """Integer rows spanning the degree-``degree2`` slice of the ideal.

    Returns ``(columns, rows)`` where ``columns`` maps each standard
    monomial of the degree (id-encoded, see :class:`_TPowers`) to its
    index and ``rows`` is a list of sparse integer rows over them.  Every
    monomial off the columns is in the ideal, and the rows span the
    products ``m * T^j(g)`` modulo those monomials.

    Only the powers with several terms give rows, and only with standard
    factors ``m``: the other products lie in the span of the left-out
    monomials.  A row left empty, or equal to one already taken, is
    skipped.
    """
    if tpowers is None:
        tpowers = _TPowers(spec)
    table = tpowers.standard(degree2, limit)
    columns = {m: k for k, (m, _) in enumerate(table)}
    rows = []
    seen = {frozenset()}  # an empty row counts as taken
    for i, d0 in enumerate(tpowers.base_degree2):
        for j in range((degree2 - d0) // 2 + 1):
            terms = tpowers.get(i, j)
            if len(terms) < 2:
                continue
            for m, m_odd in tpowers.standard(degree2 - d0 - 2 * j, limit):
                row = _product_row(columns, m, m_odd, terms)
                key = frozenset(row.items())
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
    # Short structured rows first: they pin pivots cheaply and keep fill low.
    rows.sort(key=lambda r: (len(r), min(r)))
    return columns, rows


def ideal_basis(spec, degree2, tpowers=None, limit=DEFAULT_MONOMIAL_LIMIT):
    """Echelon basis of the degree slice of the differential ideal.

    Returns ``(echelon, n_columns)``; the quotient dimension of the slice is
    ``n_columns - echelon.rank``.
    """
    columns, rows = ideal_rows(spec, degree2, tpowers=tpowers, limit=limit)
    ech = Echelon(columns)
    for row in rows:
        ech.insert(row)
    return ech, len(columns)


def graded_dimension(spec, degree2, tpowers=None, limit=DEFAULT_MONOMIAL_LIMIT):
    ech, ncols = ideal_basis(spec, degree2, tpowers=tpowers, limit=limit)
    return ncols - ech.rank


def hilbert_series(spec, maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """Graded dimensions of the jet quotient for doubled degrees 0..maxdeg2."""
    tpowers = _TPowers(spec)
    return [graded_dimension(spec, d, tpowers=tpowers, limit=limit)
            for d in range(maxdeg2 + 1)]


def contains(spec, poly, limit=DEFAULT_MONOMIAL_LIMIT):
    """Is the homogeneous polynomial in the differential ideal's slice?"""
    if not poly:
        return True
    degree2 = spec.degree2(poly)
    tpowers = _TPowers(spec)
    ech, _ = ideal_basis(spec, degree2, tpowers=tpowers, limit=limit)
    encode = tpowers.atoms.encode
    index = {m: ech.columns.get(encode(m)) for m in poly}
    # a monomial off the columns is in the ideal already
    live = {m: c for m, c in poly.items() if index[m] is not None}
    return not ech.reduce(_int_row(index, live))

