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
:func:`hilbert_series` or :func:`contains` call with the public
:meth:`RingSpec.derive`, then stored over ids with its denominators cleared,
as a primitive integer polynomial, so every row is written directly in
integers.  The public functions still take and return ``(base, shift)``
atom tuples and ``Fraction`` coefficients.
"""

import math
from bisect import bisect_right

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

    def monomials(self, degree2, limit):
        """All id-encoded monomials of the doubled degree, in a fixed order.

        The order is ascending in the exponent vector over atom ids (a
        monomial without an atom comes before those with it).  Odd atoms
        appear at most once.
        """
        if degree2 < 0:
            return []
        self.grow(degree2)
        deg, odd = self.degree2, self.odd
        fits = [bisect_right(deg, r) for r in range(degree2 + 1)]
        out = []

        def rec(first, remaining, prefix):
            if remaining == 0:
                out.append(prefix)
                if len(out) > limit:
                    raise ResourceLimitError(
                        "more than %d monomials at degree2=%d" % (limit, degree2))
                return
            # extend prefix by atoms >= first that fit; each atom's exclusion
            # comes before its inclusion, hence the descending loop
            for i in range(fits[remaining] - 1, first - 1, -1):
                d = deg[i]
                mono, left = prefix, remaining
                while True:
                    mono += (i,)
                    left -= d
                    rec(i + 1, left, mono)
                    if odd[i] or left < d:
                        break

        rec(0, degree2, ())
        return out


def enumerate_monomials(spec, degree2, limit=DEFAULT_MONOMIAL_LIMIT):
    """All jet monomials of the given doubled degree, in a fixed order.

    Atoms are taken ascending in the canonical atom order ``(degree2, base,
    shift)``; odd atoms appear at most once.  The result is deterministic and
    each monomial tuple is already canonical.  Column ``i`` of a slice built
    by :func:`ideal_rows` is the ``i``-th monomial of this list.
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
    monomial of the slice to its column.  ``insert`` reduces a row against
    the current pivots (always eliminating the smallest column first) and,
    if a nonzero remainder survives, installs it as a new pivot after
    dividing by its content.  ``reduce`` performs the same elimination
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
    """The atom table and T^j(generator), shared across degrees.

    ``get(i, j)`` is ``T^j`` of generator ``i`` as a list of terms
    ``(monomial ids, int coefficient, odd ids)``: the primitive integer
    polynomial that is a positive multiple of ``spec.derive`` applied ``j``
    times.
    """

    def __init__(self, spec):
        self.spec = spec
        self.atoms = _Atoms(spec)
        gens = list(spec.relations) + list(spec.extras)
        self.gens = [g for g in gens if g]  # odd squares normalise to zero
        self.base_degree2 = [spec.degree2(g) for g in self.gens]
        self._last = list(self.gens)  # highest T-power so far, as Fractions
        self._terms = [[] for _ in self.gens]

    def get(self, i, j):
        powers = self._terms[i]
        while len(powers) <= j:
            if powers:
                self._last[i] = self.spec.derive(self._last[i])
            poly = self._last[i]
            atoms = self.atoms
            atoms.grow(self.base_degree2[i] + 2 * len(powers))
            row = _int_row({m: atoms.encode(m) for m in poly}, poly)
            powers.append([(t, c, atoms.odd_ids(t)) for t, c in row.items()])
        return powers[j]


def _product_row(columns, m, m_odd, terms):
    """The row of ``m * T^j(g)``, equal to ``_int_row`` of the product."""
    row = {}
    vanished = False
    for t, c, t_odd in terms:
        prod = _merge(m, m_odd, t, t_odd)
        if prod is None:
            vanished = True
        else:
            row[columns[prod[1]]] = c if prod[0] > 0 else -c
    # distinct terms give distinct products, so only a vanished term can
    # leave a common factor behind
    if vanished and row:
        g = math.gcd(*row.values())
        if g > 1:
            row = {k: v // g for k, v in row.items()}
    return row


def ideal_rows(spec, degree2, tpowers=None, limit=DEFAULT_MONOMIAL_LIMIT):
    """Integer rows spanning the degree-``degree2`` slice of the ideal.

    Returns ``(columns, rows)`` where ``columns`` maps each id-encoded
    monomial of the degree to its index and ``rows`` is a list of sparse
    integer rows for the products ``m * T^j(g)``.
    """
    if tpowers is None:
        tpowers = _TPowers(spec)
    atoms = tpowers.atoms
    columns = {m: i for i, m in enumerate(atoms.monomials(degree2, limit))}
    factors = {}  # sub-degree -> [(monomial, odd ids)], enumerated once
    rows = []
    for i, d0 in enumerate(tpowers.base_degree2):
        for j in range((degree2 - d0) // 2 + 1):
            terms = tpowers.get(i, j)
            if not terms:
                continue
            sub = degree2 - d0 - 2 * j
            monos = factors.get(sub)
            if monos is None:
                monos = factors[sub] = [(m, atoms.odd_ids(m))
                                        for m in atoms.monomials(sub, limit)]
            for m, m_odd in monos:
                row = _product_row(columns, m, m_odd, terms)
                if row:
                    rows.append(row)
    # Short structured rows first: they pin pivots cheaply and keep fill low.
    rows.sort(key=lambda r: (len(r), min(r) if r else -1))
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
    return not ech.reduce(
        _int_row({m: ech.columns[encode(m)] for m in poly}, poly))


def conjecture_check(spec, character, maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """Compare jet graded dimensions against a character coefficient list.

    ``character`` is a list of ints indexed by doubled degree (at least
    ``maxdeg2 + 1`` entries).  Returns a list of per-degree dicts and the
    first doubled degree where the two sides differ (or None).
    """
    dims = hilbert_series(spec, maxdeg2, limit=limit)
    rows = []
    first_mismatch = None
    for d in range(maxdeg2 + 1):
        ok = dims[d] == character[d]
        if not ok and first_mismatch is None:
            first_mismatch = d
        rows.append({"degree2": d, "jet_dim": dims[d],
                     "character": character[d], "equal": ok})
    return rows, first_mismatch
