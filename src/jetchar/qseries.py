"""Truncated power series in q^(1/2) with exact integer coefficients.

Exponents are stored doubled so that everything is integer-indexed: the
coefficient list ``c`` of a :class:`QSeries` satisfies ``series =
sum(c[d] * q^(d/2))`` for ``0 <= d <= maxdeg2``.  An ordinary q-power
``q^n`` therefore sits at index ``2n``; ``(q)_n`` means the usual
``prod_{i=1..n} (1 - q^i)`` which lives on even indices.

The module provides the generic arithmetic plus constructors for the
character formulas used by the model registry: theta quotients, fermionic
(nested Pochhammer) sums over quadratic forms, closed bosonic forms for the
path/cycle graph series, products for N=1 minimal models, and brute-force
partition statistics used as oracles in tests.
"""

import math
from fractions import Fraction
from operator import add

from .jetquot import DEFAULT_MONOMIAL_LIMIT, ResourceLimitError
from .superring import _halves


class QSeries:
    __slots__ = ("maxdeg2", "c")

    def __init__(self, maxdeg2, coeffs=None):
        if maxdeg2 < 0:
            raise ValueError("maxdeg2 must be >= 0")
        self.maxdeg2 = maxdeg2
        if coeffs is None:
            self.c = [0] * (maxdeg2 + 1)
        else:
            if len(coeffs) != maxdeg2 + 1:
                raise ValueError("coefficient list has wrong length")
            self.c = list(coeffs)

    @classmethod
    def one(cls, maxdeg2):
        s = cls(maxdeg2)
        s.c[0] = 1
        return s

    @classmethod
    def monomial(cls, deg2, maxdeg2, coeff=1):
        if deg2 < 0:
            raise ValueError("deg2 must be >= 0, got %d" % deg2)
        s = cls(maxdeg2)
        if deg2 <= maxdeg2:
            s.c[deg2] = coeff
        return s

    def copy(self):
        return QSeries(self.maxdeg2, self.c)

    def __getitem__(self, deg2):
        if not 0 <= deg2 <= self.maxdeg2:
            raise IndexError("degree2 %d outside truncation 0..%d" % (deg2, self.maxdeg2))
        return self.c[deg2]

    def first_difference(self, other):
        """Smallest doubled degree where the two series differ, or None."""
        n = min(self.maxdeg2, other.maxdeg2)
        for d in range(n + 1):
            if self.c[d] != other.c[d]:
                return d
        return None

    def truncate(self, maxdeg2):
        if maxdeg2 > self.maxdeg2:
            raise ValueError("cannot extend a truncated series")
        return QSeries(maxdeg2, self.c[:maxdeg2 + 1])

    def __add__(self, other):
        n = min(self.maxdeg2, other.maxdeg2)
        return QSeries(n, [self.c[d] + other.c[d] for d in range(n + 1)])

    def __sub__(self, other):
        n = min(self.maxdeg2, other.maxdeg2)
        return QSeries(n, [self.c[d] - other.c[d] for d in range(n + 1)])

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries(self.maxdeg2, [v * other for v in self.c])
        n = min(self.maxdeg2, other.maxdeg2)
        out = [0] * (n + 1)
        for i, a in enumerate(self.c[:n + 1]):
            if a:
                for j in range(n + 1 - i):
                    b = other.c[j]
                    if b:
                        out[i + j] += a * b
        return QSeries(n, out)

    __rmul__ = __mul__

    def shift_up(self, deg2):
        """Multiply by q^(deg2/2)."""
        if deg2 < 0:
            raise ValueError("deg2 must be >= 0, got %d" % deg2)
        out = [0] * (self.maxdeg2 + 1)
        for d in range(self.maxdeg2 + 1 - deg2):
            out[d + deg2] = self.c[d]
        return QSeries(self.maxdeg2, out)

    def shift_down(self, deg2):
        """Divide by q^(deg2/2); the low coefficients must vanish."""
        if deg2 < 0:
            raise ValueError("deg2 must be >= 0, got %d" % deg2)
        if any(self.c[:deg2]):
            raise ValueError("series is not divisible by q^%s" % _halves(deg2))
        return QSeries(self.maxdeg2 - deg2, self.c[deg2:])

    # in-place multipliers for product building ------------------------

    def imul_one_minus(self, deg2):
        """Multiply in place by (1 - q^(deg2/2))."""
        if deg2 < 1:
            raise ValueError("deg2 must be >= 1, got %d" % deg2)
        for d in range(self.maxdeg2, deg2 - 1, -1):
            self.c[d] -= self.c[d - deg2]
        return self

    def imul_one_plus(self, deg2):
        """Multiply in place by (1 + q^(deg2/2))."""
        if deg2 < 1:
            raise ValueError("deg2 must be >= 1, got %d" % deg2)
        for d in range(self.maxdeg2, deg2 - 1, -1):
            self.c[d] += self.c[d - deg2]
        return self

    def idiv_one_minus(self, deg2):
        """Multiply in place by 1/(1 - q^(deg2/2)) = 1 + q^(d/2) + ..."""
        if deg2 < 1:
            raise ValueError("deg2 must be >= 1, got %d" % deg2)
        for d in range(deg2, self.maxdeg2 + 1):
            self.c[d] += self.c[d - deg2]
        return self


# ---------------------------------------------------------------------
# Pochhammer symbols
# ---------------------------------------------------------------------

def pochhammer(n, maxdeg2):
    """(q)_n = prod_{i=1..n} (1 - q^i); n >= 0 or the string "inf"."""
    return _pochhammer(n, maxdeg2, QSeries.imul_one_minus)


def inv_pochhammer(n, maxdeg2):
    """1/(q)_n as a truncated series (generating function of partitions
    into parts <= n, all parts when n is "inf"); n >= 0."""
    return _pochhammer(n, maxdeg2, QSeries.idiv_one_minus)


def _pochhammer(n, maxdeg2, step):
    """Apply ``step`` with each factor 1 - q^i, i = 1..n; "inf" and any
    larger n stop at i = maxdeg2 // 2, since higher factors are 1 modulo
    the truncation."""
    if n != "inf" and n < 0:
        raise ValueError("n must be >= 0")
    s = QSeries.one(maxdeg2)
    top = maxdeg2 // 2 if n == "inf" else min(n, maxdeg2 // 2)
    for i in range(1, top + 1):
        step(s, 2 * i)
    return s


# ---------------------------------------------------------------------
# Fermionic sums over quadratic forms
# ---------------------------------------------------------------------

def fermionic_sum(quad2, lin2, maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """Sum over n in Z_{>=0}^N of q^{E(n)/2} / prod_i (q)_{n_i}, N = len(lin2).

    ``quad2[(i, j)]`` (i <= j) and ``lin2[i] >= 0`` give the DOUBLED
    exponent ``E(n) = sum quad2[i,j] n_i n_j + sum lin2[i] n_i``; every
    index of ``quad2`` lies in ``range(N)``.

    The sum fixes n_0, n_1, ... one level at a time and carries a lower
    bound ``low`` on E(n) over every completion of the prefix:
    - when every coefficient is nonnegative, the exponent of the prefix
      itself, since the variables still free can only add to it;
    - otherwise the (half-)coefficient matrix M must be positive definite.
      With M = L^T D L exactly (L unit lower triangular), E(n) is at
      least ``sum_t d_t (n_t + sum_{j<t} L_tj n_j)^2`` over the t fixed
      so far, plus their linear terms: the completed squares of the free
      variables are nonnegative.
    At the last variable ``low`` is E(n) itself.  A branch stops once
    ``low`` exceeds maxdeg2 and can only grow with n_t.  The bounds are
    kept multiplied by a common denominator, so no branch sees a fraction.

    Levels: before n_t is fixed, a prefix n_0..n_{t-1} enters the rest of
    the sum only through ``low`` and the forms ``cs = (c_t, ...)`` read by
    :func:`_bound_steps`: fixing n_t adds ``h*c_t^2 + (a*n_t + g*c_t +
    beta)*n_t`` to ``low`` and a multiple of n_t to each later ``c_u``.
    So prefixes with equal forms have the same completions, their exponents
    shifted by the difference of their bounds.  Level t keeps one state per
    ``(low mod 2*scale, cs)``, where that shift is a whole power of q: its
    least ``low`` and the sum of its prefixes' series, each moved up by its
    shift.  A level of more than ``limit`` states raises ResourceLimitError.

    Truncation invariant: a state's series is a plain list in whole powers
    of q from its least ``low`` (a bound on all its prefixes), cut below
    ``q^{(maxdeg2 - low)/2 + 1}``; stepping n_t divides it in place by
    ``(1 - q^{n_t})`` and the last level adds it at ``q^{E(n)/2}``.
    """
    lin2 = list(lin2)
    nvars = len(lin2)
    for i, j in quad2:
        if not (0 <= i < nvars and 0 <= j < nvars):
            raise ValueError("quad2 index %r lies outside range(%d)"
                             % ((i, j), nvars))
    if any(v < 0 for v in lin2):
        raise ValueError("a negative linear term %r would put a term below "
                         "q^0; lin2 must be >= 0" % min(lin2))
    if nvars == 0:
        return QSeries.one(maxdeg2)
    quad2 = {(min(i, j), max(i, j)): v for (i, j), v in quad2.items() if v}
    scale, steps = _bound_steps(nvars, quad2, lin2)
    top, width = scale * maxdeg2, 2 * scale
    out = [0] * (maxdeg2 + 1)
    level = {(0, (0,) * nvars): (0, [1] + [0] * (maxdeg2 // 2))}
    for t, (a, beta, g, h, _) in enumerate(steps):
        later = [s[4][t] for s in steps[t + 1:]]
        states = {}
        for (_, cs), (low, acc) in level.items():
            c, cs = cs[0], cs[1:]
            b = beta + g * c
            low += h * c * c
            n = 0
            while True:
                e = low + (a * n + b) * n
                if a * (2 * n + 1) + b >= 0:  # e no longer falls as n grows
                    if e > top:
                        break
                    del acc[(top - e) // width + 1:]
                if n:
                    for d in range(n, len(acc)):
                        acc[d] += acc[d - n]
                if e <= top:
                    if not later:
                        e //= scale
                        out[e::2] = map(add, out[e::2], acc)
                    else:
                        key = e % width, cs
                        base, prev = states.get(key, (e, None))
                        if prev is None and len(states) == limit:
                            raise ResourceLimitError(
                                "more than %d states at level %d of a "
                                "fermionic sum" % (limit, t + 1))
                        part, k = acc, (e - base) // width
                        if prev is None or e < base:  # e bounds the state
                            part, prev = prev, acc[:(top - e) // width + 1]
                            states[key], k = (e, prev), -k
                        if part is not None:
                            prev[k:] = map(add, prev[k:], part)
                n += 1
                cs = tuple(map(add, cs, later))
        level = states
    return QSeries(maxdeg2, out)


def _bound_steps(nvars, quad2, lin2):
    """The scaled lower bound of :func:`fermionic_sum`, one step per variable.

    Returns ``scale`` and, per variable t, ``(a, beta, g, h, coeffs)``:
    with ``c = sum(coeffs[j] * n_j)`` over j < t, fixing n_t adds
    ``h*c*c + (a*n_t + g*c + beta)*n_t`` to ``scale * low``.
    """
    if all(v >= 0 for v in quad2.values()):
        for t in range(nvars):
            if lin2[t] == 0 and quad2.get((t, t), 0) == 0:
                raise ValueError(
                    "variable %d has no positive exponent contribution; "
                    "the sum would not terminate" % t)
        return 1, [(quad2.get((t, t), 0), lin2[t], 1, 0,
                    [quad2.get((j, t), 0) for j in range(t)])
                   for t in range(nvars)]
    m = [[Fraction(quad2.get((min(i, j), max(i, j)), 0), 1 if i == j else 2)
          for j in range(nvars)] for i in range(nvars)]
    squares = []
    for t in reversed(range(nvars)):  # square t involves n_0..n_t only
        d = m[t][t]
        if d <= 0:
            raise ValueError("quadratic form with negative coefficients must "
                             "be positive definite for the enumeration to "
                             "terminate")
        row = [m[t][j] / d for j in range(t)]
        for j in range(t):
            for k in range(t):
                m[j][k] -= d * row[j] * row[k]
        den = math.lcm(*(v.denominator for v in row))
        squares.append((d / den ** 2, den, [int(v * den) for v in row]))
    squares.reverse()
    # term t is w_t * (den_t n_t + c)^2 + lin2[t] n_t, times scale
    scale = math.lcm(*(w.denominator for w, _, _ in squares))
    steps = []
    for t, (w, den, nums) in enumerate(squares):
        w = int(w * scale)
        steps.append((w * den * den, scale * lin2[t], 2 * w * den, w, nums))
    return scale, steps


# ---------------------------------------------------------------------
# Named character formulas
# ---------------------------------------------------------------------

def theta_over_eta(p, maxdeg2):
    """(sum_{n in Z} q^{p n^2 / 2}) / prod_{n>=1}(1 - q^n), truncated.

    This is the character shape of a rank-one lattice model with norm p;
    the numerator's doubled exponents are p*n^2.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    num = QSeries(maxdeg2)
    num.c[0] = 1
    n = 1
    while p * n * n <= maxdeg2:
        num.c[p * n * n] += 2
        n += 1
    return num * inv_pochhammer("inf", maxdeg2)


def single_lattice_sum(p, maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """sum_n q^{p n^2/2}/(q)_n for one extremal vector of norm p."""
    return fermionic_sum({(0, 0): p}, [0], maxdeg2, limit)


def ag_sum(k, maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """Nested sum  sum q^{N_1^2+..+N_{k-1}^2+N_1+..+N_{k-1}} / prod (q)_{n_i}
    with N_i = n_i + ... + n_{k-1}; the (2, 2k+1) vacuum character."""
    if k < 2:
        raise ValueError("k must be >= 2")
    nv = k - 1
    quad2 = {}
    lin2 = []
    for i in range(nv):
        quad2[(i, i)] = 2 * (i + 1)
        lin2.append(2 * (i + 1))
        for j in range(i + 1, nv):
            quad2[(i, j)] = 4 * (i + 1)
    return fermionic_sum(quad2, lin2, maxdeg2, limit)


def n1_product(k, maxdeg2):
    """Normalized character of the N=1 (2,4k) minimal model.

    Product over n >= 1 with n !== 2 (mod 4) and n !== 0, +-1 (mod 4k)
    of 1/(1 - q^{n/2}); the index n runs over doubled exponents.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s = QSeries.one(maxdeg2)
    for n in range(1, maxdeg2 + 1):
        if n % 4 == 2:
            continue
        if n % (4 * k) in (0, 1, 4 * k - 1):
            continue
        s.idiv_one_minus(n)
    return s


def n1_character(p, pp, maxdeg2):
    """Normalized vacuum character of the N=1 (p, p') minimal model.

    prod (1+q^{i-1/2}) / prod (1-q^i) * sum_{j in Z}
    (q^{j(j p p' + p' - p)/2} - q^{(jp+1)(jp'+1)/2}).
    """
    if p < 2 or pp < 2 or p == pp or (pp - p) % 2:
        raise ValueError("p and p' must be >= 2, distinct and differ by an "
                         "even number")
    pref = free_product([(1, "odd"), (2, "even")], maxdeg2)
    num = QSeries(maxdeg2)
    j = 0
    while True:
        hit = False
        for jj in ((j, -j) if j else (0,)):
            e1 = jj * (jj * p * pp + pp - p)
            e2 = (jj * p + 1) * (jj * pp + 1)
            if 0 <= e1 <= maxdeg2:
                num.c[e1] += 1
                hit = True
            if 0 <= e2 <= maxdeg2:
                num.c[e2] -= 1
                hit = True
        if not hit and j > 0:
            break
        j += 1
    return pref * num


# -- path and cycle graph series (two-variable master formula) ---------

def graph_sum(adjacency, loops, maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """Fermionic sum for a simple graph with optional loops.

    Doubled exponent: 2*sum n_i + 2*sum_{edges} n_i n_j + sum_{loops} n_i^2.
    """
    k = len(loops)
    quad2 = {}
    for i in range(k):
        if loops[i]:
            quad2[(i, i)] = 1
    for (i, j) in adjacency:
        quad2[(min(i, j), max(i, j))] = 2
    return fermionic_sum(quad2, [2] * k, maxdeg2, limit)


def jm_closed(key, maxdeg2):
    """Closed bosonic forms for the path graphs A2..A6 (keys "A2".."A6")."""
    pad = maxdeg2 + 2  # room for the q^{-1} shifts
    inf = inv_pochhammer("inf", pad)
    if key == "A2":
        return inf.copy().idiv_one_minus(2).truncate(maxdeg2)
    if key == "A3":
        return (inf * inf - inf).shift_down(2).truncate(maxdeg2)
    if key == "A4":
        acc = QSeries(pad)
        n = 1
        while 2 * n <= pad:
            term = QSeries.monomial(2 * n, pad).idiv_one_minus(2 * n)
            acc = acc + term
            n += 1
        return (inf * inf * acc).shift_down(2).truncate(maxdeg2)
    if key == "A5":
        acc = QSeries(maxdeg2)
        n = 0
        while 2 * n <= maxdeg2:
            term = QSeries.monomial(2 * n, maxdeg2) * inv_pochhammer(n, maxdeg2)
            term.idiv_one_minus(2 * (n + 1))
            term.idiv_one_minus(2 * (n + 1))
            acc = acc + term
            n += 1
        inf0 = inv_pochhammer("inf", maxdeg2)
        return inf0 * inf0 * acc
    if key == "A6":
        acc = QSeries(maxdeg2)
        n = 0
        while 2 * n <= maxdeg2:
            m = 0
            while 2 * (n + m + n * m) <= maxdeg2:
                term = QSeries.monomial(2 * (n + m + n * m), maxdeg2)
                term = term * inv_pochhammer(n + 1, maxdeg2)
                term = term * inv_pochhammer(m + 1, maxdeg2)
                acc = acc + term
                m += 1
            n += 1
        inf0 = inv_pochhammer("inf", maxdeg2)
        return inf0 * inf0 * acc
    raise KeyError("unknown path-graph key %r" % (key,))


def jm2_closed(key, maxdeg2):
    """Closed forms for the cycle graphs C3 and C5 (keys "C3", "C5")."""
    if key == "C3":
        acc = QSeries(maxdeg2)
        n = 0
        while 2 * n <= maxdeg2:
            term = QSeries.monomial(2 * n, maxdeg2)
            # 1/(q^{n+1}; q)_{n+1} = prod_{i=0..n} 1/(1 - q^{n+1+i})
            for i in range(n + 1):
                if 2 * (n + 1 + i) > maxdeg2:
                    break
                term.idiv_one_minus(2 * (n + 1 + i))
            acc = acc + term
            n += 1
        return inv_pochhammer("inf", maxdeg2) * acc
    if key == "C5":
        pad = maxdeg2 + 2
        inf = inv_pochhammer("inf", pad)
        acc = QSeries(pad)
        n = 1
        while 2 * n <= pad:
            term = QSeries.monomial(2 * n, pad, coeff=n).idiv_one_minus(2 * n)
            acc = acc + term
            n += 1
        return (inf * inf * acc).shift_down(2).truncate(maxdeg2)
    raise KeyError("unknown cycle-graph key %r" % (key,))


# -- nilpotent-cone / principal subspace series -------------------------

def sln_root_pairs(n):
    """Ordered pairs of positive roots ((i1,j1),(i2,j2)), i1<=i2<j1<=j2,
    including the diagonal; exactly the index set of the quadratic
    relations of ``sln_principal:n`` and of the cross terms of ``ml_lhs``."""
    roots = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [(r, s) for r in roots for s in roots
            if r[0] <= s[0] < r[1] <= s[1]]


def ml_lhs(n, maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """Nested sum over exponent tuples of the upper-triangular positions.

    Variables are indexed by pairs (i, j) with 1 <= i < j <= n; the doubled
    exponent is 2*B(n) where B collects n_{i1,j1} n_{i2,j2} over the
    :func:`sln_root_pairs` (diagonal pairs give squares); n >= 2.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    pairs = sln_root_pairs(n)
    roots = [r for r, s in pairs if r == s]
    index = {r: k for k, r in enumerate(roots)}
    quad2 = {(index[r], index[s]): 2 for r, s in pairs}
    return fermionic_sum(quad2, [0] * len(roots), maxdeg2, limit)


def ml_rhs(rank, maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """sum_k q^{k A k^T / 2} / prod (q)_{k_i} for the Cartan matrix A of
    type A_rank, rank >= 1; the doubled exponent is exactly k A k^T."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    quad2 = {}
    for i in range(rank):
        quad2[(i, i)] = 2
        if i + 1 < rank:
            quad2[(i, i + 1)] = -2
    return fermionic_sum(quad2, [0] * rank, maxdeg2, limit)


def fs_sum(n, maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """sum over l in Z_{>=0}^n of q^{sum l_i^2 + sum_{i<j} l_i l_j}/prod (q)_{l_i}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    quad2 = {}
    for i in range(n):
        quad2[(i, i)] = 2
        for j in range(i + 1, n):
            quad2[(i, j)] = 2
    return fermionic_sum(quad2, [0] * n, maxdeg2, limit)


def ext_vir_pair_sum(maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """sum q^{n1^2 + n2^2 + n1 + n2} / ((q)_{n1} (q)_{n2})."""
    return fermionic_sum({(0, 0): 2, (1, 1): 2}, [2, 2], maxdeg2, limit)


def ext_vir_triple_sum(maxdeg2, limit=DEFAULT_MONOMIAL_LIMIT):
    """Three-variable companion sum with doubled exponent
    2(n1^2 + 2 n2^2 + m1^2 + 2 n1 n2 + n1 m1 + 2 n2 m1 + n1 + 2 n2 + m1)."""
    quad2 = {(0, 0): 2, (1, 1): 4, (2, 2): 2, (0, 1): 4, (0, 2): 2, (1, 2): 4}
    return fermionic_sum(quad2, [2, 4, 2], maxdeg2, limit)


def free_product(weights2, maxdeg2):
    """Character of the free jet algebra on generators of the given doubled
    weights/parities, a list of (weight2, parity): the product over
    d = weight2, weight2 + 2, ... of (1 + q^{d/2}) for an odd generator and
    1/(1 - q^{d/2}) for an even one.  [(1, "odd")] is one free fermion."""
    s = QSeries.one(maxdeg2)
    for w2, parity in weights2:
        d = w2
        while d <= maxdeg2:
            if parity == "odd":
                s.imul_one_plus(d)
            else:
                s.idiv_one_minus(d)
            d += 2
    return s


# ---------------------------------------------------------------------
# Partition statistics (brute-force oracles)
# ---------------------------------------------------------------------

def partitions(n, max_part=None):
    """Yield partitions of n as descending tuples (exhaustive recursion)."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partition_stats(kind, n):
    """Exhaustively computed partition statistics.

    p: number of partitions of n.
    np: sum over partitions of n of the sum of parts (= n * p(n)).
    total_parts: total number of parts over all partitions of n.
    largest_part_mult_sum: sum over partitions of the multiplicity of the
        largest part.
    two_colored: pairs (lambda1, lambda2) with |lambda1| + |lambda2| = n and
        lambda1 nonempty.
    even_or_one: partitions of 2n with every part even or equal to 1.
    least_vs_greatest: partitions of n whose least part doubled exceeds the
        greatest part.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if kind == "p":
        return sum(1 for _ in partitions(n))
    if kind == "np":
        return sum(sum(lam) for lam in partitions(n))
    if kind == "total_parts":
        return sum(len(lam) for lam in partitions(n))
    if kind == "largest_part_mult_sum":
        return sum(lam.count(lam[0]) for lam in partitions(n) if lam)
    if kind == "two_colored":
        count = 0
        for m in range(1, n + 1):
            for lam1 in partitions(m):
                for _lam2 in partitions(n - m):
                    count += 1
        return count
    if kind == "even_or_one":
        return sum(1 for lam in partitions(2 * n)
                   if all(p % 2 == 0 or p == 1 for p in lam))
    if kind == "least_vs_greatest":
        return sum(1 for lam in partitions(n) if lam and 2 * lam[-1] > lam[0])
    raise KeyError("unknown partition statistic %r" % (kind,))
