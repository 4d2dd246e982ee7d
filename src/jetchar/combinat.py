"""Monomial ordering and constrained-partition counting.

Two jobs live here:

* the complete lexicographic order on normalized monomials (compare /
  leading_term) used to reason about spanning sets: monomials are compared
  first by total exponent count, then by exponent vectors read along the
  variable order (shift-major, base-minor), where at the first differing
  slot the *smaller* exponent wins;

* counting rules for the combinatorial spanning sets attached to the
  models: colored partitions with difference and boundary conditions
  (ColoredRules), the specific three-letter monomial clauses of the
  two-supercurrent model (GhRules), and the D_{k,1} conditions of the
  N=1 minimal models (Dk1Rules).

Colored partitions are counted for every degree up to the truncation in
one pass: each color's part lists are tabulated once, keeping only the
features some boundary reads (the part count of a boundary's t, the
smallest part of its s), and the colors are folded left to right over
states (degree, features still needed), each boundary checked as soon
as both of its colors are placed.  GhRules and Dk1Rules are counted in
one pass too: one enumeration up to the truncation records each
configuration once, at its own degree.

All degrees are doubled integers, matching the rest of the package.
"""

from .qseries import QSeries


# ---------------------------------------------------------------------
# Complete lexicographic order
# ---------------------------------------------------------------------

def _slot_key(spec, atom):
    """Position of a jet atom in the variable order: shift-major,
    base-minor (declaration order breaks ties)."""
    base, shift = atom
    return (shift, base)


def compare(spec, mono_a, mono_b):
    """Total order on normalized monomials; returns -1, 0, or 1.

    Lower total exponent count compares smaller.  On ties the exponent
    vectors are read along the variable order and the first difference
    decides, with the smaller exponent belonging to the *greater*
    monomial.
    """
    if len(mono_a) != len(mono_b):
        return -1 if len(mono_a) < len(mono_b) else 1
    if mono_a == mono_b:
        return 0
    ea = _exponents(spec, mono_a)
    eb = _exponents(spec, mono_b)
    for slot in sorted(set(ea) | set(eb)):
        va = ea.get(slot, 0)
        vb = eb.get(slot, 0)
        if va != vb:
            return 1 if va < vb else -1
    return 0


def _exponents(spec, mono):
    out = {}
    for atom in mono:
        slot = _slot_key(spec, atom)
        out[slot] = out.get(slot, 0) + 1
    return out


def leading_term(spec, poly):
    """(coefficient, monomial) of the greatest monomial; None for 0."""
    best = None
    for mono in poly:
        if best is None or compare(spec, mono, best) > 0:
            best = mono
    if best is None:
        return None
    return (poly[best], best)


# ---------------------------------------------------------------------
# Constraint systems
# ---------------------------------------------------------------------

class ColoredRules:
    """Colored partitions on jet grids.

    colors: sequence of (name, weight2, odd) — parts of a color live on
        the grid {weight2 + 2 i : i >= 0}; odd colors get an implicit
        all-parts-distinct condition.
    differences: {name: ((distance, gap2), ...)} — within a color, the
        descending part list must satisfy parts[j] - parts[j + distance]
        >= gap2 for every valid j.
    boundaries: ((s, t), ...) — the smallest part of color s must be at
        least weight2(s) + 2 * (number of parts of color t).
    """

    def __init__(self, colors, differences=None, boundaries=()):
        self.colors = tuple(colors)
        self.differences = dict(differences or {})
        self.boundaries = tuple(boundaries)
        names = [c[0] for c in self.colors]
        if len(set(names)) != len(names):
            raise ValueError("duplicate color names")
        known = set(names)
        for name in self.differences:
            if name not in known:
                raise ValueError("difference rule for unknown color %r" % name)
        for s, t in self.boundaries:
            if s not in known or t not in known:
                raise ValueError("boundary rule for unknown color")


class GhRules:
    """Monomial clauses for the two-supercurrent model.

    Letters: a_i and c_i are the two odd families (doubled degree 2i+1,
    exponent at most 1); b_i is the even family (doubled degree 2i).
    A monomial is admitted when, for all i >= 1:
      (i)   b_i = 0 or c_i = 0,  and  b_i = 0 or c_{i+1} = 0;
      (ii)  a_i = 0 or b_i = 0,  and  a_i = 0 or b_{i+1} = 0;
      (iii) for i >= 2 only: a_i + c_i + c_{i+1} <= 1;  and b_1 <= 2;
      (iv)  c_i + c_{i+1} + c_{i+2} <= 1  and  a_i + a_{i+1} + a_{i+2} <= 1.
    """


class Dk1Rules:
    """Difference conditions for the N=1 (2,4k) minimal model.

    Doubled parts: odd parts are >= 3 and all distinct; even parts are
    >= 4.  Sorted descending as B_1 >= B_2 >= ..., the list must satisfy
    B_j - B_{j+k-1} >= 2 when B_j is odd and >= 3 when B_j is even.
    """

    def __init__(self, k):
        if k < 2:
            raise ValueError("D_{k,1} conditions require k >= 2")
        self.k = k


# ---------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------

def count_constrained(rules, maxdeg2):
    """QSeries whose coefficient at each doubled degree 0..maxdeg2 is the
    number of admissible configurations of that degree."""
    if isinstance(rules, ColoredRules):
        return _count_colored(rules, maxdeg2)
    if isinstance(rules, GhRules):
        return _count_gh(maxdeg2)
    if isinstance(rules, Dk1Rules):
        return _count_dk1(rules.k, maxdeg2)
    raise TypeError("unknown constraint set %r" % (rules,))


# -- colored partitions -------------------------------------------------

def _color_profiles(weight2, odd, diffs, maxdeg2, keep_n, keep_min):
    """All part lists of one color up to maxdeg2, aggregated as a map
    (deg2, n_parts, min_part2) -> count.  n_parts is kept only when
    keep_n (else 0) and min_part2 only when keep_min (else None);
    min_part2 is None for the empty list."""
    diffs = tuple(diffs)
    if odd:
        diffs = diffs + ((1, 2),)
    profiles = {}

    def record(deg2, parts):
        key = (deg2, len(parts) if keep_n else 0,
               parts[-1] if keep_min and parts else None)
        profiles[key] = profiles.get(key, 0) + 1

    def rec(parts, deg2):
        record(deg2, parts)
        cap = parts[-1] if parts else None
        p = weight2
        while deg2 + p <= maxdeg2:
            if cap is None or p <= cap:
                ok = True
                for dist, gap2 in diffs:
                    if len(parts) >= dist and parts[len(parts) - dist] - p < gap2:
                        ok = False
                        break
                if ok:
                    rec(parts + [p], deg2 + p)
            p += 2

    rec([], 0)
    return profiles


def _count_colored(rules, maxdeg2):
    """Fold the colors left to right, carrying states
    (deg2, features still read by unchecked boundaries) -> count.

    A feature is ("n", i), the part count of color i, or ("min", i), its
    smallest part (None when it has no parts).  A boundary (s, t) is
    checked as soon as both of its colors are placed; afterwards a
    feature no unchecked boundary reads is dropped, which merges states.
    """
    idx = {c[0]: i for i, c in enumerate(rules.colors)}
    bounds = [(idx[s], idx[t], rules.colors[idx[s]][1])
              for s, t in rules.boundaries]

    states = {(0, ()): 1}
    live = []
    for i, (name, w2, odd) in enumerate(rules.colors):
        table = _color_profiles(
            w2, odd, rules.differences.get(name, ()), maxdeg2,
            any(t == i for _, t, _ in bounds),
            any(s == i for s, _, _ in bounds))
        # features of the new color sit after the carried ones
        pos = {f: j for j, f in enumerate(live)}
        pos[("n", i)] = len(live)
        pos[("min", i)] = len(live) + 1
        checks = [(pos[("min", s)], w, pos[("n", t)])
                  for s, t, w in bounds if max(s, t) == i]
        live = sorted({f for s, t, _ in bounds if max(s, t) > i
                       for f in (("min", s), ("n", t)) if f[1] <= i})
        keep = [pos[f] for f in live]

        entries = sorted(table.items(), key=lambda kv: kv[0][0])
        folded = {}
        for (deg2, carried), mult in states.items():
            room = maxdeg2 - deg2
            for (d, n, m), count in entries:
                if d > room:
                    break
                full = carried + (n, m)
                for ms, w, nt in checks:
                    if full[ms] is not None and full[ms] < w + 2 * full[nt]:
                        break
                else:
                    key = (deg2 + d, tuple(full[j] for j in keep))
                    folded[key] = folded.get(key, 0) + mult * count
        states = folded

    out = QSeries(maxdeg2)
    for (deg2, _), count in states.items():
        out.c[deg2] += count
    return out


# -- Gh monomials --------------------------------------------------------

def _count_gh(maxdeg2):
    # exponent state per index i: (a_i, b_i, c_i); enumerate indices
    # ascending, remembering the previous two letters for the clauses, and
    # record each monomial at the index of its last nonzero letter.
    out = QSeries(maxdeg2)
    out.c[0] = 1  # the empty monomial

    def rec(i, deg2, a1, b1, c1, a2, c2):
        # a1/b1/c1 are the letters at i-1; a2/c2 at i-2.
        rem = maxdeg2 - deg2
        if 2 * i > rem:
            return
        da = dc = 2 * i + 1
        db = 2 * i
        for a in (0, 1):
            if a and da > rem:
                break
            for c in (0, 1):
                if c and da * a + dc > rem:
                    break
                bmax = (rem - a * da - c * dc) // db
                if i == 1:
                    bmax = min(bmax, 2)
                for b in range(bmax + 1):
                    if not _gh_step_ok(i, a, b, c, a1, b1, c1, a2, c2):
                        continue
                    used = a * da + b * db + c * dc
                    # close the (iii) window at i, whose c_{i+1} entry is zero
                    if used and (i < 2 or a + c <= 1):
                        out.c[deg2 + used] += 1
                    rec(i + 1, deg2 + used, a, b, c, a1, c1)

    rec(1, 0, 0, 0, 0, 0, 0)
    return out


def _gh_step_ok(i, a, b, c, a1, b1, c1, a2, c2):
    """Clauses decidable once letters at index i are fixed (previous
    letters supplied): the (i)/(ii) adjacency pairs ending at i, the
    (iii) windows centered at i-1, and the (iv) windows ending at i."""
    if b and c:                 # (i) at i
        return False
    if b1 and c:                # (i) pair (b_{i-1}, c_i)
        return False
    if a and b:                 # (ii) at i
        return False
    if a1 and b:                # (ii) pair (a_{i-1}, b_i)
        return False
    if i - 1 >= 2 and a1 + c1 + c > 1:   # (iii) window at i-1
        return False
    if c2 + c1 + c > 1:         # (iv) c-window ending at i
        return False
    if a2 + a1 + a > 1:         # (iv) a-window ending at i
        return False
    return True


# -- D_{k,1} partitions ---------------------------------------------------

def _count_dk1(k, maxdeg2):
    # descending doubled parts; odd >= 3 distinct, even >= 4;
    # window condition against the part k-1 positions earlier.
    out = QSeries(maxdeg2)

    def rec(deg2, window):
        # window holds the most recent k-1 parts (newest last)
        out.c[deg2] += 1
        rem = maxdeg2 - deg2
        start = window[-1] if window else rem
        for p in range(min(start, rem), 2, -1):
            if p % 2 == 0 and p < 4:
                continue
            if p % 2 == 1 and window and window[-1] == p:
                continue  # odd parts distinct (adjacent equal is enough)
            if len(window) == k - 1:
                anchor = window[0]
                need = 2 if anchor % 2 == 1 else 3
                if anchor - p < need:
                    continue
            rec(deg2 + p, (window + (p,))[-(k - 1):])

    rec(0, ())
    return out
