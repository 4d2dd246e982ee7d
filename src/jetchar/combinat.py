"""Constrained-partition counting for the combinatorial spanning sets
attached to the models: colored partitions with difference and boundary
conditions (ColoredRules, read off the leading monomials of a ring's
relations by ColoredRules.of_ring), the specific three-letter monomial clauses of
the two-supercurrent model (GhRules), and the D_{k,1} conditions of the
N=1 minimal models (Dk1Rules).

Every degree up to the truncation is counted in one walk over states
that share a future, never one configuration at a time.  Each color's
part lists are tabulated once, keeping only the features some boundary
reads (the part count of a boundary's t, the smallest part of its s),
and the colors are folded, in an order that carries few features, over
states (degree, features still needed).  D_{k,1} lists are one such
table; GhRules walks the indices over states (letters at i-1, i-2).

All degrees are doubled integers, matching the rest of the package.
"""

from .qseries import QSeries


# ---------------------------------------------------------------------
# Constraint systems
# ---------------------------------------------------------------------

class ColoredRules:
    """Colored partitions on jet grids.

    colors: sequence of (name, weight2, odd) — parts of a color live on
        the grid {weight2 + 2 i : i >= 0}, weight2 a positive int; odd
        colors get an implicit all-parts-distinct condition.
    differences: {name: ((distance, gap2), ...)} — within a color, the
        descending part list must satisfy parts[j] - parts[j + distance]
        >= gap2 for every valid j; distance is a positive int, gap2 any
        int.
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
        for name, weight2, _ in self.colors:
            if not isinstance(weight2, int) or weight2 < 1:
                raise ValueError("weight2 of %r is not a positive int" % name)
        known = set(names)
        for name, rules in self.differences.items():
            if name not in known:
                raise ValueError("difference rule for unknown color %r" % name)
            for dist, gap2 in rules:
                if (not isinstance(dist, int) or dist < 1
                        or not isinstance(gap2, int)):
                    raise ValueError("bad difference %r of %r" % (
                        (dist, gap2), name))
        for s, t in self.boundaries:
            if s not in known or t not in known:
                raise ValueError("boundary rule %r for unknown color"
                                 % ((s, t),))

    @classmethod
    def of_ring(cls, spec):
        """The rule read off the leading monomials of a RingSpec's
        relations: its colors are the variables, in order.  A relation's
        leading monomial is its first in canonical order; a power x^k
        (k >= 2) adds the difference (k - 1, 4) to x, a product x*y of
        two variables the boundary (x, y).  A zero relation adds nothing;
        any other leading monomial is a ValueError naming it."""
        names = [v.name for v in spec.variables]
        differences, boundaries = {}, []
        for rel in filter(None, spec.relations):
            mono = min(rel)
            x = names[mono[0][0]] if mono else None
            if len(mono) >= 2 and mono[0] == mono[-1]:
                differences[x] = (*differences.get(x, ()), (len(mono) - 1, 4))
            elif len(mono) == 2:
                boundaries.append((x, names[mono[1][0]]))
            else:
                raise ValueError("leading monomial %s is not x^k or x*y"
                                 % spec.mono_str(mono))
        return cls([(v.name, v.weight2, v.odd) for v in spec.variables],
                   differences, boundaries)


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
        if not isinstance(k, int) or k < 2:
            raise ValueError("D_{k,1} conditions require an int k >= 2")
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

def _color_profiles(weight2, odd, diffs, maxdeg2, keep_n, keep_min, step=2):
    """Descending part lists on the grid {weight2 + step i} up to maxdeg2,
    as a map (deg2, n_parts, min_part2) -> count; n_parts is kept only
    when keep_n (else 0), min_part2 only when keep_min (else None, as for
    the empty list).  diffs: ((distance, g0, g1), ...) — a part is at
    most its anchor, the part `distance` places earlier, minus g0 for an
    even anchor and g1 for an odd one; odd adds (1, 2, 2).  Built by
    degree levels over states (n_parts as kept, last `span` parts), span
    being as far as a difference looks back (at least 1): each condition
    caps the next part, so the lists of one state extend alike."""
    diffs = tuple(diffs) + (((1, 2, 2),) if odd else ())
    span = max([1] + [dist for dist, _, _ in diffs])
    levels = [{} for _ in range(maxdeg2 + 1)]
    levels[0][0, ()] = 1
    profiles = {}
    for deg2, level in enumerate(levels):
        for (n, tail), count in level.items():
            key = (deg2, n, tail[-1] if keep_min and tail else None)
            profiles[key] = profiles.get(key, 0) + count
            top = min((maxdeg2 - deg2, *tail[-1:]))
            for dist, g0, g1 in diffs:
                if dist <= len(tail):
                    anchor = tail[-dist]
                    top = min(top, anchor - (g1 if anchor % 2 else g0))
            head = tail[1 - span:] if span > 1 else ()
            for p in range(weight2, top + 1, step):
                nxt, state = levels[deg2 + p], (n + keep_n, head + (p,))
                nxt[state] = nxt.get(state, 0) + count
    return profiles


def _fold_order(n_colors, bounds):
    """(color, features carried after it) in folding order, read off the
    boundaries alone: greedily the color that leaves the fewest features
    carried, fewer smallest parts among equals, ties in the given order."""
    def carried(placed):
        return {("min", s) if s in placed else ("n", t) for s, t in bounds
                if (s in placed) != (t in placed)}
    order, done = [], set()
    while len(done) < n_colors:
        left = {c: carried(done | {c}) for c in range(n_colors)
                if c not in done}
        i = min(left, key=lambda c: (len(left[c]),
                                     sum(k == "min" for k, _ in left[c])))
        done.add(i)
        order.append((i, left[i]))
    return order


def _count_colored(rules, maxdeg2):
    """Fold the colors in :func:`_fold_order`, carrying states
    (deg2, features still read by unchecked boundaries) -> count.

    A feature is ("n", i), the part count of color i, or ("min", i), its
    smallest part (None when it has no parts).  A boundary is checked as
    soon as both of its colors are placed: against a state, one cap on
    the new color's part count and one floor on its smallest part; its
    self-boundary filters its entries once.  A feature no unchecked
    boundary reads is dropped, which merges states."""
    idx = {c[0]: i for i, c in enumerate(rules.colors)}
    bounds = [(idx[s], idx[t]) for s, t in rules.boundaries]
    states = {(0, ()): 1}
    live, tables = [], {}  # tables by (weight2, odd, differences, keeps)
    for i, read in _fold_order(len(rules.colors), bounds):
        name, w2, odd = rules.colors[i]
        pos = {f: j for j, f in enumerate(live)}
        caps = [(pos["min", s], rules.colors[s][1]) for s, t in bounds
                if t == i and ("min", s) in pos]
        floors = [pos["n", t] for s, t in bounds if s == i and ("n", t) in pos]
        keep = [pos[f] for f in live if f in read]
        own = [f for f in (("n", i), ("min", i)) if f in read]
        live = [f for f in live if f in read] + own
        sig = (w2, odd, tuple((d, g, g) for d, g in
                              rules.differences.get(name, ())),
               any(t == i for _, t in bounds), any(s == i for s, _ in bounds))
        if sig not in tables:
            tables[sig] = _color_profiles(*sig[:3], maxdeg2, *sig[3:])
        table = tables[sig]
        entries, never = [], w2 + 2 * maxdeg2  # no part: above every floor
        for (d, n, m), count in table.items():  # ascending d: see the break
            if (i, i) not in bounds or m is None or m >= w2 + 2 * n:
                entries.append((d, n, never if m is None else m, count,
                                tuple(n if k == "n" else m for k, _ in own)))
        folded = {}
        for (deg2, carried), mult in states.items():
            room, cap, floor = maxdeg2 - deg2, maxdeg2, w2
            for j, w in caps:
                if carried[j] is not None and (carried[j] - w) // 2 < cap:
                    cap = (carried[j] - w) // 2
            for j in floors:
                if w2 + 2 * carried[j] > floor:
                    floor = w2 + 2 * carried[j]
            kept = tuple(map(carried.__getitem__, keep))
            for d, n, low, count, mine in entries:
                if d > room:
                    break
                if n <= cap and low >= floor:
                    key = (deg2 + d, kept + mine)
                    folded[key] = folded.get(key, 0) + mult * count
        states = folded

    out = QSeries(maxdeg2)
    for (deg2, _), count in states.items():
        out.c[deg2] += count
    return out


# -- Gh monomials --------------------------------------------------------

def _count_gh(maxdeg2):
    """Walk the indices i = 1, 2, ... over states (deg2, a, b > 0, c at
    i-1, a, c at i-2) -> count, placing the letters at i; a monomial is
    counted at its last nonzero index, where its (iii) window closes."""
    out = QSeries(maxdeg2)
    out.c[0] = 1  # the empty monomial
    states = {(0, 0, False, 0, 0, 0): 1}
    i = 1
    while states:
        walked, states = states, {}
        for (deg2, a1, b1, c1, a2, c2), count in walked.items():
            rem = maxdeg2 - deg2
            if 2 * i > rem:  # no letter fits at i or later
                continue
            for a in (0, 1):
                for c in (0, 1):  # no b fits when the odd letters do not
                    odd2 = (a + c) * (2 * i + 1)
                    bmax = (rem - odd2) // (2 * i)
                    for b in range(min(bmax, 2) + 1 if i == 1 else bmax + 1):
                        if not _gh_step_ok(i, a, b, c, a1, b1, c1, a2, c2):
                            continue
                        used = odd2 + 2 * i * b
                        # close the (iii) window at i, whose c_{i+1} is zero
                        if used and (i < 2 or a + c <= 1):
                            out.c[deg2 + used] += count
                        key = (deg2 + used, a, b > 0, c, a1, c1)
                        states[key] = states.get(key, 0) + count
        i += 1
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
    """Descending doubled parts >= 3 on a grid of step 1: (1, 0, 1) keeps
    an odd part from repeating, (k - 1, 3, 2) is the window clause."""
    out = QSeries(maxdeg2)
    for (deg2, _, _), count in _color_profiles(
            3, False, ((1, 0, 1), (k - 1, 3, 2)), maxdeg2, False, False,
            step=1).items():
        out.c[deg2] += count
    return out
