"""The benchmark's four workloads: their operations and exactness oracles.

An operation is one model verification, one series, or one membership
query.  ``build(name, jc, ref, seed)`` turns a workload into a list of
``Op`` objects in seeded order.  ``Op.call`` is the timed part; it looks
every ``jetchar`` function up at call time, so the tracer's wrappers see
it.  ``Op.check`` compares the result with the oracle, untimed, and
returns one message per failed operation.

``small=True`` gives the same workloads at low degrees, for the
benchmark's own tests; the oracles then compare prefixes of the frozen
series.
"""

import io
import json
import random
import types

from algebra import Algebra

# Heavy tier of models.verify, at depths that leave room for four passes
# (about 6 s each on the machine of BASELINE.md) in one 30 s run.
DEEP_JETS = (("sln_principal:4", 16), ("graph:A4", 18), ("lattice:2", 20),
             ("n2_c1:abc", 24))

# (kind, key, maxdeg2, relation, partner): the result must stand in
# ``relation`` to the frozen series ``partner`` at every degree.
DEEP_SERIES = (
    ("spanning", "graph:A4", 24, "==", "formula graphsum:A4"),
    ("formula", "graphsum:A4", 24, None, None),
    ("spanning", "graph:A6", 16, "==", "formula graphsum:A6"),
    ("formula", "graphsum:A6", 16, None, None),
    ("spanning", "sln_principal:4", 22, ">=", "formula ml:sl4:rhs"),
    ("formula", "ml:sl4:rhs", 22, None, None),
    ("formula", "graphsum:C5", 60, None, None),
    ("formula", "ml:sl4:lhs", 80, "==", "formula ml:sl4:rhs"),
)

# (ring, degrees): each (ring, degree) gets two queries per pass, a member
# and a non-member; n2_c1:abc has no known outside witness, so two members.
MEMBERSHIP = (
    ("n2_c1:ab", tuple(range(13, 24))),
    ("n2_c1:abc", tuple(range(13, 24))),
    ("lattice:2", (12, 14, 16, 18)),
    ("graph:A4", (12, 14, 16, 18)),
)
# Outside witnesses T^j(c) for n2_c1:ab, c being extras[2] of n2_c1:abc,
# the cubic vector of demo 02; the frozen reference lists the j.
DERIVED_WITNESS = ("n2_c1:ab", "n2_c1:abc", 2)

SMALL_DEPTH = 8

NAMES = ("registry", "deep_jets", "deep_series", "membership")


class Op:
    __slots__ = ("label", "call", "check", "count")

    def __init__(self, label, call, check, count=1):
        self.label = label
        self.call = call
        self.check = check
        self.count = count


def ring_keys(name, jc):
    """Models whose rings the workload builds during set-up."""
    if name == "registry":
        return sorted(jc.models.REGISTRY)
    if name == "deep_jets":
        return [key for key, _ in DEEP_JETS]
    if name == "deep_series":
        return []
    return [key for key, _ in MEMBERSHIP]


def build(name, jc, ref, seed, small=False):
    rng = random.Random("%s:%d" % (name, seed))
    ops = {"registry": _registry, "deep_jets": _deep_jets,
           "deep_series": _deep_series, "membership": _membership}[name](
               jc, ref, rng, small)
    rng.shuffle(ops)
    return ops


# -- registry ------------------------------------------------------------

def _registry(jc, ref, rng, small):
    """One ``verify`` command line per model, so each is timed on its own."""
    ops = []
    for key in sorted(jc.models.REGISTRY):
        argv = ["verify", "--format", "json", "--model", key]
        if small:
            argv += ["--maxdeg2", str(SMALL_DEPTH)]
        ops.append(Op("cli verify %s" % key, _cli_call(jc, argv),
                      _cli_check(jc, ref["registry"][key], key, small)))
    return ops


def _cli_call(jc, argv):
    def call():
        out = io.StringIO()
        status = jc.cli.main(list(argv), out=out)
        return status, out.getvalue()
    return call


def _cli_check(jc, frozen, key, small):
    def check(result):
        status, text = result
        report = json.loads(text)  # one model: an object, not a list
        if not isinstance(report, dict) or report.get("model") != key:
            report = None
        errors = _check_report(jc, frozen, report, key, full=not small)
        if not small and not errors and status != 0:
            errors.append("%s: verify exit status %r" % (key, status))
        return errors
    return check


def report_rows(report):
    """The rows of a report's dict form as ``[degree2, spanning, jet, char]``."""
    return [[r["degree2"], r["spanning"], r["jet_dim"], r["character"]]
            for r in report["rows"]]


def _check_report(jc, frozen, report, key, full):
    """Compare one verification report with its frozen reference."""
    if report is None:
        return ["%s: no report" % key]
    rows = report_rows(report)
    if rows != frozen["rows"][:len(rows)] or len(rows) != report["maxdeg2"] + 1:
        return ["%s: rows differ from the frozen reference" % key]
    mismatch = next((d for d, _, jet, char in rows
                     if char is not None and jet != char), None)
    if report["verdict"] != ("ISO_CONSISTENT" if mismatch is None else "MISMATCH"):
        return ["%s: verdict %s disagrees with its rows" % (key, report["verdict"])]
    if report.get("mismatch_degree2") != mismatch:
        return ["%s: mismatch degree %r, rows say %r"
                % (key, report.get("mismatch_degree2"), mismatch)]
    if full:
        if report["maxdeg2"] != frozen["maxdeg2"]:
            return ["%s: truncation %d, not the default %d"
                    % (key, report["maxdeg2"], frozen["maxdeg2"])]
        seen = types.SimpleNamespace(verdict=report["verdict"],
                                     maxdeg2=report["maxdeg2"],
                                     mismatch_degree2=mismatch)
        if not jc.models.matches_expectation(key, seen):
            return ["%s: verdict %s deviates from the registry's expectation"
                    % (key, report["verdict"])]
    return []


# -- deep_jets -----------------------------------------------------------

def _deep_jets(jc, ref, rng, small):
    ops = []
    for key, depth in DEEP_JETS:
        depth = min(depth, SMALL_DEPTH) if small else depth
        ops.append(Op("verify %s@%d" % (key, depth),
                      _verify_call(jc, key, depth),
                      _verify_check(jc, ref["jets"][key], key, depth)))
    return ops


def _verify_call(jc, key, depth):
    return lambda: jc.models.verify(key, depth).to_dict()


def _verify_check(jc, frozen, key, depth):
    def check(report):
        if report["maxdeg2"] != depth:
            return ["%s: verified to %d, not the requested %d"
                    % (key, report["maxdeg2"], depth)]
        errors = _check_report(jc, frozen, report, key, full=False)
        for d, span, jet, char in report_rows(report):
            if span is not None and span < jet:
                errors.append("%s: spanning %d < jet %d at %d" % (key, span, jet, d))
            if frozen["verdict"] == "ISO_CONSISTENT" and char is not None and jet != char:
                errors.append("%s: jet %d != character %d at %d" % (key, jet, char, d))
        return errors[:1]
    return check


# -- deep_series ---------------------------------------------------------

def series_name(kind, key):
    return "%s %s" % (kind, key)


def _deep_series(jc, ref, rng, small):
    ops = []
    for kind, key, depth, relation, partner in DEEP_SERIES:
        depth = min(depth, SMALL_DEPTH) if small else depth
        ops.append(Op("%s %s@%d" % (kind, key, depth),
                      series_call(jc, kind, key, depth),
                      series_check(ref["series"], series_name(kind, key),
                                    depth, relation, partner)))
    return ops


def series_call(jc, kind, key, depth):
    if kind == "spanning":
        def call():
            series = jc.models.get_model(key).spanning_series(depth)
            return [series[d] for d in range(depth + 1)]
    else:
        def call():
            series = jc.models.qseries_formula(key, depth)
            return [series[d] for d in range(depth + 1)]
    return call


def series_check(frozen, name, depth, relation, partner):
    def check(values):
        if values != frozen[name][:depth + 1]:
            return ["%s@%d differs from the frozen reference" % (name, depth)]
        if relation is not None:
            other = frozen[partner][:depth + 1]
            ok = values == other if relation == "==" else all(
                a >= b for a, b in zip(values, other))
            if not ok:
                return ["%s@%d is not %s %s" % (name, depth, relation, partner)]
        return []
    return check


# -- membership ----------------------------------------------------------

def ring_algebra(spec):
    """The benchmark's algebra for a ring, and its generators."""
    alg = Algebra([(v.name, v.parity == "odd", v.weight2) for v in spec.variables])
    texts = [spec.poly_str(g) for g in tuple(spec.relations) + tuple(spec.extras)]
    return alg, [alg.parse(t) for t in texts if t != "0"]


def _membership(jc, ref, rng, small):
    target, source, index = DERIVED_WITNESS
    ops = []
    for key, degrees in MEMBERSHIP:
        spec = jc.models.get_model(key).ring()
        alg, gens = ring_algebra(spec)
        query = _Queries(rng, alg, gens, max(degrees))
        if key == target:
            src = jc.models.get_model(source).ring()
            query.add_derived_witness(alg.parse(src.poly_str(src.extras[index])),
                                      ref["outside"][key])
        for degree in (degrees[:1] if small else degrees):
            for member in (True, False):
                poly = query.member(degree)
                witness = None if member else query.witness(degree)
                if witness is not None:
                    poly = alg.add(poly, witness)
                ops.append(_query_op(jc, spec, key, degree, alg.format(poly),
                                     witness is None))
    return ops


def _query_op(jc, spec, key, degree, text, expect):
    poly = spec.parse_poly(text)

    def check(answer):
        if answer is not expect:
            return ["%s@%d: contains gave %r for a %s" % (
                key, degree, answer, "member" if expect else "non-member")]
        return []

    return Op("contains %s@%d" % (key, degree),
              lambda: jc.jetquot.contains(spec, poly), check)


class _Queries:
    """Seeded members ``sum c * m * T^j(g)`` and outside witnesses."""

    COEFFS = (-3, -2, -1, 1, 2, 3)
    TERMS = 3

    def __init__(self, rng, alg, gens, top):
        self.rng = rng
        self.alg = alg
        self.gens = [(g, alg.degree2(g)) for g in gens]
        self._tpow = {}
        self._derived = None
        reach = {0}
        degrees = sorted({alg.atom_degree2(a) for a in alg.atoms_up_to(top)})
        for total in range(1, top + 1):
            if any(total - d in reach for d in degrees if d <= total):
                reach.add(total)
        self.reach = reach
        # Every generator monomial has at least two atoms, and T and
        # multiplication never shorten a monomial, so a lone atom lies
        # outside the ideal, and (member + atom) is a non-member.
        self.atom_outside = all(len(m) >= 2 for g, _ in self.gens for m in g)

    def add_derived_witness(self, poly, js):
        """T^j(poly) lies outside the ideal for each j in ``js``."""
        self._derived = (poly, frozenset(js))

    def _derivative(self, key, poly, j):
        powers = self._tpow.setdefault(key, [poly])
        while len(powers) <= j:
            powers.append(self.alg.derive(powers[-1]))
        return powers[j]

    def _monomial(self, degree2):
        atoms = []
        while degree2:
            fits = [a for a in self.alg.atoms_up_to(degree2)
                    if degree2 - self.alg.atom_degree2(a) in self.reach]
            atom = self.rng.choice(fits)
            atoms.append(atom)
            degree2 -= self.alg.atom_degree2(atom)
        return tuple(atoms)

    def member(self, degree2):
        choices = [(i, j) for i, (_, d0) in enumerate(self.gens)
                   for j in range(max(0, (degree2 - d0) // 2 + 1))
                   if degree2 - d0 - 2 * j in self.reach]
        while True:
            poly = {}
            for _ in range(self.TERMS):
                i, j = self.rng.choice(choices)
                g, d0 = self.gens[i]
                tg = self._derivative(i, g, j)
                mono = self._monomial(degree2 - d0 - 2 * j)
                poly = self.alg.add(poly, self.alg.times(
                    self.rng.choice(self.COEFFS), mono, tg))
            if poly:
                return poly

    def witness(self, degree2):
        """A nonzero multiple of a known outside element, or None."""
        options = []
        if self.atom_outside:
            options += [{(a,): 1} for a in self.alg.atoms_up_to(degree2)
                        if self.alg.atom_degree2(a) == degree2]
        if self._derived is not None:
            poly, js = self._derived
            j, odd = divmod(degree2 - self.alg.degree2(poly), 2)
            if not odd and j in js:
                options.append(self._derivative("derived", poly, j))
        if not options:
            return None
        return self.alg.times(self.rng.choice(self.COEFFS), (),
                              self.rng.choice(options))
