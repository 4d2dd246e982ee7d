"""Model registry: ring presentations, characters, spanning rules.

Each registered model bundles a graded super-polynomial presentation with
an optional character series (the claimed graded dimension of the object
the jets should present), an optional combinatorial spanning-set rule,
and the verdict the registry expects from ``verify`` at the default
truncation.  ``verify`` computes, degree by degree, the spanning count,
the jet-quotient dimension, and the character coefficient, and reports
ISO_CONSISTENT when the jet dimensions match the character at every
computed degree (models without a character are vacuously consistent).

Expected MISMATCH entries are genuine: they record presentations whose
jet Hilbert series provably deviates from the claimed character, with
the first deviating doubled degree frozen in the registry.
"""

from fractions import Fraction

from . import combinat, jetquot, qseries
from .superring import RingSpec, VariableSpec


class Model:
    def __init__(self, key, description, ring_factory, character_key=None,
                 spanning=None, expected="ISO_CONSISTENT",
                 expected_mismatch_degree2=None, default_maxdeg2=16):
        self.key = key
        self.description = description
        self._ring_factory = ring_factory
        self.character_key = character_key
        self.spanning = spanning
        self.expected = expected
        self.expected_mismatch_degree2 = expected_mismatch_degree2
        self.default_maxdeg2 = default_maxdeg2
        self._ring = None

    def ring(self):
        if self._ring is None:
            self._ring = self._ring_factory()
        return self._ring

    def character(self, maxdeg2):
        if self.character_key is None:
            return None
        return qseries_formula(self.character_key, maxdeg2)

    def spanning_series(self, maxdeg2):
        if self.spanning is None:
            return None
        return combinat.count_constrained(self.spanning, maxdeg2)


class VerificationReport:
    def __init__(self, model_key, maxdeg2, rows, verdict,
                 mismatch_degree2=None):
        self.model = model_key
        self.maxdeg2 = maxdeg2
        self.rows = rows
        self.verdict = verdict
        self.mismatch_degree2 = mismatch_degree2

    def to_dict(self):
        out = {
            "model": self.model,
            "maxdeg2": self.maxdeg2,
            "rows": self.rows,
            "verdict": self.verdict,
        }
        if self.mismatch_degree2 is not None:
            out["mismatch_degree2"] = self.mismatch_degree2
        return out


def verify(model, maxdeg2=None, limit=None):
    """Compare spanning count / jet dimension / character degree by degree."""
    if isinstance(model, str):
        model = get_model(model)
    if maxdeg2 is None:
        maxdeg2 = model.default_maxdeg2
    spec = model.ring()
    kwargs = {} if limit is None else {"limit": limit}
    dims = jetquot.hilbert_series(spec, maxdeg2, **kwargs)
    char = model.character(maxdeg2)
    span = model.spanning_series(maxdeg2)
    rows = []
    mismatch = None
    for d in range(maxdeg2 + 1):
        row = {
            "degree2": d,
            "spanning": None if span is None else span[d],
            "jet_dim": dims[d],
            "character": None if char is None else char[d],
        }
        rows.append(row)
        if char is not None and mismatch is None and dims[d] != char[d]:
            mismatch = d
    verdict = "ISO_CONSISTENT" if mismatch is None else "MISMATCH"
    return VerificationReport(model.key, maxdeg2, rows, verdict, mismatch)


def matches_expectation(model, report):
    if isinstance(model, str):
        model = get_model(model)
    if report.verdict != model.expected:
        return False
    if model.expected == "MISMATCH":
        want = model.expected_mismatch_degree2
        if want is not None and report.maxdeg2 >= want:
            return report.mismatch_degree2 == want
    return True


# ---------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------

def _v(name, parity, weight2):
    return VariableSpec(name, parity, weight2)


def _lattice_ring(p):
    par = "odd" if p % 2 else "even"
    variables = (_v("x", par, p), _v("y", par, p), _v("z", "even", 2))

    def build():
        spec = RingSpec(variables, name="lattice:%d" % p)
        x, y, z = (spec.var(n) for n in "xyz")
        relations = (
            spec.mul(x, x),
            spec.mul(y, y),
            spec.sub(spec.mul(x, y), _power(spec, z, p)),
            spec.mul(x, z),
            spec.mul(y, z),
        )
        return RingSpec(variables, relations, name="lattice:%d" % p)

    return build


def _positive_lattice_ring(p):
    par = "odd" if p % 2 else "even"
    variables = (_v("x", par, p),)

    def build():
        spec = RingSpec(variables)
        x = spec.var("x")
        return RingSpec(variables, (spec.mul(x, x),),
                        name="positive_lattice:%d" % p)

    return build


def _n2_ring(variant):
    variables = (_v("gp", "odd", 3), _v("h", "even", 2), _v("gm", "odd", 3))

    def build():
        spec = RingSpec(variables)
        gp, h, gm = spec.var("gp"), spec.var("h"), spec.var("gm")
        relations = (
            spec.mul(gp, gp),
            spec.mul(gm, gm),
            spec.sub(spec.mul(gp, gm), _power(spec, h, 3)),
            spec.mul(gp, h),
            spec.mul(gm, h),
        )
        a = spec.atom
        extras = []
        if variant in ("ab", "abc"):
            extras.append(spec.poly([(1, (a("gp", 1), a("gp", 0)))]))
            extras.append(spec.poly([(1, (a("gm", 1), a("gm", 0)))]))
        if variant == "abc":
            extras.append(spec.poly([
                (1, (a("gm", 3),)),
                (Fraction(-1, 3), (a("h", 2), a("gm", 0))),
                (-1, (a("gm", 2), a("h", 0))),
                (Fraction(1, 3), (a("gm", 1), a("h", 0), a("h", 0))),
            ]))
        return RingSpec(variables, relations, tuple(extras),
                        name="n2_c1:%s" % variant)

    return build


def _n1_ring(k):
    variables = (_v("l", "even", 4), _v("g", "odd", 3))

    def build():
        spec = RingSpec(variables)
        l, g = spec.var("l"), spec.var("g")
        relations = (_power(spec, l, k), spec.mul(_power(spec, l, k - 1), g))
        return RingSpec(variables, relations, name="n1_minimal:%d" % k)

    return build


def _n1_odd_odd_ring():
    variables = (_v("l", "even", 4), _v("g", "odd", 3))

    def build():
        spec = RingSpec(variables)
        l = spec.var("l")
        return RingSpec(variables, (spec.mul(l, l),), name="n1_odd_odd:3:5")

    return build


def _virasoro_ring(k):
    variables = (_v("x", "even", 4),)

    def build():
        spec = RingSpec(variables)
        return RingSpec(variables, (_power(spec, spec.var("x"), k),),
                        name="virasoro_2_2k1:%d" % k)

    return build


def _graph_ring(key, nvert, edges):
    """edges: iterable of (i, j) with 1-based i <= j; (i, i) is a loop."""
    loops = {i for i, j in edges if i == j}
    variables = tuple(
        _v("x%d" % i, "odd" if i in loops else "even", 3 if i in loops else 2)
        for i in range(1, nvert + 1))

    def build():
        spec = RingSpec(variables)
        rels = tuple(
            spec.mul(spec.var("x%d" % i), spec.var("x%d" % j))
            for i, j in edges)
        return RingSpec(variables, rels, name=key)

    return build


def _fs_ring(n):
    variables = tuple(_v("x%d" % i, "even", 2) for i in range(1, n + 1))

    def build():
        spec = RingSpec(variables)
        rels = tuple(
            spec.mul(spec.var("x%d" % i), spec.var("x%d" % j))
            for i in range(1, n + 1) for j in range(i, n + 1))
        return RingSpec(variables, rels, name="fs_type:%d" % n)

    return build


def sln_root_pairs(n):
    """Ordered pairs of positive roots ((i1,j1),(i2,j2)), i1<=i2<j1<=j2,
    including the diagonal; exactly the index set of the quadratic
    relations (and of the cross terms of the B form)."""
    roots = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for r in roots:
        for s in roots:
            if r <= s and r[0] <= s[0] < r[1] <= s[1]:
                out.append((r, s))
    return out


def _sln_ring(n):
    roots = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    variables = tuple(_v("E%d%d" % r, "even", 2) for r in roots)

    def build():
        spec = RingSpec(variables)
        rels = []
        for (i1, j1), (i2, j2) in sln_root_pairs(n):
            a = spec.mul(spec.var("E%d%d" % (i1, j1)),
                         spec.var("E%d%d" % (i2, j2)))
            b = spec.mul(spec.var("E%d%d" % (i1, j2)),
                         spec.var("E%d%d" % (i2, j1)))
            rels.append(spec.add(a, b))
        return RingSpec(variables, tuple(rels), name="sln_principal:%d" % n)

    return build


_SL2_VARS = (_v("e", "even", 2), _v("f", "even", 2), _v("h", "even", 2))


def adjoint_generators_sl2(k):
    """The 2k+3 polynomials ad_f^i(e^{k+1}), i = 0..2k+2, in C[e,f,h].

    ad_f acts as the derivation determined by the brackets
    [h,e] = 2e, [h,f] = -2f, [e,f] = h, i.e. e -> -h, h -> 2f, f -> 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    spec = RingSpec(_SL2_VARS)
    image = {
        spec.atom("e"): spec.poly([(-1, (spec.atom("h"),))]),
        spec.atom("h"): spec.poly([(2, (spec.atom("f"),))]),
        spec.atom("f"): {},
    }
    gens = [spec.poly([(1, (spec.atom("e"),) * (k + 1))])]
    for _ in range(2 * k + 2):
        gens.append(spec.derivation(gens[-1], image.__getitem__))
    return gens


def _sl2_affine_ring(k):
    def build():
        rels = tuple(dict(g) for g in adjoint_generators_sl2(k))
        return RingSpec(_SL2_VARS, rels, name="sl2_affine:%d" % k)

    return build


def _ext_vir_ring(which):
    if which == "xy":
        variables = (_v("x", "even", 4), _v("y", "even", 4))
    else:
        variables = (_v("u", "even", 4), _v("v", "even", 4))

    def build():
        spec = RingSpec(variables)
        if which == "xy":
            x, y = spec.var("x"), spec.var("y")
            rels = (spec.mul(x, x), spec.mul(y, y))
        elif which == "uv_sum":
            u, v = spec.var("u"), spec.var("v")
            rels = (spec.mul(u, v),
                    spec.add(spec.mul(u, u), spec.mul(v, v)),
                    _power(spec, u, 3), _power(spec, v, 3))
        elif which == "uv_mixed":
            u, v = spec.var("u"), spec.var("v")
            rels = (spec.mul(u, u), _power(spec, v, 3), spec.mul(u, v))
        else:
            raise ValueError("unknown ext_vir flavor %r" % (which,))
        return RingSpec(variables, rels, name="ext_vir:%s" % which)

    return build


def _power(spec, poly, n):
    out = spec.poly([(1, ())])
    for _ in range(n):
        out = spec.mul(out, poly)
    return out


# ---------------------------------------------------------------------
# Formula key dispatch (characters and the expand command)
# ---------------------------------------------------------------------

_GRAPH_SHAPES = {
    "A1": (1, []), "A2": (2, [(1, 2)]), "A3": (3, [(1, 2), (2, 3)]),
    "A4": (4, [(1, 2), (2, 3), (3, 4)]),
    "A5": (5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
    "A6": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
    "C3": (3, [(1, 2), (2, 3), (1, 3)]),
    "C5": (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    "L1": (1, [(1, 1)]),
}


def qseries_formula(key, maxdeg2):
    """Resolve a formula key like "theta:3" or "jm:A4" to a QSeries."""
    parts = key.split(":")
    head, args = parts[0], parts[1:]
    try:
        if head == "theta" and len(args) == 1:
            return qseries.theta_over_eta(int(args[0]), maxdeg2)
        if head == "poch" and len(args) == 1:
            n = args[0] if args[0] == "inf" else int(args[0])
            return qseries.pochhammer(n, maxdeg2)
        if head == "invpoch" and len(args) == 1:
            n = args[0] if args[0] == "inf" else int(args[0])
            return qseries.inv_pochhammer(n, maxdeg2)
        if head == "jm" and len(args) == 1:
            return qseries.jm_closed(args[0], maxdeg2)
        if head == "jm2" and len(args) == 1:
            return qseries.jm2_closed(args[0], maxdeg2)
        if head == "graphsum" and len(args) == 1:
            nvert, edges = _GRAPH_SHAPES[args[0]]
            loops = [False] * nvert
            simple = []
            for i, j in edges:
                if i == j:
                    loops[i - 1] = True
                else:
                    simple.append((i - 1, j - 1))
            return qseries.graph_sum(simple, loops, maxdeg2)
        if head == "ml" and len(args) == 2:
            n = int(args[0][2:])  # "sl3" -> 3
            if args[1] == "lhs":
                return qseries.ml_lhs(n, maxdeg2)
            if args[1] == "rhs":
                return qseries.ml_rhs(n - 1, maxdeg2)
        if head == "n1product" and len(args) == 1:
            return qseries.n1_product(int(args[0]), maxdeg2)
        if head == "n1char" and len(args) == 2:
            return qseries.n1_character(int(args[0]), int(args[1]), maxdeg2)
        if head == "singlelattice" and len(args) == 1:
            return qseries.single_lattice_sum(int(args[0]), maxdeg2)
        if head == "rr" and not args:
            return qseries.rr_sum(maxdeg2)
        if head == "ag" and len(args) == 1:
            return qseries.ag_sum(int(args[0]), maxdeg2)
        if head == "fs" and len(args) == 1:
            return qseries.fs_sum(int(args[0]), maxdeg2)
        if head == "extvir" and args == ["pair"]:
            return qseries.ext_vir_pair_sum(maxdeg2)
        if head == "extvir" and args == ["triple"]:
            return qseries.ext_vir_triple_sum(maxdeg2)
        if head == "fermion" and not args:
            return qseries.fermion_product(maxdeg2)
    except (KeyError, ValueError) as exc:
        raise KeyError("bad formula key %r: %s" % (key, exc))
    raise KeyError("unknown formula key %r" % (key,))


FORMULA_KEYS = (
    ["theta:2", "theta:3", "poch:0", "poch:2", "poch:inf", "invpoch:inf",
     "rr", "fermion", "extvir:pair", "extvir:triple"]
    + ["jm:A%d" % i for i in range(2, 7)] + ["jm2:C3", "jm2:C5"]
    + ["graphsum:%s" % g for g in sorted(_GRAPH_SHAPES)]
    + ["ml:sl3:lhs", "ml:sl3:rhs", "ml:sl4:lhs", "ml:sl4:rhs"]
    + ["n1product:2", "n1product:3", "n1char:3:5", "ag:2", "ag:3",
       "singlelattice:2", "singlelattice:3", "fs:2", "fs:3"]
)


# ---------------------------------------------------------------------
# Spanning rules
# ---------------------------------------------------------------------

def _single_color_rules(weight2, odd, diffs):
    return combinat.ColoredRules([("x", weight2, odd)],
                                 {"x": tuple(diffs)} if diffs else {})


def _graph_rules(key):
    nvert, edges = _GRAPH_SHAPES[key]
    loops = {i for i, j in edges if i == j}
    colors = [("x%d" % i, 3 if i in loops else 2, i in loops)
              for i in range(1, nvert + 1)]
    bounds = [("x%d" % i, "x%d" % j) for i, j in edges if i != j]
    return combinat.ColoredRules(colors, {}, bounds)


def _fs_rules(n):
    colors = [("x%d" % i, 2, False) for i in range(1, n + 1)]
    diffs = {name: ((1, 4),) for name, _, _ in colors}
    bounds = [("x%d" % i, "x%d" % j)
              for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return combinat.ColoredRules(colors, diffs, bounds)


def _sln_rules(n):
    colors = [("E%d%d" % (i, j), 2, False)
              for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    diffs = {name: ((1, 4),) for name, _, _ in colors}
    bounds = [("E%d%d" % r, "E%d%d" % s)
              for r, s in sln_root_pairs(n) if r != s]
    return combinat.ColoredRules(colors, diffs, bounds)


def _ext_vir_rules(which):
    if which == "xy":
        return combinat.ColoredRules(
            [("x", 4, False), ("y", 4, False)],
            {"x": ((1, 4),), "y": ((1, 4),)})
    if which == "uv_mixed":
        return combinat.ColoredRules(
            [("u", 4, False), ("v", 4, False)],
            {"u": ((1, 4),), "v": ((2, 4),)}, [("u", "v")])
    return None


# ---------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------

REGISTRY = {}


def _register(model):
    if model.key in REGISTRY:
        raise ValueError("duplicate model key %r" % model.key)
    REGISTRY[model.key] = model


def get_model(key):
    try:
        return REGISTRY[key]
    except KeyError:
        raise KeyError("unknown model key %r" % (key,))


def model_keys():
    return sorted(REGISTRY)


def _build_registry():
    # Matches the level-1 affine sl2 picture.
    _register(Model(
        "lattice:2",
        "rank-one even lattice, norm 2: x,y,z even; jets match theta:2",
        _lattice_ring(2), "theta:2", None, "ISO_CONSISTENT", None, 16))
    # Jet dimensions exceed the lattice character from degree2=8.
    _register(Model(
        "lattice:3",
        "rank-one odd lattice, norm 3: x,y odd squares vanish identically",
        _lattice_ring(3), "theta:3", None, "MISMATCH", 8, 14))
    _register(Model(
        "positive_lattice:2",
        "single norm-2 generator, <x^2>: Rogers-Ramanujan jets",
        _positive_lattice_ring(2), "singlelattice:2",
        _single_color_rules(2, False, [(1, 4)]), "ISO_CONSISTENT", None, 40))
    # Difference-3 counts are not reachable by a quadratic relation.
    _register(Model(
        "positive_lattice:3",
        "single norm-3 generator: odd square vanishes, sum needs gap 3",
        _positive_lattice_ring(3), "singlelattice:3", None,
        "MISMATCH", 8, 40))
    _register(Model(
        "positive_lattice:4",
        "single norm-4 generator with a quadratic relation only",
        _positive_lattice_ring(4), "singlelattice:4", None,
        "MISMATCH", 12, 40))
    # n2_c1:abc is Hilbert series only: the theta:3 character exceeds its
    # jet dimensions at degree2=9, so no character is registered.
    for variant, extras_desc in (("bare", "no extra generators"),
                                 ("ab", "extras a, b"),
                                 ("abc", "extras a, b, c")):
        _register(Model(
            "n2_c1:%s" % variant,
            "two supercurrents and a current, c=1 presentation, " + extras_desc,
            _n2_ring(variant),
            None if variant == "abc" else "theta:3",
            combinat.GhRules() if variant in ("ab", "abc") else None,
            "MISMATCH" if variant == "bare" else "ISO_CONSISTENT",
            8 if variant == "bare" else None,
            12))
    _register(Model(
        "n1_minimal:2", "one even and one odd generator, <l^2, l g>",
        _n1_ring(2), "n1product:2", combinat.Dk1Rules(2),
        "ISO_CONSISTENT", None, 24))
    _register(Model(
        "n1_minimal:3", "one even and one odd generator, <l^3, l^2 g>",
        _n1_ring(3), "n1product:3", combinat.Dk1Rules(3),
        "ISO_CONSISTENT", None, 24))
    # The (3,5) character is not presented by <l^2>.
    _register(Model(
        "n1_odd_odd:3:5",
        "both-odd minimal pair (3,5): quadratic relation only",
        _n1_odd_odd_ring(), "n1char:3:5", None, "MISMATCH", 9, 16))
    _register(Model(
        "virasoro_2_2k1:2", "single even weight-4 generator, <x^2>",
        _virasoro_ring(2), "ag:2", _single_color_rules(4, False, [(1, 4)]),
        "ISO_CONSISTENT", None, 40))
    _register(Model(
        "virasoro_2_2k1:3", "single even weight-4 generator, <x^3>",
        _virasoro_ring(3), "ag:3", _single_color_rules(4, False, [(2, 4)]),
        "ISO_CONSISTENT", None, 40))
    for gkey, desc, dflt in (
            ("A1", "single vertex, no relation", 40),
            ("A2", "path on 2 vertices", 20),
            ("A3", "path on 3 vertices", 20),
            ("A4", "path on 4 vertices", 20),
            ("A5", "path on 5 vertices", 14),
            ("A6", "path on 6 vertices", 12),
            ("C3", "cycle on 3 vertices", 16),
            ("C5", "cycle on 5 vertices", 12),
            ("L1", "single vertex with a loop (odd generator)", 40)):
        nvert, edges = _GRAPH_SHAPES[gkey]
        _register(Model(
            "graph:%s" % gkey, "graph model: " + desc,
            _graph_ring("graph:%s" % gkey, nvert, edges),
            "graphsum:%s" % gkey, _graph_rules(gkey),
            "ISO_CONSISTENT", None, dflt))
    _register(Model(
        "fs_type:2", "all quadratic monomials in 2 even generators",
        _fs_ring(2), "fs:2", _fs_rules(2), "ISO_CONSISTENT", None, 20))
    _register(Model(
        "fs_type:3", "all quadratic monomials in 3 even generators",
        _fs_ring(3), "fs:3", _fs_rules(3), "ISO_CONSISTENT", None, 14))
    _register(Model(
        "sln_principal:3", "upper-triangular coordinates, symmetrized products",
        _sln_ring(3), "ml:sl3:rhs", _sln_rules(3), "ISO_CONSISTENT", None, 16))
    _register(Model(
        "sln_principal:4", "upper-triangular coordinates, symmetrized products",
        _sln_ring(4), "ml:sl4:rhs", _sln_rules(4), "ISO_CONSISTENT", None, 14))
    _register(Model(
        "sl2_affine:1", "adjoint-orbit generators of e^2 in C[e,f,h]",
        _sl2_affine_ring(1), "theta:2", None, "ISO_CONSISTENT", None, 14))
    # Hilbert series only.
    _register(Model(
        "sl2_affine:2", "adjoint-orbit generators of e^3 in C[e,f,h]",
        _sl2_affine_ring(2), None, None, "ISO_CONSISTENT", None, 12))
    for which in ("xy", "uv_sum", "uv_mixed"):
        _register(Model(
            "ext_vir:%s" % which,
            "two even weight-4 generators, flavor " + which,
            _ext_vir_ring(which), "extvir:pair", _ext_vir_rules(which),
            "ISO_CONSISTENT", None, 20))


_build_registry()


# ---------------------------------------------------------------------
# Text registry files
# ---------------------------------------------------------------------

def load_registry_file(path):
    """Parse a text registry of extra models.

    Record grammar (blank lines and '#' comments ignored)::

        [model KEY]
        description TEXT
        variable NAME even|odd WEIGHT2
        relation POLY          # e.g. 3/2 * x1(-1)^2 * g1(-3/2)
        extra POLY
        character FORMULA_KEY  # optional, e.g. theta:2
        expect ISO_CONSISTENT | MISMATCH | MISMATCH@DEG2
        maxdeg2 N

    Returns a dict key -> Model.  Every ring is built while the file
    loads, so a relation that does not parse, divides by zero or is not
    homogeneous raises ValueError naming the file and the model.
    """
    records = []
    current = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[model") and line.endswith("]"):
                key = line[len("[model"):-1].strip()
                if not key:
                    raise ValueError("%s:%d: missing model key" % (path, lineno))
                current = {"key": key, "variables": [], "relations": [],
                           "extras": [], "description": "", "character": None,
                           "expect": "ISO_CONSISTENT", "mismatch": None,
                           "maxdeg2": 16}
                records.append(current)
                continue
            if current is None:
                raise ValueError("%s:%d: content before [model ...]"
                                 % (path, lineno))
            field, _, rest = line.partition(" ")
            rest = rest.strip()
            if field == "description":
                current["description"] = rest
            elif field == "variable":
                bits = rest.split()
                if len(bits) != 3 or bits[1] not in ("even", "odd"):
                    raise ValueError("%s:%d: bad variable line" % (path, lineno))
                current["variables"].append(
                    VariableSpec(bits[0], bits[1], int(bits[2])))
            elif field in ("relation", "extra"):
                current[field + "s"].append(rest)
            elif field == "character":
                current["character"] = None if rest == "none" else rest
            elif field == "expect":
                verdict, _, deg = rest.partition("@")
                if verdict not in ("ISO_CONSISTENT", "MISMATCH"):
                    raise ValueError("%s:%d: bad verdict %r"
                                     % (path, lineno, verdict))
                current["expect"] = verdict
                current["mismatch"] = int(deg) if deg else None
            elif field == "maxdeg2":
                current["maxdeg2"] = int(rest)
            else:
                raise ValueError("%s:%d: unknown field %r"
                                 % (path, lineno, field))
    out = {}
    for rec in records:
        out[rec["key"]] = _record_to_model(path, rec)
    return out


def _record_to_model(path, rec):
    """A Model whose ring is built and validated now, not at first use."""
    variables = tuple(rec["variables"])
    if not variables:
        raise ValueError("model %s has no variables" % rec["key"])
    try:
        base = RingSpec(variables)
        rels = tuple(base.parse_poly(s) for s in rec["relations"])
        extras = tuple(base.parse_poly(s) for s in rec["extras"])
        spec = RingSpec(variables, rels, extras, name=rec["key"])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("%s: model %s: %s: %s"
                         % (path, rec["key"], type(exc).__name__, exc))
    if rec["character"] is not None:
        qseries_formula(rec["character"], 0)  # validate the key early
    return Model(rec["key"], rec["description"] or "user model", lambda: spec,
                 rec["character"], None, rec["expect"], rec["mismatch"],
                 rec["maxdeg2"])
