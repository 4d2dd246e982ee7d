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

from itertools import combinations_with_replacement

from . import combinat, jetquot, qseries
from .qseries import sln_root_pairs
from .superring import RingSpec, VariableSpec, _halves


class Model:
    """A registered presentation and what ``verify`` compares it with.

    ``variables`` are ``(name, parity, weight2)`` triples; ``relations``
    and ``extras`` are polynomial texts in the grammar of
    :meth:`RingSpec.parse_poly`, the one that registry files use.
    """

    def __init__(self, key, description, variables, relations=(), extras=(),
                 character_key=None, spanning=None, expected="ISO_CONSISTENT",
                 expected_mismatch_degree2=None, default_maxdeg2=16):
        self.key = key
        self.description = description
        self.variables = tuple(variables)
        self.relations = tuple(relations)
        self.extras = tuple(extras)
        self.character_key = character_key
        self.spanning = spanning
        self.expected = expected
        self.expected_mismatch_degree2 = expected_mismatch_degree2
        self.default_maxdeg2 = default_maxdeg2
        self._ring = None

    def ring(self):
        """The RingSpec named ``key``, parsed at first use and then cached."""
        if self._ring is None:
            base = RingSpec(VariableSpec(*v) for v in self.variables)
            self._ring = RingSpec(
                base.variables,
                tuple(base.parse_poly(s) for s in self.relations),
                tuple(base.parse_poly(s) for s in self.extras),
                name=self.key)
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


def verify(model, maxdeg2=None, limit=jetquot.DEFAULT_MONOMIAL_LIMIT):
    """Compare spanning count / jet dimension / character degree by degree."""
    if isinstance(model, str):
        model = get_model(model)
    if maxdeg2 is None:
        maxdeg2 = model.default_maxdeg2
    dims = jetquot.hilbert_series(model.ring(), maxdeg2, limit)
    char = model.character(maxdeg2)
    span = model.spanning_series(maxdeg2)
    rows = [{"degree2": d,
             "spanning": None if span is None else span[d],
             "jet_dim": dims[d],
             "character": None if char is None else char[d]}
            for d in range(maxdeg2 + 1)]
    mismatch = (None if char is None
                else char.first_difference(qseries.QSeries(maxdeg2, dims)))
    verdict = "ISO_CONSISTENT" if mismatch is None else "MISMATCH"
    return VerificationReport(model.key, maxdeg2, rows, verdict, mismatch)


def matches_expectation(model, report):
    """Whether ``report`` reads as ``model`` expects: its verdict and, for
    an expected MISMATCH@d, a first mismatch at d, however far it ran."""
    if isinstance(model, str):
        model = get_model(model)
    if report.verdict != model.expected:
        return False
    if model.expected == "MISMATCH":
        want = model.expected_mismatch_degree2
        if want is not None:
            return report.mismatch_degree2 == want
    return True


# ---------------------------------------------------------------------
# Presentations, as texts in the grammar of RingSpec.parse_poly
# ---------------------------------------------------------------------

def _lattice(p):
    """x, y of doubled weight p (odd for odd p), z even of weight 1:
    x^2, y^2, xy - z^p, xz, yz."""
    par = "odd" if p % 2 else "even"
    x, y = "x(-%s)" % _halves(p), "y(-%s)" % _halves(p)
    return ((("x", par, p), ("y", par, p), ("z", "even", 2)),
            (x + "^2", y + "^2", "%s*%s - z(-1)^%d" % (x, y, p),
             x + "*z(-1)", y + "*z(-1)"))


def _graph(shape):
    """One generator per vertex (see :func:`_graph_vertices`); one relation
    x_i x_j per edge (i, j)."""
    variables, edges = _graph_vertices(shape)
    atom = ["%s(-%s)" % (name, _halves(w2)) for name, _, w2 in variables]
    return (variables,
            tuple("%s*%s" % (atom[i - 1], atom[j - 1]) for i, j in edges))


def _graph_vertices(shape):
    """The vertex variables x1..xn of a graph shape and its edges (i, j):
    a loop vertex is odd of weight 3/2, any other vertex even of weight 1."""
    if shape not in _GRAPH_SHAPES:
        raise KeyError("unknown graph shape %r (known: %s)"
                       % (shape, ", ".join(sorted(_GRAPH_SHAPES))))
    nvert, edges = _GRAPH_SHAPES[shape]
    loops = {i for i, j in edges if i == j}
    return (tuple(("x%d" % i,) + (("odd", 3) if i in loops else ("even", 2))
                  for i in range(1, nvert + 1)), edges)


def _quadratic(names, pairs, relations):
    """Model fields for even weight-1 generators ``names`` with one
    quadratic relation per pair of names: the spanning rule has difference
    2 within each colour and a boundary for each pair of distinct colours."""
    return {"variables": [(x, "even", 2) for x in names],
            "relations": relations,
            "spanning": combinat.ColoredRules(
                [(x, 2, False) for x in names],
                dict.fromkeys(names, ((1, 4),)),
                [(a, b) for a, b in pairs if a != b])}


def _fs(n):
    """n even generators of weight 1 and every quadratic monomial."""
    names = ["x%d" % i for i in range(1, n + 1)]
    pairs = list(combinations_with_replacement(names, 2))
    return _quadratic(names, pairs, ["%s(-1)*%s(-1)" % p for p in pairs])


def _sln(n):
    """E_ij (i < j) even of weight 1; E_{i1 j1} E_{i2 j2} + E_{i1 j2} E_{i2 j1}
    for every root pair."""
    pairs = sln_root_pairs(n)
    return _quadratic(
        ["E%d%d" % r for r, s in pairs if r == s],
        [("E%d%d" % r, "E%d%d" % s) for r, s in pairs],
        ["E%d%d(-1)*E%d%d(-1) + E%d%d(-1)*E%d%d(-1)"
         % (i1, j1, i2, j2, i1, j2, i2, j1) for (i1, j1), (i2, j2) in pairs])


_N2_VARS = (("gp", "odd", 3), ("h", "even", 2), ("gm", "odd", 3))
_N2_RELS = ("gp(-3/2)^2", "gm(-3/2)^2", "gp(-3/2)*gm(-3/2) - h(-1)^3",
            "gp(-3/2)*h(-1)", "gm(-3/2)*h(-1)")
_N2_AB = ("gp(-5/2)*gp(-3/2)", "gm(-5/2)*gm(-3/2)")
_N2_C = ("gm(-9/2) - 1/3*h(-3)*gm(-3/2) - gm(-7/2)*h(-1)"
         " + 1/3*gm(-5/2)*h(-1)^2")
_N1_VARS = (("l", "even", 4), ("g", "odd", 3))
_SL2_VARS = (("e", "even", 2), ("f", "even", 2), ("h", "even", 2))


def adjoint_generators_sl2(k):
    """The 2k+3 polynomials ad_f^i(e^{k+1}), i = 0..2k+2, in C[e,f,h].

    ad_f acts as the derivation determined by the brackets
    [h,e] = 2e, [h,f] = -2f, [e,f] = h, i.e. e -> -h, h -> 2f, f -> 0.
    The relation texts of ``sl2_affine:1`` and ``sl2_affine:2`` are these
    polynomials written out.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    spec = RingSpec(VariableSpec(*v) for v in _SL2_VARS)
    image = {
        spec.atom("e"): spec.poly([(-1, (spec.atom("h"),))]),
        spec.atom("h"): spec.poly([(2, (spec.atom("f"),))]),
        spec.atom("f"): {},
    }
    gens = [spec.poly([(1, (spec.atom("e"),) * (k + 1))])]
    for _ in range(2 * k + 2):
        gens.append(spec.derivation(gens[-1], image.__getitem__))
    return gens


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
            variables, edges = _graph_vertices(args[0])
            return qseries.graph_sum(
                [(i - 1, j - 1) for i, j in edges if i != j],
                [parity == "odd" for _, parity, _ in variables], maxdeg2)
        if head == "ml" and len(args) == 2 and args[0].startswith("sl"):
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
            return qseries.free_product([(1, "odd")], maxdeg2)
    except (KeyError, ValueError) as exc:
        raise KeyError("bad formula key %r: %s" % (key, exc.args[0]))
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
    variables, edges = _graph_vertices(key)
    names = [name for name, _, _ in variables]
    return combinat.ColoredRules(
        [(name, w2, parity == "odd") for name, parity, w2 in variables], {},
        [(names[i - 1], names[j - 1]) for i, j in edges if i != j])


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
        *_lattice(2), character_key="theta:2"))
    # Jet dimensions exceed the lattice character from degree2=8.
    _register(Model(
        "lattice:3",
        "rank-one odd lattice, norm 3: x,y odd squares vanish identically",
        *_lattice(3), character_key="theta:3", expected="MISMATCH",
        expected_mismatch_degree2=8, default_maxdeg2=14))
    _register(Model(
        "positive_lattice:2",
        "single norm-2 generator, <x^2>: Rogers-Ramanujan jets",
        [("x", "even", 2)], ["x(-1)^2"], character_key="singlelattice:2",
        spanning=_single_color_rules(2, False, [(1, 4)]), default_maxdeg2=40))
    # Difference-3 counts are not reachable by a quadratic relation.
    _register(Model(
        "positive_lattice:3",
        "single norm-3 generator: odd square vanishes, sum needs gap 3",
        [("x", "odd", 3)], ["x(-3/2)^2"], character_key="singlelattice:3",
        expected="MISMATCH", expected_mismatch_degree2=8, default_maxdeg2=40))
    _register(Model(
        "positive_lattice:4",
        "single norm-4 generator with a quadratic relation only",
        [("x", "even", 4)], ["x(-2)^2"], character_key="singlelattice:4",
        expected="MISMATCH", expected_mismatch_degree2=12, default_maxdeg2=40))
    # n2_c1:abc is Hilbert series only: the theta:3 character exceeds its
    # jet dimensions at degree2=9, so no character is registered.
    for variant, extras_desc, extras in (
            ("bare", "no extra generators", ()),
            ("ab", "extras a, b", _N2_AB),
            ("abc", "extras a, b, c", _N2_AB + (_N2_C,))):
        _register(Model(
            "n2_c1:%s" % variant,
            "two supercurrents and a current, c=1 presentation, " + extras_desc,
            _N2_VARS, _N2_RELS, extras,
            None if variant == "abc" else "theta:3",
            combinat.GhRules() if variant in ("ab", "abc") else None,
            "MISMATCH" if variant == "bare" else "ISO_CONSISTENT",
            8 if variant == "bare" else None,
            12))
    _register(Model(
        "n1_minimal:2", "one even and one odd generator, <l^2, l g>",
        _N1_VARS, ["l(-2)^2", "l(-2)*g(-3/2)"], character_key="n1product:2",
        spanning=combinat.Dk1Rules(2), default_maxdeg2=24))
    _register(Model(
        "n1_minimal:3", "one even and one odd generator, <l^3, l^2 g>",
        _N1_VARS, ["l(-2)^3", "l(-2)^2*g(-3/2)"], character_key="n1product:3",
        spanning=combinat.Dk1Rules(3), default_maxdeg2=24))
    # The (3,5) character is not presented by <l^2>.
    _register(Model(
        "n1_odd_odd:3:5",
        "both-odd minimal pair (3,5): quadratic relation only",
        _N1_VARS, ["l(-2)^2"], character_key="n1char:3:5",
        expected="MISMATCH", expected_mismatch_degree2=9))
    _register(Model(
        "virasoro_2_2k1:2", "single even weight-4 generator, <x^2>",
        [("x", "even", 4)], ["x(-2)^2"], character_key="ag:2",
        spanning=_single_color_rules(4, False, [(1, 4)]), default_maxdeg2=40))
    _register(Model(
        "virasoro_2_2k1:3", "single even weight-4 generator, <x^3>",
        [("x", "even", 4)], ["x(-2)^3"], character_key="ag:3",
        spanning=_single_color_rules(4, False, [(2, 4)]), default_maxdeg2=40))
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
        _register(Model(
            "graph:%s" % gkey, "graph model: " + desc, *_graph(gkey),
            character_key="graphsum:%s" % gkey, spanning=_graph_rules(gkey),
            default_maxdeg2=dflt))
    _register(Model(
        "fs_type:2", "all quadratic monomials in 2 even generators",
        character_key="fs:2", default_maxdeg2=20, **_fs(2)))
    _register(Model(
        "fs_type:3", "all quadratic monomials in 3 even generators",
        character_key="fs:3", default_maxdeg2=14, **_fs(3)))
    _register(Model(
        "sln_principal:3", "upper-triangular coordinates, symmetrized products",
        character_key="ml:sl3:rhs", **_sln(3)))
    _register(Model(
        "sln_principal:4", "upper-triangular coordinates, symmetrized products",
        character_key="ml:sl4:rhs", default_maxdeg2=14, **_sln(4)))
    # Relations: adjoint_generators_sl2(1), ad_f^i(e^2) for i = 0..4.
    _register(Model(
        "sl2_affine:1", "adjoint-orbit generators of e^2 in C[e,f,h]",
        _SL2_VARS,
        ["e(-1)^2", "-2*e(-1)*h(-1)", "2*h(-1)^2 - 4*e(-1)*f(-1)",
         "12*f(-1)*h(-1)", "24*f(-1)^2"],
        character_key="theta:2", default_maxdeg2=14))
    # Hilbert series only.  Relations: adjoint_generators_sl2(2).
    _register(Model(
        "sl2_affine:2", "adjoint-orbit generators of e^3 in C[e,f,h]",
        _SL2_VARS,
        ["e(-1)^3", "-3*e(-1)^2*h(-1)",
         "6*e(-1)*h(-1)^2 - 6*e(-1)^2*f(-1)",
         "-6*h(-1)^3 + 36*e(-1)*f(-1)*h(-1)",
         "-72*f(-1)*h(-1)^2 + 72*e(-1)*f(-1)^2",
         "-360*f(-1)^2*h(-1)", "-720*f(-1)^3"],
        default_maxdeg2=12))
    for which, names, relations in (
            ("xy", "xy", ["x(-2)^2", "y(-2)^2"]),
            ("uv_sum", "uv", ["u(-2)*v(-2)", "u(-2)^2 + v(-2)^2", "u(-2)^3",
                              "v(-2)^3"]),
            ("uv_mixed", "uv", ["u(-2)^2", "v(-2)^3", "u(-2)*v(-2)"])):
        _register(Model(
            "ext_vir:%s" % which,
            "two even weight-4 generators, flavor " + which,
            [(v, "even", 4) for v in names], relations,
            character_key="extvir:pair", spanning=_ext_vir_rules(which),
            default_maxdeg2=20))


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

    A field the record leaves out takes the default of :class:`Model`; the
    description defaults to "user model".  Returns a dict key -> Model; a
    key given twice, or with whitespace in it, is an error.  Every ring is
    built while the file loads, so a relation that does not parse, divides
    by zero or is not homogeneous raises ValueError naming the file and
    the model.
    """
    records = []
    current = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                head = line[1:-1].split()
                if head[:1] != ["model"] or len(head) > 2:
                    raise ValueError("%s:%d: bad header %r, want [model KEY]"
                                     % (path, lineno, line))
                if len(head) < 2:
                    raise ValueError("%s:%d: missing model key" % (path, lineno))
                key = head[1]
                if any(rec["key"] == key for rec in records):
                    raise ValueError("%s:%d: duplicate model key %r"
                                     % (path, lineno, key))
                current = {"key": key, "variables": [], "relations": [],
                           "extras": []}
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
                current["variables"].append((bits[0], bits[1], _int_field(
                    path, lineno, "variable weight2", bits[2])))
            elif field in ("relation", "extra"):
                current[field + "s"].append(rest)
            elif field == "character":
                current["character_key"] = None if rest == "none" else rest
            elif field == "expect":
                verdict, _, deg = rest.partition("@")
                if verdict not in ("ISO_CONSISTENT", "MISMATCH"):
                    raise ValueError("%s:%d: bad verdict %r"
                                     % (path, lineno, verdict))
                current["expected"] = verdict
                current["expected_mismatch_degree2"] = _int_field(
                    path, lineno, "expect degree2", deg) if deg else None
            elif field == "maxdeg2":
                maxdeg2 = _int_field(path, lineno, "maxdeg2", rest)
                if maxdeg2 < 0:
                    raise ValueError("%s:%d: maxdeg2 must be >= 0, got %d"
                                     % (path, lineno, maxdeg2))
                current["default_maxdeg2"] = maxdeg2
            else:
                raise ValueError("%s:%d: unknown field %r"
                                 % (path, lineno, field))
    out = {}
    for rec in records:
        out[rec["key"]] = _record_to_model(path, rec)
    return out


def _int_field(path, lineno, field, text):
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s:%d: %s must be an integer, got %r"
                         % (path, lineno, field, text)) from None


def _record_to_model(path, rec):
    """A Model whose ring is built and validated now, not at first use.

    Every failure is a ValueError ``PATH: model KEY: MESSAGE``."""
    where = "%s: model %s: " % (path, rec["key"])
    if not rec["variables"]:
        raise ValueError(where + "no variables")
    rec["description"] = rec.get("description") or "user model"
    model = Model(**rec)
    try:
        model.ring()
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(where + "%s: %s" % (type(exc).__name__, exc))
    if model.character_key is not None:
        try:
            qseries_formula(model.character_key, 0)  # validate the key early
        except KeyError as exc:
            raise ValueError(where + exc.args[0]) from None
    return model
