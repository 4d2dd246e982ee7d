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

The 31 built-in models are the records of the package data file
``registry.txt``, read at import by the record parser that
:func:`load_registry_file` uses for a user's file; a built-in ring is
built at its first use.
"""

import os

from . import combinat, jetquot, qseries
from .superring import RingSpec, VariableSpec


class Model:
    """A registered presentation and what ``verify`` compares it with.

    ``variables`` are ``(name, parity, weight2)`` triples; ``relations``
    and ``extras`` are polynomial texts in the grammar of
    :meth:`RingSpec.parse_poly`, the one that registry files use.
    ``spanning`` is a rule of :mod:`jetchar.combinat`, or ``"colored"`` for
    the colored rule read off the relations.
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
        self._spanning = spanning
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

    @property
    def spanning(self):
        """The spanning rule; ``"colored"`` is read off ``ring()`` at first
        use, by :meth:`~jetchar.combinat.ColoredRules.of_ring`."""
        if self._spanning == "colored":
            self._spanning = combinat.ColoredRules.of_ring(self.ring())
        return self._spanning

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
    """Compare spanning count / jet dimension / character degree by degree;
    a negative ``maxdeg2`` is refused before any work."""
    if isinstance(model, str):
        model = get_model(model)
    if maxdeg2 is None:
        maxdeg2 = model.default_maxdeg2
    if maxdeg2 < 0:
        raise ValueError("maxdeg2 must be >= 0, got %d" % maxdeg2)
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
# Formula key dispatch (characters and the expand command)
# ---------------------------------------------------------------------

def qseries_formula(key, maxdeg2, limit=jetquot.DEFAULT_MONOMIAL_LIMIT):
    """Resolve a formula key like "theta:3" or "jm:A4" to a QSeries; a
    fermionic sum holds at most ``limit`` states per level."""
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
            if args[0] not in _GRAPHS:
                raise KeyError("unknown graph shape %r (known: %s)"
                               % (args[0], ", ".join(_GRAPHS)))
            rules = REGISTRY["graph:" + args[0]].spanning
            names = [name for name, _, _ in rules.colors]
            return qseries.graph_sum(
                [tuple(map(names.index, edge)) for edge in rules.boundaries],
                [odd for _, _, odd in rules.colors], maxdeg2, limit)
        if head == "ml" and len(args) == 2 and args[0].startswith("sl"):
            n = int(args[0][2:])  # "sl3" -> 3
            if args[1] == "lhs":
                return qseries.ml_lhs(n, maxdeg2, limit)
            if args[1] == "rhs":
                return qseries.ml_rhs(n - 1, maxdeg2, limit)
        if head == "n1product" and len(args) == 1:
            return qseries.n1_product(int(args[0]), maxdeg2)
        if head == "n1char" and len(args) == 2:
            return qseries.n1_character(int(args[0]), int(args[1]), maxdeg2)
        if head == "singlelattice" and len(args) == 1:
            return qseries.single_lattice_sum(int(args[0]), maxdeg2, limit)
        if head == "rr" and not args:
            return qseries.single_lattice_sum(2, maxdeg2, limit)
        if head == "ag" and len(args) == 1:
            return qseries.ag_sum(int(args[0]), maxdeg2, limit)
        if head == "fs" and len(args) == 1:
            return qseries.fs_sum(int(args[0]), maxdeg2, limit)
        if head == "extvir" and args == ["pair"]:
            return qseries.ext_vir_pair_sum(maxdeg2, limit)
        if head == "extvir" and args == ["triple"]:
            return qseries.ext_vir_triple_sum(maxdeg2, limit)
        if head == "fermion" and not args:
            return qseries.free_product([(1, "odd")], maxdeg2)
    except (KeyError, ValueError) as exc:
        raise KeyError("bad formula key %r: %s" % (key, exc.args[0]))
    raise KeyError("unknown formula key %r" % (key,))


# ---------------------------------------------------------------------
# Registry text: the built-in models and user files, in one grammar
# ---------------------------------------------------------------------

def get_model(key):
    try:
        return REGISTRY[key]
    except KeyError:
        raise KeyError("unknown model key %r" % (key,))


def model_keys():
    return sorted(REGISTRY)


def load_registry_file(path):
    """Parse a text registry of extra models.

    Record grammar (blank lines and '#' comments ignored)::

        [model KEY]
        description TEXT
        variable NAME even|odd WEIGHT2
        relation POLY          # e.g. 3/2 * x1(-1)^2 * g1(-3/2)
        extra POLY
        character FORMULA_KEY  # optional, e.g. theta:2
        spanning colored | gh | dk1 K
        graph N I-J ...        # e.g. graph 3 1-2 2-3
        expect ISO_CONSISTENT | MISMATCH | MISMATCH@DEG2
        maxdeg2 N

    A field the record leaves out takes the default of :class:`Model`; the
    description defaults to "user model".  ``variable``, ``relation`` and
    ``extra`` repeat; any other field given twice is an error.
    ``spanning`` names the spanning rule: ``colored`` is the
    :class:`~jetchar.combinat.ColoredRules` that
    :meth:`~jetchar.combinat.ColoredRules.of_ring` reads off the leading
    monomials of the relations (a power gives a difference condition, a
    product of two variables a boundary condition); ``gh`` is
    :class:`~jetchar.combinat.GhRules` and ``dk1 K`` is
    ``Dk1Rules(K)``.  A ``graph`` line states a graph vertex algebra: N
    vertices ``x1``..``xN``, one edge per ``I-J``, a loop ``I-I`` making
    vertex I odd of weight2 3 and every other vertex even of weight2 2.
    It stands for those variables, one relation ``xI(-1)*xJ(-1)`` per edge
    in the order given (``xI(-3/2)`` for an odd vertex) and ``spanning
    colored``, so its record has none of those lines.  Returns a dict
    key -> Model; a key given twice, or with whitespace in it, is an
    error.  Every ring and colored rule is built while the file loads, so
    a relation that does not parse, divides by zero, is not homogeneous or
    has a leading monomial a colored rule cannot read raises ValueError
    naming the file and the model, as does a formula key that does not
    resolve.
    """
    with open(path) as fh:
        out = _read_models(path, fh)
    for model in out.values():
        where = "%s: model %s: " % (path, model.key)
        try:
            model.ring()
            model.spanning  # a colored rule is read off the ring
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(where + "%s: %s" % (type(exc).__name__, exc))
        if model.character_key is not None:
            try:
                qseries_formula(model.character_key, 0)
            except KeyError as exc:
                raise ValueError(where + exc.args[0]) from None
    return out


def _read_models(path, lines):
    """Models of the registry text ``lines`` read from ``path``, in file
    order, their rings not yet built; the record parser of both the
    built-in registry and :func:`load_registry_file`.

    A line that does not read is a ValueError ``PATH:LINE: MESSAGE``, a
    record that does not make a model one ``PATH: model KEY: MESSAGE``."""
    records = {}
    current = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        at = "%s:%d: " % (path, lineno)
        if line.startswith("[") and line.endswith("]"):
            head = line[1:-1].split()
            if head[:1] != ["model"] or len(head) > 2:
                raise ValueError(at + "bad header %r, want [model KEY]"
                                 % line)
            if len(head) < 2:
                raise ValueError(at + "missing model key")
            key = head[1]
            if key in records:
                raise ValueError(at + "duplicate model key %r" % key)
            current = records[key] = {
                "key": key, "variables": [], "relations": [], "extras": []}
            given = set()
            continue
        if current is None:
            raise ValueError(at + "content before [model ...]")
        field, _, rest = line.partition(" ")
        rest = rest.strip()
        bits = rest.split()
        if field in given:
            raise ValueError(at + "%s given twice" % field)
        if field not in ("variable", "relation", "extra"):
            given.add(field)
        if field == "description":
            current["description"] = rest
        elif field == "variable":
            if len(bits) != 3 or bits[1] not in ("even", "odd"):
                raise ValueError(at + "bad variable line")
            current["variables"].append((bits[0], bits[1], _int_field(
                at, "variable weight2", bits[2])))
        elif field in ("relation", "extra"):
            current[field + "s"].append(rest)
        elif field == "character":
            current["character_key"] = None if rest == "none" else rest
        elif field == "spanning":
            if bits == ["colored"]:  # read off the ring at first use
                current["spanning"] = "colored"
            elif bits == ["gh"]:
                current["spanning"] = combinat.GhRules()
            elif bits[:1] == ["dk1"] and len(bits) == 2:
                k = _int_field(at, "spanning dk1 K", bits[1])
                try:
                    current["spanning"] = combinat.Dk1Rules(k)
                except ValueError as exc:
                    raise ValueError(at + str(exc)) from None
            else:
                raise ValueError(at + "bad spanning %r, want colored, gh "
                                 "or dk1 K" % rest)
        elif field == "graph":
            nvert = _int_field(at, "graph N", bits[0] if bits else "")
            vertices = [str(v) for v in range(1, nvert + 1)]
            edges = [edge.split("-") for edge in bits[1:]]
            for edge in edges:
                if len(edge) != 2 or not set(edge) <= set(vertices):
                    raise ValueError(at + "bad edge %r, want I-J on 1..%d"
                                     % ("-".join(edge), nvert))
            current["graph"] = vertices, edges
        elif field == "expect":
            verdict, sep, deg = rest.partition("@")
            if verdict not in ("ISO_CONSISTENT", "MISMATCH"):
                raise ValueError(at + "bad verdict %r" % verdict)
            if sep and verdict != "MISMATCH":
                raise ValueError(at + "only MISMATCH takes a degree2, got %r"
                                 % rest)
            current["expected"] = verdict
            current["expected_mismatch_degree2"] = _degree2_field(
                at, "expect degree2", deg) if sep else None
        elif field == "maxdeg2":
            current["default_maxdeg2"] = _degree2_field(at, "maxdeg2", rest)
        else:
            raise ValueError(at + "unknown field %r" % field)
    return {key: _record_to_model(path, rec) for key, rec in records.items()}


def _int_field(at, field, text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(at + "%s must be an integer, got %r"
                         % (field, text)) from None


def _degree2_field(at, field, text):
    value = _int_field(at, field, text)
    if value < 0:
        raise ValueError(at + "%s must be >= 0, got %d" % (field, value))
    return value


def _record_to_model(path, rec):
    """The Model of one parsed record; its ring is built at first use."""
    where = "%s: model %s: " % (path, rec["key"])
    if "graph" in rec:
        if "spanning" in rec or rec["variables"] or rec["relations"]:
            raise ValueError(where + "a graph line takes no variable, "
                             "relation or spanning line")
        vertices, edges = rec.pop("graph")
        odd = {i for i, j in edges if i == j}
        rec["variables"] = [("x" + v, "odd", 3) if v in odd
                            else ("x" + v, "even", 2) for v in vertices]
        atom = {v: "x%s(-%s)" % (v, "3/2" if v in odd else "1")
                for v in vertices}
        rec["relations"] = [atom[i] + "*" + atom[j] for i, j in edges]
        rec["spanning"] = "colored"
    if not rec["variables"]:
        raise ValueError(where + "no variables")
    rec["description"] = rec.get("description") or "user model"
    return Model(**rec)


_BUILTIN = os.path.join(os.path.dirname(__file__), "registry.txt")
with open(_BUILTIN, encoding="utf-8") as _fh:
    REGISTRY = _read_models(_BUILTIN, _fh)

# the graphs of the graphsum keys: graphsum:NAME reads the quadratic form of
# the built-in record graph:NAME
_GRAPHS = sorted(key[6:] for key in REGISTRY if key.startswith("graph:"))
FORMULA_KEYS = (
    ["theta:2", "theta:3", "poch:0", "poch:2", "poch:inf", "invpoch:inf",
     "rr", "fermion", "extvir:pair", "extvir:triple"]
    + ["jm:A%d" % i for i in range(2, 7)] + ["jm2:C3", "jm2:C5"]
    + ["graphsum:%s" % g for g in _GRAPHS]
    + ["ml:sl3:lhs", "ml:sl3:rhs", "ml:sl4:lhs", "ml:sl4:rhs"]
    + ["n1product:2", "n1product:3", "n1char:3:5", "ag:2", "ag:3",
       "singlelattice:2", "singlelattice:3", "fs:2", "fs:3"]
)
