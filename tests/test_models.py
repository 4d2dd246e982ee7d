"""Tests for the model registry: presentations, characters, spanning
rules, verification reports, and the text registry loader."""
from fractions import Fraction

import pytest

from jetchar import (REGISTRY, RingSpec, VariableSpec, get_model,
                     hilbert_series, load_registry_file, matches_expectation,
                     model_keys, qseries_formula, verify, FORMULA_KEYS)
from jetchar import combinat, jetquot, models
from jetchar.qseries import sln_root_pairs


# ------------------------------------------------------------- registry

def test_registry_is_populated_and_described():
    assert len(REGISTRY) >= 30
    for key in model_keys():
        m = get_model(key)
        assert m.key == key
        assert m.description, key
        assert m.expected in ("ISO_CONSISTENT", "MISMATCH"), key
        assert m.default_maxdeg2 >= 8, key
        if m.expected == "ISO_CONSISTENT":
            assert m.expected_mismatch_degree2 is None, key


def test_get_model_rejects_unknown_key():
    with pytest.raises(KeyError):
        get_model("no_such_model")


def test_model_keys_sorted():
    keys = model_keys()
    assert keys == sorted(keys)


def test_expected_failures_are_exactly_the_reducible_presentations():
    bad = {k for k in model_keys() if get_model(k).expected == "MISMATCH"}
    assert bad == {"lattice:3", "positive_lattice:3", "positive_lattice:4",
                   "n2_c1:bare", "n1_odd_odd:3:5"}


def test_character_none_model_is_hs_only():
    m = get_model("n2_c1:abc")
    assert m.character_key is None
    assert m.character(8) is None
    report = verify(m, maxdeg2=6)
    assert report.verdict == "ISO_CONSISTENT"  # nothing to mismatch against
    assert all(row["character"] is None for row in report.rows)


# -------------------------------------------------------- presentations

def test_lattice_three_shape():
    ring = get_model("lattice:3").ring()
    assert len(ring.variables) == 3
    assert len(ring.relations) == 5
    parities = [v.parity for v in ring.variables]
    weights = [v.weight2 for v in ring.variables]
    assert parities == ["odd", "odd", "even"]
    assert weights == [3, 3, 2]
    # the two odd squares normalize to zero but remain listed
    assert sum(1 for r in ring.relations if not r) == 2


def test_lattice_two_is_purely_even():
    ring = get_model("lattice:2").ring()
    assert all(v.parity == "even" for v in ring.variables)
    assert all(v.weight2 == 2 for v in ring.variables)
    assert all(r for r in ring.relations)  # no identically-zero relations


def test_n2_variants_differ_only_in_extras():
    bare = get_model("n2_c1:bare").ring()
    ab = get_model("n2_c1:ab").ring()
    abc = get_model("n2_c1:abc").ring()
    assert len(bare.extras) == 0
    assert len(ab.extras) == 2
    assert len(abc.extras) == 3
    for r in (bare, ab, abc):
        assert len(r.relations) == 5
        assert [v.name for v in r.variables] == ["gp", "h", "gm"]
    assert [ab.degree2(e) for e in ab.extras] == [8, 8]
    assert [abc.degree2(e) for e in abc.extras] == [8, 8, 9]


def test_n2_third_null_vector_coefficients():
    ring = get_model("n2_c1:abc").ring()
    c = ring.extras[2]
    coeffs = sorted(c.values())
    assert coeffs == [Fraction(-1), Fraction(-1, 3), Fraction(1, 3),
                      Fraction(1)]
    # one linear term, one h^2 gm term, two h gm terms
    assert sorted(len(m) for m in c) == [1, 2, 2, 3]


def test_sln_root_pairs_counts():
    assert len(sln_root_pairs(3)) == 5
    assert len(sln_root_pairs(4)) == 15


def test_sln_leading_monomials_are_the_root_pairs():
    """The leading monomials of sln_principal:n's relations are the
    products E_r*E_s over sln_root_pairs(n), in order: the index set of
    ml:sln:lhs."""
    for n in (3, 4):
        spec = get_model("sln_principal:%d" % n).ring()
        names = [v.name for v in spec.variables]
        assert [tuple(names[base] for base, _ in min(rel))
                for rel in spec.relations] == [
            ("E%d%d" % r, "E%d%d" % s) for r, s in sln_root_pairs(n)]


def test_sln_ring_relation_counts():
    assert len(get_model("sln_principal:3").ring().relations) == 5
    assert len(get_model("sln_principal:4").ring().relations) == 15


# ---------------------------------------------- sl2 adjoint derivation

def adjoint_generators_sl2(k):
    """The 2k+3 polynomials ad_f^i(e^{k+1}), i = 0..2k+2, in C[e,f,h].

    ad_f acts as the derivation determined by the brackets
    [h,e] = 2e, [h,f] = -2f, [e,f] = h, i.e. e -> -h, h -> 2f, f -> 0.
    The relation texts of ``sl2_affine:1`` and ``sl2_affine:2`` are these
    polynomials written out.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    spec = RingSpec(VariableSpec(*v)
                    for v in get_model("sl2_affine:1").variables)
    image = {
        spec.atom("e"): spec.poly([(-1, (spec.atom("h"),))]),
        spec.atom("h"): spec.poly([(2, (spec.atom("f"),))]),
        spec.atom("f"): {},
    }
    gens = [spec.poly([(1, (spec.atom("e"),) * (k + 1))])]
    for _ in range(2 * k + 2):
        gens.append(spec.derivation(gens[-1], image.__getitem__))
    return gens


def test_adjoint_generators_chain_k1():
    spec = get_model("sl2_affine:1").ring()
    gens = adjoint_generators_sl2(1)
    assert len(gens) == 2 * 1 + 3 == 5
    e = spec.var("e")
    h = spec.var("h")
    f = spec.var("f")

    def m(*polys):
        out = polys[0]
        for p in polys[1:]:
            out = spec.mul(out, p)
        return out

    assert gens[0] == m(e, e)
    assert gens[1] == spec.scale(m(e, h), -2)
    assert gens[2] == spec.add(spec.scale(m(h, h), 2), spec.scale(m(e, f), -4))
    assert gens[3] == spec.scale(m(h, f), 12)
    assert gens[4] == spec.scale(m(f, f), 24)


def test_adjoint_generators_endpoints():
    for k in (1, 2):
        spec = get_model("sl2_affine:%d" % k).ring()
        gens = adjoint_generators_sl2(k)
        assert len(gens) == 2 * k + 3
        ek = spec.var("e")
        top = spec.var("e")
        for _ in range(k):
            top = spec.mul(top, ek)
        assert gens[0] == top                      # e^{k+1}
        last = gens[-1]
        f_base = spec.atom("f")[0]
        # lowest-weight end is a pure power of f
        assert all(all(a[0] == f_base for a in mono) for mono in last)
    with pytest.raises(ValueError):
        adjoint_generators_sl2(0)


@pytest.mark.parametrize("k", [1, 2])
def test_sl2_affine_relation_texts_are_the_ad_orbit(k):
    assert (get_model("sl2_affine:%d" % k).ring().relations
            == tuple(adjoint_generators_sl2(k)))


def test_sl2_affine_level1_matches_rank_one_lattice():
    a = hilbert_series(get_model("sl2_affine:1").ring(), 12)
    b = hilbert_series(get_model("lattice:2").ring(), 12)
    assert a == b
    assert a == qseries_formula("theta:2", 12).c


# ------------------------------------------------------------ verify()

def test_verify_flags_bare_model_at_eight():
    report = verify("n2_c1:bare", maxdeg2=10)
    assert report.verdict == "MISMATCH"
    assert report.mismatch_degree2 == 8
    row = report.rows[8]
    assert row["jet_dim"] == 7 and row["character"] == 5
    assert matches_expectation("n2_c1:bare", report)


def test_verify_passes_even_lattice():
    report = verify("lattice:2", maxdeg2=12)
    assert report.verdict == "ISO_CONSISTENT"
    assert report.mismatch_degree2 is None
    assert matches_expectation("lattice:2", report)
    assert [r["jet_dim"] for r in report.rows] == \
        [r["character"] for r in report.rows]


def test_verify_flags_odd_odd_pairing_at_nine():
    report = verify("n1_odd_odd:3:5", maxdeg2=12)
    assert report.verdict == "MISMATCH"
    assert report.mismatch_degree2 == 9
    assert matches_expectation("n1_odd_odd:3:5", report)


def test_verify_reads_dimensions_through_jetquot_hilbert_series(monkeypatch):
    """verify takes its jet dimensions from the module attribute
    ``jetquot.hilbert_series``, the call perfbench traces: a shifted entry
    there is the report's jet dimension and its first mismatch."""
    real = jetquot.hilbert_series

    def shifted(*args, **kwargs):
        dims = real(*args, **kwargs)
        dims[6] += 1
        return dims

    monkeypatch.setattr(jetquot, "hilbert_series", shifted)
    report = verify("lattice:2", maxdeg2=12)
    assert report.rows[6]["jet_dim"] == report.rows[6]["character"] + 1
    assert report.verdict == "MISMATCH" and report.mismatch_degree2 == 6


@pytest.mark.parametrize("key", ["sl2_affine:2", "positive_lattice:2",
                                 "n2_c1:abc"])
def test_verify_refuses_a_negative_maxdeg2(monkeypatch, key):
    """A negative truncation is refused with one ValueError before any
    slice is computed, whatever the model's character."""
    called = []
    monkeypatch.setattr(jetquot, "hilbert_series", lambda *a: called.append(a))
    with pytest.raises(ValueError, match=r"^maxdeg2 must be >= 0, got -1$"):
        verify(key, -1)
    assert called == []


def test_verify_report_dict_shape():
    report = verify("virasoro_2_2k1:2", maxdeg2=8)
    d = report.to_dict()
    assert set(d) == {"model", "maxdeg2", "rows", "verdict"}
    assert d["model"] == "virasoro_2_2k1:2" and d["maxdeg2"] == 8
    assert len(d["rows"]) == 9
    assert set(d["rows"][0]) == {"degree2", "spanning", "jet_dim", "character"}
    bare = verify("n2_c1:bare", maxdeg2=10).to_dict()
    assert bare["mismatch_degree2"] == 8


def test_matches_expectation_rejects_early_truncation():
    """A mismatch model observed only below its first failing degree
    reads ISO_CONSISTENT and must not count as matching."""
    report = verify("lattice:3", maxdeg2=6)
    assert report.verdict == "ISO_CONSISTENT"
    assert not matches_expectation("lattice:3", report)


def test_matches_expectation_checks_mismatch_degree():
    report = verify("n2_c1:bare", maxdeg2=10)
    report.mismatch_degree2 = 6  # tampered
    assert not matches_expectation("n2_c1:bare", report)


def test_spanning_dominates_jet_dimension_everywhere():
    for key in model_keys():
        m = get_model(key)
        if m.spanning is None:
            continue
        maxdeg2 = min(m.default_maxdeg2, 12)
        span = m.spanning_series(maxdeg2)
        dims = hilbert_series(m.ring(), maxdeg2)
        for d in range(maxdeg2 + 1):
            assert span[d] >= dims[d], (key, d)


# ------------------------------------------------------------ formulas

def test_formula_keys_all_resolve():
    for key in FORMULA_KEYS:
        s = qseries_formula(key, 4)
        assert s.maxdeg2 == 4


def test_formula_key_errors():
    with pytest.raises(KeyError):
        qseries_formula("theta", 4)          # missing argument
    with pytest.raises(KeyError):
        qseries_formula("theta:x", 4)        # non-integer argument
    with pytest.raises(KeyError):
        qseries_formula("wat:3", 4)          # unknown head
    with pytest.raises(KeyError):
        qseries_formula("ag:1", 4)           # out-of-domain argument


def test_registered_characters_resolve_for_all_models():
    for key in model_keys():
        m = get_model(key)
        if m.character_key is not None:
            assert m.character(4) is not None


# ---------------------------------------------------- registry loader

REGISTRY_TEXT = """
# a user-supplied model exercising every field
[model user:rr]
description one even generator with a quadratic relation
variable x even 2
relation x(-1)^2
character rr
spanning colored
expect ISO_CONSISTENT
maxdeg2 12
"""


def test_load_registry_file_roundtrip(tmp_path):
    path = tmp_path / "models.txt"
    path.write_text(REGISTRY_TEXT)
    models = load_registry_file(str(path))
    assert set(models) == {"user:rr"}
    m = models["user:rr"]
    assert m.default_maxdeg2 == 12
    report = verify(m)
    assert report.verdict == "ISO_CONSISTENT"
    assert matches_expectation(m, report)
    # <x(-1)^2> with difference-2 partitions is positive_lattice:2
    assert ([row["spanning"] for row in verify(m, 40).rows]
            == [row["spanning"] for row in verify("positive_lattice:2").rows])


def test_load_registry_file_minimal_record_takes_model_defaults(tmp_path):
    path = tmp_path / "models.txt"
    path.write_text("[model m]\nvariable x even 2\n")
    m = load_registry_file(str(path))["m"]
    assert m.description == "user model"
    assert m.expected == "ISO_CONSISTENT"
    assert m.expected_mismatch_degree2 is None
    assert m.default_maxdeg2 == 16
    assert m.character_key is None and m.character(16) is None
    assert m.relations == m.extras == () and m.spanning is None


def test_load_registry_file_expect_mismatch_degree(tmp_path):
    path = tmp_path / "models.txt"
    path.write_text("""
[model user:bad]
description claims theta3 but has no relations at all
variable x even 2
character theta:3
expect MISMATCH@3
""")
    m = load_registry_file(str(path))["user:bad"]
    assert m.expected == "MISMATCH"
    assert m.expected_mismatch_degree2 == 3
    report = verify(m, maxdeg2=8)
    assert report.verdict == "MISMATCH" and report.mismatch_degree2 == 3
    assert matches_expectation(m, report)


@pytest.mark.parametrize("text,fragment", [
    ("variable x even 2\n", "content before"),
    ("[model a]\nvariable x sideways 2\n", "bad variable"),
    ("[model a]\nvariable x even 2\nexpect MAYBE\n", "bad verdict"),
    # a degree belongs to MISMATCH only, and must be a degree2 that can occur
    ("[model a]\nvariable x even 2\nexpect ISO_CONSISTENT@5\n",
     ":3: only MISMATCH takes a degree2, got 'ISO_CONSISTENT@5'"),
    ("[model a]\nvariable x even 2\nexpect MISMATCH@\n",
     ":3: expect degree2 must be an integer, got ''"),
    ("[model a]\nvariable x even 2\nexpect MISMATCH@-3\n",
     ":3: expect degree2 must be >= 0, got -3"),
    ("[model a]\nvariable x even 2\nfrobnicate yes\n", "unknown field"),
    ("[model ]\nvariable x even 2\n", "missing model key"),
    ("[modelfoo]\nvariable x even 2\n", "bad header '[modelfoo]'"),
    ("[models bar]\nvariable x even 2\n", "bad header '[models bar]'"),
    ("[model a]\nexpect ISO_CONSISTENT\n", "no variables"),
    ("[model a]\nvariable x even 2\ncharacter wat:1\n", "unknown formula"),
    # single-valued fields
    ("[model a]\nvariable x even 2\ndescription one\ndescription two\n",
     ":4: description given twice"),
    ("[model a]\nvariable x even 2\ncharacter theta:2\ncharacter rr\n",
     ":4: character given twice"),
    ("[model a]\nvariable x even 2\nspanning gh\nspanning colored\n",
     ":4: spanning given twice"),
    ("[model a]\ngraph 2 1-2\ngraph 2 1-2\n", ":3: graph given twice"),
    ("[model a]\nvariable x even 2\nexpect MISMATCH\nexpect MISMATCH\n",
     ":4: expect given twice"),
    ("[model a]\nvariable x even 2\nmaxdeg2 10\nmaxdeg2 12\n",
     ":4: maxdeg2 given twice"),
    # the spanning field: a rule kind, then a colored rule read off the
    # relations, which leaves no field for its conditions
    ("[model a]\nvariable x even 2\nspanning wat\n",
     ":3: bad spanning 'wat', want colored, gh or dk1 K"),
    ("[model a]\nvariable x even 2\nspanning dk1 1\n",
     ":3: D_{k,1} conditions require an int k >= 2"),
    ("[model a]\nvariable x even 2\nspanning dk1 two\n",
     ":3: spanning dk1 K must be an integer, got 'two'"),
    ("[model a]\nvariable x even 2\ndifference x 1 4\n",
     ":3: unknown field 'difference'"),
    ("[model a]\nvariable x even 2\nspanning gh\nboundary x x\n",
     ":4: unknown field 'boundary'"),
    ("[model a]\nvariable x even 2\nspanning colored\ndifference x 1 4\n",
     ":4: unknown field 'difference'"),
    ("[model a]\nvariable x even 2\nspanning colored\nboundary x y\n",
     ":4: unknown field 'boundary'"),
    ("[model a]\nvariable x even 2\nvariable y even 2\nvariable z even 2\n"
     "relation x(-1)*y(-1)*z(-1)\nspanning colored\n",
     ": model a: ValueError: leading monomial x(-1)*y(-1)*z(-1) is not "
     "x^k or x*y"),
    # the graph line: N vertices, then edges I-J on 1..N
    ("[model a]\ngraph\n", ":2: graph N must be an integer, got ''"),
    ("[model a]\ngraph three 1-2\n",
     ":2: graph N must be an integer, got 'three'"),
    ("[model a]\ngraph 3 1-2 2_3\n", ":2: bad edge '2_3', want I-J on 1..3"),
    ("[model a]\ngraph 3 1-2-3\n", ":2: bad edge '1-2-3', want I-J on 1..3"),
    ("[model a]\ngraph 3 1-4\n", ":2: bad edge '1-4', want I-J on 1..3"),
    ("[model a]\ngraph 3 0-1\n", ":2: bad edge '0-1', want I-J on 1..3"),
] + [("[model a]\ngraph 2 1-2\n" + line, ": model a: a graph line takes no "
      "variable, relation or spanning line")
     for line in ("variable y even 2\n", "relation x1(-1)^2\n",
                  "spanning colored\n")])
def test_load_registry_file_errors(tmp_path, text, fragment):
    path = tmp_path / "models.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_registry_file(str(path))
    assert fragment in str(err.value)


def test_load_registry_file_bad_polynomial(tmp_path):
    """Rings are built when the file loads: a bad relation is rejected
    there, with the file and the model named, before any computation."""
    path = tmp_path / "models.txt"
    for relation, fragment in [("y(-1)^2", "unknown variable"),
                               ("1/0*x(-1)", "ZeroDivisionError"),
                               ("x(-1) + x(-1)^2", "not homogeneous"),
                               ("x(-1", "unclosed parenthesis")]:
        path.write_text("[model a]\nvariable x even 2\nrelation %s\n"
                        % relation)
        with pytest.raises(ValueError) as err:
            load_registry_file(str(path))
        assert fragment in str(err.value)
        assert str(path) in str(err.value) and "model a" in str(err.value)


@pytest.mark.parametrize("edges,maxdeg2,verdict", [
    ("1-2 2-3", 16, "ISO_CONSISTENT"),
    ("1-2 2-3 1-3", 4, "MISMATCH"),
])
def test_a_user_graph_line_verifies_against_graphsum(tmp_path, edges, maxdeg2,
                                                     verdict):
    """The path on 3 vertices, stated by a graph line, meets graphsum:A3 at
    its default truncation; the triangle does not."""
    path = tmp_path / "models.txt"
    path.write_text("[model user:g]\ngraph 3 %s\ncharacter graphsum:A3\n"
                    % edges)
    m = load_registry_file(str(path))["user:g"]
    assert m.default_maxdeg2 == 16
    assert verify(m, maxdeg2).verdict == verdict


def test_a_graph_spans_alike_however_its_edges_are_written(tmp_path):
    """An edge I-J and its reverse J-I give one relation, so one leading
    monomial and one boundary: the spanning column is the same."""
    path = tmp_path / "models.txt"
    path.write_text("[model a]\ngraph 3 2-1 2-3\n\n"
                    "[model b]\ngraph 3 1-2 2-3\n")
    a, b = load_registry_file(str(path)).values()
    assert a.spanning.boundaries == b.spanning.boundaries == (
        ("x1", "x2"), ("x2", "x3"))
    assert a.spanning_series(12).c == b.spanning_series(12).c


def test_graph_lines_expand_to_the_records_they_replaced():
    """The relation, variable and boundary texts of graph:A4 and graph:L1
    are those that were written out in their records before graph lines."""
    a4, l1 = get_model("graph:A4"), get_model("graph:L1")
    assert a4.variables == tuple(("x%d" % v, "even", 2) for v in range(1, 5))
    assert a4.relations == ("x1(-1)*x2(-1)", "x2(-1)*x3(-1)", "x3(-1)*x4(-1)")
    assert a4.spanning.boundaries == (("x1", "x2"), ("x2", "x3"), ("x3", "x4"))
    assert a4.spanning.differences == {}
    assert l1.variables == (("x1", "odd", 3),)
    assert l1.relations == ("x1(-3/2)*x1(-3/2)",)
    assert l1.spanning.colors == (("x1", 3, True),)
    assert l1.spanning.boundaries == ()


def _fields(m):
    rules = m.spanning
    return (m.description, m.variables, m.relations, m.extras,
            m.character_key, None if rules is None else (type(rules),
                                                         vars(rules)),
            m.expected, m.expected_mismatch_degree2, m.default_maxdeg2)


def test_builtin_models_are_registry_records():
    """The shipped registry loads through load_registry_file, every ring
    built and every formula key resolved there, to the models of
    REGISTRY, field by field, spanning rules included."""
    loaded = load_registry_file(models._BUILTIN)
    assert list(loaded) == list(REGISTRY) and len(loaded) == 31
    for key, m in loaded.items():
        assert _fields(m) == _fields(get_model(key)), key
    kinds = [type(m.spanning) for m in loaded.values()]
    assert (kinds.count(combinat.ColoredRules), kinds.count(combinat.GhRules),
            kinds.count(combinat.Dk1Rules), kinds.count(type(None))) == (
        18, 2, 2, 9)
