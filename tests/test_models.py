"""Tests for the model registry: presentations, characters, spanning
rules, verification reports, and the text registry loader."""
from fractions import Fraction

import pytest

from jetchar import (REGISTRY, adjoint_generators_sl2, get_model, hilbert_series,
                     load_registry_file, matches_expectation, model_keys,
                     qseries_formula, verify, FORMULA_KEYS)
from jetchar import jetquot
from jetchar.models import sln_root_pairs


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


def test_sln_ring_relation_counts():
    assert len(get_model("sln_principal:3").ring().relations) == 5
    assert len(get_model("sln_principal:4").ring().relations) == 15


# ---------------------------------------------- sl2 adjoint derivation

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
    ("[model a]\nvariable x even 2\nfrobnicate yes\n", "unknown field"),
    ("[model ]\nvariable x even 2\n", "missing model key"),
    ("[model a]\nexpect ISO_CONSISTENT\n", "no variables"),
    ("[model a]\nvariable x even 2\ncharacter wat:1\n", "unknown formula"),
])
def test_load_registry_file_errors(tmp_path, text, fragment):
    path = tmp_path / "models.txt"
    path.write_text(text)
    with pytest.raises((ValueError, KeyError)) as err:
        load_registry_file(str(path))
    assert fragment in str(err.value)


def test_load_registry_file_bad_polynomial(tmp_path):
    """Rings are built when the file loads: a bad relation is rejected
    there, with the file and the model named, before any computation."""
    path = tmp_path / "models.txt"
    for relation, fragment in [("y(-1)^2", "unknown variable"),
                               ("1/0*x(-1)", "ZeroDivisionError"),
                               ("x(-1) + x(-1)^2", "not homogeneous")]:
        path.write_text("[model a]\nvariable x even 2\nrelation %s\n"
                        % relation)
        with pytest.raises(ValueError) as err:
            load_registry_file(str(path))
        assert fragment in str(err.value)
        assert str(path) in str(err.value) and "model a" in str(err.value)


def _as_record(m):
    """A built-in model written as a registry-file record."""
    expect = m.expected
    if m.expected_mismatch_degree2 is not None:
        expect += "@%d" % m.expected_mismatch_degree2
    return "\n".join(
        ["[model %s]" % m.key, "description " + m.description]
        + ["variable %s %s %d" % v for v in m.variables]
        + ["relation " + r for r in m.relations]
        + ["extra " + e for e in m.extras]
        + ["character %s" % (m.character_key or "none"),
           "expect " + expect, "maxdeg2 %d" % m.default_maxdeg2]) + "\n"


def test_builtin_models_are_registry_records(tmp_path):
    """Every built-in presentation, written in the registry-file grammar,
    loads to the same ring and the same expectations."""
    path = tmp_path / "builtin.txt"
    path.write_text("\n".join(_as_record(get_model(k)) for k in model_keys()))
    loaded = load_registry_file(str(path))
    assert sorted(loaded) == model_keys()
    for key, m in loaded.items():
        builtin = get_model(key)
        want, got = builtin.ring(), m.ring()
        assert got.name == want.name == key
        assert ([(v.name, v.parity, v.weight2) for v in got.variables]
                == [(v.name, v.parity, v.weight2) for v in want.variables])
        assert got.relations == want.relations, key
        assert got.extras == want.extras, key
        assert (m.description, m.character_key, m.expected,
                m.expected_mismatch_degree2, m.default_maxdeg2) == (
            builtin.description, builtin.character_key, builtin.expected,
            builtin.expected_mismatch_degree2, builtin.default_maxdeg2)
