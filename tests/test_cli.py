"""End-to-end tests for the command-line interface, run in process
through main() with a captured output stream."""
import csv
import io
import json
import subprocess
import sys
import time

import pytest

from jetchar import cli
from jetchar.cli import main


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


# ------------------------------------------------------------- verify

def test_verify_json_single_object():
    code, out = run_cli("verify", "--model", "n2_c1:bare",
                        "--maxdeg2", "10", "--format", "json")
    assert code == 0  # mismatch is the registered expectation
    payload = json.loads(out)
    assert isinstance(payload, dict)
    assert set(payload) == {"model", "maxdeg2", "rows", "verdict",
                            "mismatch_degree2"}
    assert payload["model"] == "n2_c1:bare"
    assert payload["verdict"] == "MISMATCH"
    assert payload["mismatch_degree2"] == 8
    row = payload["rows"][8]
    assert row["degree2"] == 8
    assert row["jet_dim"] == 7 and row["character"] == 5


def test_verify_json_round_trips():
    code, out = run_cli("verify", "--model", "lattice:2",
                        "--maxdeg2", "8", "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) == out.strip()


def test_verify_json_multiple_models_is_array():
    code, out = run_cli("verify", "--model", "lattice:2",
                        "--model", "virasoro_2_2k1:2",
                        "--maxdeg2", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 2
    assert [p["model"] for p in payload] == ["lattice:2", "virasoro_2_2k1:2"]


def test_verify_csv_columns_and_values():
    code, out = run_cli("verify", "--model", "n2_c1:bare",
                        "--maxdeg2", "10", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["model", "maxdeg2", "verdict", "mismatch_degree2",
                       "degree2", "spanning", "jet_dim", "character"]
    assert len(rows) == 1 + 11
    assert rows[1][:4] == ["n2_c1:bare", "10", "MISMATCH", "8"]
    by_degree = {int(r[4]): r for r in rows[1:]}
    assert by_degree[8][6] == "7" and by_degree[8][7] == "5"


def test_verify_csv_blank_mismatch_for_consistent():
    code, out = run_cli("verify", "--model", "lattice:2",
                        "--maxdeg2", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(r[3] == "" for r in rows[1:])


def test_verify_human_output_fractional_labels():
    code, out = run_cli("verify", "--model", "n1_odd_odd:3:5",
                        "--maxdeg2", "10")
    assert code == 0
    assert "q^{9/2}" in out
    assert "verdict: MISMATCH at q^{9/2} (degree2=9)" in out
    assert "[expected MISMATCH@9: ok]" in out


def test_verify_exit_one_on_deviation():
    # below the first failing degree the observation reads consistent,
    # which deviates from the registered MISMATCH expectation
    code, out = run_cli("verify", "--model", "lattice:3", "--maxdeg2", "6")
    assert code == 1
    assert "DEVIATES" in out


def test_verify_unknown_key_rejected_before_computation():
    start = time.time()
    code, _ = run_cli("verify", "--model", "lattice:2",
                      "--model", "no_such_model", "--maxdeg2", "1000000")
    assert code == 2
    assert time.time() - start < 5.0


def test_verify_requires_a_selection():
    code, _ = run_cli("verify")
    assert code == 2


def test_verify_all_with_model_is_a_usage_error(capsys):
    """Both together are refused, so a mistyped key cannot pass unread."""
    code, out = run_cli("verify", "--all", "--model", "nope")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: pass --model KEY or --all, not both\n")


def test_verify_negative_maxdeg2_is_a_usage_error(capsys):
    code, out = run_cli("verify", "--model", "lattice:2", "--maxdeg2", "-1")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--maxdeg2" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_verify_limit_below_one_is_a_usage_error(limit):
    """A cap below one monomial is rejected before any slice is built,
    not reported as a resource overrun at degree2=0."""
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar.cli", "verify", "--model",
         "lattice:2", "--limit", limit],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: --limit must be >= 1, got %s\n" % limit


def test_verify_huge_maxdeg2_stops_at_the_first_capped_slice():
    """Only the digit width depends on the truncation: the atom
    table grows one degree at a time, so the cap stops the run at the
    first table of more than 100 standard monomials, the 103 of
    degree2=14."""
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar.cli", "verify", "--model",
         "lattice:2", "--maxdeg2", "10000000", "--limit", "100"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: resource cap exceeded for lattice:2: "
                           "more than 100 monomials at degree2=14\n")


def test_verify_goes_as_deep_as_the_standard_tables_allow():
    """The default cap counts the standard monomials each slice builds,
    not the 203,984 free ones of degree2=30, so graph:A4 verifies at 30."""
    code, out = run_cli("verify", "--model", "graph:A4", "--maxdeg2", "30",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "ISO_CONSISTENT"
    assert len(payload["rows"]) == 31


def test_verify_resource_cap_gives_diagnostic_exit():
    code, _ = run_cli("verify", "--model", "n2_c1:bare",
                      "--maxdeg2", "10", "--limit", "5")
    assert code == 2


def test_verify_all_small_degree():
    code, out = run_cli("verify", "--all", "--maxdeg2", "4", "--format", "csv")
    # at degree 4 no registered mismatch degree is reachable, so every
    # MISMATCH-expected model deviates; the run must still complete
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 5 * len(set(r[0] for r in rows[1:]))



def _human_cells(text, width):
    """(model, degree2) -> the ``width`` cells of each row of the human
    tables in ``text``, the degree read back from its q label."""
    degree = {cli._qlabel(d): d for d in range(64)}
    cells = {}
    for line in text.splitlines():
        if line.startswith("model "):
            model = line.split()[1]
        elif line[2:10].strip() in degree:
            row = [line[2:10]] + [line[11 + 11 * i:21 + 11 * i]
                                  for i in range(width - 1)]
            cells[model, degree[row[0].strip()]] = [c.strip() for c in row]
    return cells


def test_verify_formats_agree_cell_by_cell():
    """JSON, CSV and the human table print the same cell for every model,
    degree and row key; the human table shows the degree as a q label."""
    outs = {}
    for fmt in ("json", "csv", "human"):
        code, outs[fmt] = run_cli("verify", "--all", "--maxdeg2", "8",
                                  "--format", fmt)
        assert code == 1
    reports = json.loads(outs["json"])
    keys = list(reports[0]["rows"][0])
    want = {(rep["model"], row["degree2"]):
            ["" if row[k] is None else str(row[k]) for k in keys]
            for rep in reports for row in rep["rows"]}
    assert len(want) == 9 * len(cli.models.REGISTRY)
    got_csv = {(r["model"], int(r["degree2"])): [r[k] for k in keys]
               for r in csv.DictReader(io.StringIO(outs["csv"]))}
    assert got_csv == want
    got_human = _human_cells(outs["human"], len(keys))
    assert got_human == {key: [cli._qlabel(key[1])] + cells[1:]
                         for key, cells in want.items()}


def test_a_new_row_key_is_a_column_of_csv_and_human(monkeypatch):
    """A key added to the rows of models.verify shows up, in row-key
    order, in the CSV and human headers and rows with no change to cli."""
    verify = cli.models.verify

    def probed(*args, **kwargs):
        rep = verify(*args, **kwargs)
        rep.rows = [{"degree2": r["degree2"], "probe": 100 + r["degree2"],
                     **r} for r in rep.rows]
        return rep

    monkeypatch.setattr(cli.models, "verify", probed)
    argv = ("verify", "--model", "lattice:2", "--maxdeg2", "4")
    _, out = run_cli(*argv, "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["model", "maxdeg2", "verdict", "mismatch_degree2",
                       "degree2", "probe", "spanning", "jet_dim",
                       "character"]
    assert [r[5] for r in rows[1:]] == ["100", "101", "102", "103", "104"]
    _, out = run_cli(*argv)
    lines = out.splitlines()
    assert lines[2].split() == ["deg", "probe", "spanning", "jet_dim",
                                "character"]
    cells = _human_cells(out, 5)
    assert [cells["lattice:2", d][1] for d in range(5)] == [
        "100", "101", "102", "103", "104"]


# ---------------------------------------------- repeated calls, one parser

def test_main_builds_its_parser_once_per_process():
    cli._build_parser.cache_clear()
    for argv in [("list", "--filter", "theta"),
                 ("expand", "theta:2", "--maxdeg2", "4"),
                 ("verify", "--model", "graph:A1", "--maxdeg2", "4")]:
        assert run_cli(*argv)[0] == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_repeated_model_calls_do_not_share_the_append_default():
    """``--model`` appends to its default list; a reused parser must not
    carry one call's models into the next."""
    for key in ("graph:A1", "graph:A2", "graph:A1"):
        code, out = run_cli("verify", "--model", key, "--maxdeg2", "6",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["model"] == key
    assert cli._build_parser().parse_args(["verify"]).model == []


def test_a_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--maxdeg2", "x")
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run_cli("verify", "--model", "graph:A1", "--maxdeg2", "4")[0] == 0


def test_all_after_model_calls_matches_a_fresh_process():
    """``--all`` after ``--model`` calls in one process prints what it
    prints in a fresh process, and is not refused as both at once."""
    argv = ["verify", "--all", "--maxdeg2", "4"]
    assert run_cli("verify", "--model", "lattice:2", "--maxdeg2", "4")[0] == 0
    assert run_cli("verify", "--model", "graph:A2", "--model", "nope")[0] == 2
    code, out = run_cli(*argv)
    fresh = subprocess.run([sys.executable, "-m", "jetchar"] + argv,
                           capture_output=True, text=True, timeout=120)
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert fresh.stderr == ""


# ------------------------------------------------------------- expand

def test_expand_default_truncation_single_row():
    code, out = run_cli("expand", "poch:0")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].startswith("formula poch:0")
    assert len(lines) == 2
    assert lines[1].split() == ["q^0", "1"]


def test_expand_human_braces_on_half_integers():
    code, out = run_cli("expand", "fermion", "--maxdeg2", "9")
    assert code == 0
    assert "q^{9/2}" in out and "q^{1/2}" in out and "q^3" in out


def test_expand_json():
    code, out = run_cli("expand", "theta:3", "--maxdeg2", "10",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] == "theta:3" and payload["maxdeg2"] == 10
    coeffs = [r["coefficient"] for r in payload["rows"]]
    assert coeffs == [1, 0, 1, 2, 2, 2, 3, 4, 5, 6, 7]
    assert [r["degree2"] for r in payload["rows"]] == list(range(11))


def test_expand_csv():
    code, out = run_cli("expand", "theta:3", "--maxdeg2", "4",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["formula", "maxdeg2", "degree2", "coefficient"]
    assert [r[3] for r in rows[1:]] == ["1", "0", "1", "2", "2"]


def test_expand_unknown_formula():
    code, _ = run_cli("expand", "zeta:9")
    assert code == 2


@pytest.mark.parametrize("formula", ["theta:0", "n1char:0:0", "theta:-1",
                                     "ml:sl0:rhs", "fs:-1", "poch:-1",
                                     "invpoch:-2", "ml:sl0:lhs", "ml:sl1:rhs",
                                     "fs:0", "ml:xx3:rhs", "n1char:2:2",
                                     "n1char:2:3", "n1char:1:1", "n1char:1:3",
                                     "n1char:1:5"])
def test_expand_degenerate_formula_arguments_are_usage_errors(formula):
    """These once looped forever (theta:0, n1char:0:0), ended in an
    IndexError traceback (theta:-1, ml:sl0:rhs, fs:-1, the last two from a
    negative variable count in fermionic_sum), printed the sl3 series
    (ml:xx3:rhs, whose prefix went unread), printed negative coefficients
    (n1char:2:2, n1char:2:3) or all zeros (n1char:1:*), which no N=1
    minimal model has, or printed the series 1 (the rest: an empty product,
    an empty set of roots, or no summation variables); a subprocess
    bounds a relapse."""
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar.cli", "expand", formula],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and formula in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv,message", [
    (["theta:2", "--maxdeg2", "-1"], "--maxdeg2 must be >= 0, got -1"),
    (["graphsum:A9"], "bad formula key 'graphsum:A9': unknown graph shape "
     "'A9' (known: A1, A2, A3, A4, A5, A6, C3, C5, L1)"),
    (["jm:A9"], "bad formula key 'jm:A9': unknown path-graph key 'A9'"),
    (["rr", "--limit", "0"], "--limit must be >= 1, got 0"),
    (["rr", "--limit", "-3"], "--limit must be >= 1, got -3"),
])
def test_expand_usage_errors_name_the_fault(argv, message):
    """A bad option is not blamed on a valid key, and an unknown shape is
    named once, without a KeyError repr around it."""
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar.cli", "expand"] + argv,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: %s\n" % message


def test_expand_limit_refuses_a_level_of_too_many_states():
    """The states of a fermionic sum's level are capped like the monomials
    of a verify table: ml:sl4:lhs at 80 is refused in one line once a
    level would hold more than 30 states (its largest holds 40), and a cap
    of 1,000, above its largest level, prints what the default prints."""
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar.cli", "expand", "ml:sl4:lhs",
         "--maxdeg2", "80", "--limit", "30"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(
        "error: resource cap exceeded for ml:sl4:lhs: more than 30 states")
    assert len(proc.stderr.splitlines()) == 1
    capped = run_cli("expand", "ml:sl4:lhs", "--maxdeg2", "80",
                     "--limit", "1000")
    assert capped == run_cli("expand", "ml:sl4:lhs", "--maxdeg2", "80")
    assert capped[0] == 0


# --------------------------------------------------------------- list

def test_list_is_deterministic_and_sorted():
    code1, out1 = run_cli("list")
    code2, out2 = run_cli("list")
    assert code1 == code2 == 0
    assert out1 == out2
    model_lines = [ln.strip().split()[0]
                   for ln in out1.splitlines()[1:] if ln.startswith("  ")]
    keys = model_lines[:model_lines.index("extvir:pair")]  # formulas follow
    # model keys appear in sorted order
    from jetchar import model_keys
    assert [k for k in keys if ":" in k][:len(model_keys())] == model_keys()


def test_list_marks_hs_only_models():
    _, out = run_cli("list")
    line = [ln for ln in out.splitlines() if ln.strip().startswith("n2_c1:abc")]
    assert len(line) == 1
    assert "character: none (HS-only)" in line[0]
    assert "expect=ISO_CONSISTENT" in line[0]


def test_list_shows_expected_mismatch_degrees():
    _, out = run_cli("list")
    line = [ln for ln in out.splitlines() if ln.strip().startswith("lattice:3")]
    assert "expect=MISMATCH@8" in line[0]


def test_list_filter():
    code, out = run_cli("list", "--filter", "graph")
    assert code == 0
    body = [ln for ln in out.splitlines()
            if ln.startswith("  ") and "graph" not in ln.lower()]
    assert body == []
    assert "graph:A2" in out and "lattice:2" not in out


# ----------------------------------------------------------- registry

REGISTRY_TEXT = """
[model user:rr]
description difference-two single generator
variable x even 2
relation x(-1)^2
character rr
expect ISO_CONSISTENT
maxdeg2 12
"""


def test_registry_file_end_to_end(tmp_path):
    path = tmp_path / "extra.txt"
    path.write_text(REGISTRY_TEXT)
    code, out = run_cli("verify", "--registry", str(path),
                        "--model", "user:rr", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "ISO_CONSISTENT"
    code, out = run_cli("list", "--registry", str(path), "--filter", "user")
    assert code == 0 and "user:rr" in out


def test_registry_file_parse_failure(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("[model a]\nvariable x sideways 2\n")
    code, _ = run_cli("verify", "--registry", str(path), "--all",
                      "--maxdeg2", "4")
    assert code == 2


def test_registry_file_bad_relation_is_a_usage_error(tmp_path):
    """The ring is built when the file loads, so a zero denominator is a
    one-line error naming the file and the model, not a traceback."""
    path = tmp_path / "zero.txt"
    path.write_text("[model bad]\nvariable x even 2\nrelation 1/0*x(-1)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar.cli", "verify", "--registry",
         str(path), "--model", "bad"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1
    assert str(path) in proc.stderr and "model bad" in proc.stderr


@pytest.mark.parametrize("field", ["relation", "extra"])
def test_registry_file_constant_generator_gives_the_zero_quotient(tmp_path,
                                                                  field):
    """A constant generates the unit ideal: every jet dimension is 0 and
    the model, which has no character, verifies.  This ended in an
    IndexError traceback from the monomial enumerator."""
    path = tmp_path / "unit.txt"
    path.write_text("[model a]\nvariable x even 2\nvariable g odd 3\n"
                    "%s 1\nmaxdeg2 8\n" % field)
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar.cli", "verify", "--registry",
         str(path), "--model", "a", "--format", "csv"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [r["degree2"] for r in rows] == [str(d) for d in range(9)]
    assert all(r["jet_dim"] == "0" for r in rows)
    assert {r["verdict"] for r in rows} == {"ISO_CONSISTENT"}


def _verify_registry(path):
    return subprocess.run(
        [sys.executable, "-m", "jetchar.cli", "verify", "--registry",
         str(path), "--model", "a"],
        capture_output=True, text=True, timeout=60)


def test_registry_file_negative_maxdeg2_is_a_usage_error(tmp_path):
    """A negative truncation in a file is refused like ``--maxdeg2 -1``,
    not verified to an empty table."""
    path = tmp_path / "negative.txt"
    path.write_text("[model a]\nvariable x even 2\nmaxdeg2 -5\n")
    proc = _verify_registry(path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: registry error: %s:3: maxdeg2 must be "
                           ">= 0, got -5\n" % path)


@pytest.mark.parametrize("text, lineno, message", [
    ("variable x even two\n", 2,
     "variable weight2 must be an integer, got 'two'"),
    ("variable x even 2\nexpect MISMATCH@x\n", 3,
     "expect degree2 must be an integer, got 'x'"),
    ("variable x even 2\nmaxdeg2 ten\n", 3,
     "maxdeg2 must be an integer, got 'ten'"),
])
def test_registry_file_bad_integer_names_line_and_field(tmp_path, text,
                                                        lineno, message):
    path = tmp_path / "bad.txt"
    path.write_text("[model a]\n" + text)
    proc = _verify_registry(path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: registry error: %s:%d: %s\n" % (
        path, lineno, message)


def test_registry_file_relation_ending_in_an_operator_is_a_usage_error(
        tmp_path):
    """A relation line that lost its last term is refused in one line, not
    loaded as a different presentation and verified."""
    path = tmp_path / "cut.txt"
    path.write_text("[model a]\nvariable x even 2\nrelation x(-1)^2 -\n")
    proc = _verify_registry(path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: registry error: %s: model a: ValueError: "
                           "polynomial 'x(-1)^2 -' ends in an operator\n"
                           % path)


@pytest.mark.parametrize("record, message", [
    ("variable x even 2\ncharacter theta:2:9\n",
     "unknown formula key 'theta:2:9'"),
    ("variable x even 2\ncharacter graphsum:A9\n",
     "bad formula key 'graphsum:A9': unknown graph shape 'A9' (known: A1, "
     "A2, A3, A4, A5, A6, C3, C5, L1)"),
    ("expect ISO_CONSISTENT\n", "no variables"),
])
@pytest.mark.parametrize("command", [["verify", "--model", "a"], ["list"]])
def test_registry_file_bad_record_names_file_and_model(tmp_path, record,
                                                       message, command):
    """A record the ring or the character cannot be built from is refused
    in one unquoted line that names the file and the model."""
    path = tmp_path / "bad.txt"
    path.write_text("[model a]\n" + record)
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar.cli", command[0], "--registry",
         str(path)] + command[1:],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: registry error: %s: model a: %s\n" % (
        path, message)


def test_registry_file_cannot_shadow_builtin(tmp_path):
    path = tmp_path / "shadow.txt"
    path.write_text("[model lattice:2]\nvariable x even 2\n")
    code, _ = run_cli("list", "--registry", str(path))
    assert code == 2


def test_registry_file_duplicate_key_is_a_usage_error(tmp_path):
    """A second record with the same key is refused, not silently
    replacing the first."""
    path = tmp_path / "twice.txt"
    path.write_text("[model a]\nvariable x even 2\n\n"
                    "[model a]\nvariable y even 4\n")
    proc = _verify_registry(path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: registry error: %s:4: duplicate model "
                           "key 'a'\n" % path)


@pytest.mark.parametrize("maxdeg2", ["10", "14"])
def test_registry_file_early_mismatch_deviates_at_any_depth(tmp_path,
                                                            maxdeg2):
    """lattice:3 against theta:3 first mismatches at degree2 8, so an
    expected MISMATCH@12 deviates; a run stopped below 12 once read ok."""
    path = tmp_path / "early.txt"
    path.write_text("[model a]\nvariable x odd 3\nvariable y odd 3\n"
                    "variable z even 2\nrelation x(-3/2)^2\n"
                    "relation y(-3/2)^2\n"
                    "relation x(-3/2)*y(-3/2) - z(-1)^3\n"
                    "relation x(-3/2)*z(-1)\nrelation y(-3/2)*z(-1)\n"
                    "character theta:3\nexpect MISMATCH@12\n")
    code, out = run_cli("verify", "--registry", str(path), "--model", "a",
                        "--maxdeg2", maxdeg2)
    assert code == 1
    assert out.splitlines()[-1] == ("  verdict: MISMATCH at q^4 (degree2=8)"
                                    "  [expected MISMATCH@12: DEVIATES]")


def test_registry_file_missing(tmp_path):
    code, _ = run_cli("list", "--registry", str(tmp_path / "absent.txt"))
    assert code == 2


# ------------------------------------------------------------ process

def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar.cli", "expand", "theta:2",
         "--maxdeg2", "6", "--format", "csv"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "theta:2,6,6,7"


def test_package_entry_point_and_closed_stdout():
    """``python -m jetchar`` runs the cli; a reader that closes the pipe
    before the output is written ends the run without a traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar", "list", "--filter", "theta"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "  theta:2" in proc.stdout.splitlines()
    proc = subprocess.Popen([sys.executable, "-m", "jetchar", "list"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1, 2)
    assert err == b""


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ("list",), ("expand", "theta:2", "--maxdeg2", "4"),
    ("verify", "--model", "lattice:2", "--maxdeg2", "4")])
def test_closed_output_stream_ends_quietly(argv, capsys):
    assert main(list(argv), out=_ClosedPipe()) == 2
    assert capsys.readouterr().err == ""


def test_subprocess_error_goes_to_stderr():
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar.cli", "verify", "--model", "nope"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "nope" in proc.stderr
    assert proc.stdout == ""
