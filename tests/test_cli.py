"""End-to-end tests for the command-line interface, run in process
through main() with a captured output stream."""
import csv
import io
import json
import subprocess
import sys
import time

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


def test_verify_negative_maxdeg2_is_a_usage_error(capsys):
    code, out = run_cli("verify", "--model", "lattice:2", "--maxdeg2", "-1")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--maxdeg2" in err
    assert len(err.splitlines()) == 1


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


def test_registry_file_cannot_shadow_builtin(tmp_path):
    path = tmp_path / "shadow.txt"
    path.write_text("[model lattice:2]\nvariable x even 2\n")
    code, _ = run_cli("list", "--registry", str(path))
    assert code == 2


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


def test_subprocess_error_goes_to_stderr():
    proc = subprocess.run(
        [sys.executable, "-m", "jetchar.cli", "verify", "--model", "nope"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "nope" in proc.stderr
    assert proc.stdout == ""
