"""Command-line interface: commands, exit codes, report determinism."""

import json
import os

import pytest

from qsv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval -----------------------------------------------------------------------


def test_eval_psi_golden(capsys):
    code, out, _ = run(capsys, "eval", "psi()", "--order", "16")
    assert code == 0
    assert out.strip() == "1 1 0 1 0 0 1 0 0 0 1 0 0 0 0 1"


def test_eval_partition_golden(capsys):
    code, out, _ = run(capsys, "eval", "1/poch(q;q)_inf", "--order", "10")
    assert code == 0
    assert out.strip() == "1 1 2 3 5 7 11 15 22 30"


def test_eval_rational_coefficients(capsys):
    code, out, _ = run(capsys, "eval", "poch(a;q)_2", "--order", "4",
                       "--subst", "a=1/2*q")
    assert code == 0
    assert out.strip() == "1 -1/2 -1/2 1/4"


def test_eval_nontruncatable_exit_3(capsys):
    code, out, err = run(capsys, "eval", "poch(z;q)_inf", "--subst", "z=1")
    assert code == 3
    assert "NonTruncatable" in err


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "poch(q; q)_(")
    assert code == 2


def test_eval_numeric(capsys):
    code, out, _ = run(capsys, "eval", "psi()", "--backend", "numeric",
                       "--subst", "q=0.2")
    assert code == 0
    assert out.startswith("1.2")  # psi(0.2) ~ 1.2279


# -- check ----------------------------------------------------------------------


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "entry-1.6.6", "--order", "64")
    assert code == 0
    assert "pass" in out


def test_check_numeric_with_subst(capsys):
    code, out, _ = run(capsys, "check", "gb-sym-heine", "--backend", "numeric",
                       "--subst", "h=1.5,t=0.7")
    assert code == 0
    assert "pass" in out


def test_check_negative_exponent_exit_3(capsys):
    code, out, err = run(capsys, "check", "gb-sym-heine", "--order", "8",
                         "--subst", "h=-1,t=1")
    assert code == 3
    assert err.strip().splitlines() == [
        "error: NonIntegerExponent: exponent symbol 'h' must be a "
        "non-negative integer, got -1"]


def test_check_both_backends(capsys):
    code, out, _ = run(capsys, "check", "1.6.6", "--backend", "both",
                       "--order", "32")
    assert code == 0
    assert "[exact]" in out and "[numeric]" in out


def test_check_all_numeric_filtered(capsys):
    code, out, _ = run(capsys, "check-all", "--backend", "numeric",
                       "--filter", "gri-")
    assert code == 0
    assert "mismatch" in out  # the summary line


def test_check_unknown_id_exit_2(capsys):
    code, _, err = run(capsys, "check", "nosuch-id")
    assert code == 2


def test_check_numeric_only_under_exact_exit_3(capsys):
    code, out, _ = run(capsys, "check", "andrews-fl-r2-s1", "--backend", "exact")
    assert code == 3
    # the exact check never reads --subst, so a malformed one is no usage error
    code, out, _ = run(capsys, "check", "andrews-fl-r2-s1", "--backend", "exact",
                       "--subst", "not-a-binding")
    assert code == 3
    assert "record is numeric-only" in out


@pytest.mark.parametrize("command", [("check", "never"), ("check-all",)])
def test_no_admissible_grid_point_exit_3(capsys, tmp_path, command):
    catalog = tmp_path / "never.qsv"
    catalog.write_text("""
identity never {
  anchor "t";
  params z;
  constraints abs(z) < 0;
  lhs = z;
  rhs = z;
}
""")
    code, out, _ = run(capsys, *command, "--backend", "numeric",
                       "--catalog", str(catalog))
    assert code == 3
    assert "never" in out and "(no admissible grid point)" in out
    assert "summary: 0 pass, 0 mismatch, 1 error" in out


def test_check_all_filtered(capsys, tmp_path):
    report = tmp_path / "r.json"
    code, out, _ = run(capsys, "check-all", "--filter", "1.6.6",
                       "--order", "32", "--report", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    ids = {entry["id"] for entry in doc["results"]}
    assert ids == {"gb-1.6.6", "1.6.6", "entry-1.6.6", "gb-1.6.6a",
                   "entry-1.6.6-companion"}
    assert doc["summary"]["failed"] == 0


def test_check_all_reports_deterministic(capsys, tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (r1, r2):
        code, _, _ = run(capsys, "check-all", "--filter", "1.4.1",
                         "--order", "24", "--report", str(path))
        assert code == 0
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    for entry in d1["results"] + d2["results"]:
        entry["wall_ms"] = 0
    assert d1 == d2


# -- list / lineage ----------------------------------------------------------------


def test_list_all(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l and not l.startswith("6")]
    assert len(lines) >= 44


def test_list_filter(capsys):
    code, out, _ = run(capsys, "list", "--filter", "1.4.")
    assert code == 0
    body = out.strip().splitlines()
    assert all("1.4." in line or line.endswith("identities") for line in body)


def test_list_missing_catalog_exit_2(capsys):
    code, _, err = run(capsys, "list", "--catalog", "/nonexistent/file.qsv")
    assert code == 2


def test_lineage_direct(capsys):
    code, out, _ = run(capsys, "lineage", "1.4.1")
    assert code == 0
    assert "parent=gb-1.4.1" in out
    assert "pass" in out


def test_lineage_metadata_only(capsys):
    code, out, _ = run(capsys, "lineage", "1.4.17")
    assert code == 0
    assert "metadata" in out


def test_env_var_catalog(capsys, tmp_path, monkeypatch):
    alt = tmp_path / "mini.qsv"
    alt.write_text("""
identity only-one {
  anchor "t";
  params a;
  lhs = poch(a; q)_1;
  rhs = 1 - a;
}
""")
    monkeypatch.setenv("QSV_CATALOG", str(alt))
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "only-one" in out
    assert "1 identities" in out
    # explicit flag wins over the environment variable
    code, out, _ = run(capsys, "list", "--catalog",
                       os.path.join(os.path.dirname(__import__("qsv").__file__),
                                    "catalog", "identities.qsv"))
    assert "gb-sym-heine" in out
