"""Command-line interface: commands, exit codes, report determinism."""

import json
import os
from fractions import Fraction as F

import pytest

from qsv.cli import main, parse_exact_value
from qsv.exact import ParamValue


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


@pytest.mark.parametrize("expr", ["q^²", "2²"])
def test_eval_non_ascii_digit_is_parse_error(capsys, expr):
    # str.isdigit accepts '²' but int() does not: it is no number
    code, out, err = run(capsys, "eval", expr)
    assert code == 2
    assert out == "" and "unexpected character '²'" in err


def test_check_all_non_ascii_digit_in_catalog_exit_2(capsys, tmp_path):
    catalog = tmp_path / "cube.qsv"
    catalog.write_text('identity cube {\n  anchor "t";\n  lhs = q^³;\n  rhs = q^3;\n}\n')
    code, out, err = run(capsys, "check-all", "--catalog", str(catalog))
    assert code == 2
    assert "unexpected character '³' at line 3, col 11" in err


@pytest.mark.parametrize("text, line, col, message", [
    ("identity x { params a; lhs = a; rhs = a; }\n"
     "identity x { params a; lhs = a; rhs = a; }\n", 2, 10, "duplicate identity id 'x'"),
    ("identity x {\n  params a;\n  lhs = b;\n  rhs = a;\n}\n", 1, 10,
     "identity 'x': undeclared parameter 'b' in lhs"),
    ("identity x {\n  params a; exps a; lhs = a; rhs = a;\n}\n", 1, 10,
     "identity 'x': params and exps overlap"),
], ids=["duplicate", "undeclared", "overlap"])
def test_list_invalid_record_in_catalog_exit_2(capsys, tmp_path, text, line, col, message):
    catalog = tmp_path / "bad.qsv"
    catalog.write_text(text)
    code, out, err = run(capsys, "list", "--catalog", str(catalog))
    assert code == 2
    assert f"{message} at line {line}, col {col}" in err


@pytest.mark.parametrize("value, shown", [
    ("i", "0+1i"), ("-i", "0-1i"), ("1+i", "1+1i"), ("0.35-0.1i", "0.35-0.1i"), ("0.5", "0.5+0i"),
])
def test_eval_numeric_subst_complex_values(capsys, value, shown):
    code, out, _ = run(capsys, "eval", "a", "--backend", "numeric", "--subst", f"a={value}")
    assert code == 0
    assert out.split()[0] == shown


@pytest.mark.parametrize("value", ["1+", "1+ii", "x", "1j", "nan", "inf", "1e400"])
def test_eval_numeric_subst_bad_value_exit_2(capsys, value):
    code, out, err = run(capsys, "eval", "a", "--backend", "numeric", "--subst", f"a={value}")
    assert code == 2
    assert f"bad value for 'a': {value!r}" in err


@pytest.mark.parametrize("argv, name, value", [
    (("eval", "poch(a;q)_inf", "--backend", "numeric"), "a", "nan"),
    (("check", "heine-original", "--backend", "numeric"), "q", "nan"),
    (("eval", "a"), "a", "q^-1"),
    (("check", "q-bin"), "z", "q^-2"),
], ids=["poch-nan", "check-q-nan", "qpow", "check-qpow"])
def test_subst_value_out_of_range_exit_2(capsys, argv, name, value):
    # a value no backend can take is a usage error, not a value or exit 3
    code, out, err = run(capsys, *argv, "--subst", f"{name}={value}")
    assert code == 2
    assert out == ""
    assert f"bad value for {name!r}: {value!r}" in err


@pytest.mark.parametrize("text,value", [
    ("q", ParamValue(F(1), 1)),
    ("-q", ParamValue(F(-1), 1)),
    ("1/2*q^3", ParamValue(F(1, 2), 3)),
    ("2", 2),
    ("-1/3*q", ParamValue(F(-1, 3), 1)),
    ("0", 0),
    ("q*2", ParamValue(F(2), 1)),
    ("(1/2)*q^3", ParamValue(F(1, 2), 3)),
])
def test_parse_exact_value(text, value):
    # an exact --subst value is a DSL expression: an integer binds an
    # exponent (as in a lineage sub(...)), anything else is c*q^m
    got = parse_exact_value(text)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("value", ["0.5", "+q", "q^-1", "q*b", "1+q", "1/0"])
def test_eval_exact_subst_bad_value_exit_2(capsys, value):
    code, out, err = run(capsys, "eval", "poch(a;q)_2", "--subst", f"a={value}")
    assert code == 2
    assert out == ""
    assert f"bad value for 'a': {value!r}" in err


@pytest.mark.parametrize("argv, subst", [
    (("eval", "a"), "a=1,a=q"),
    (("check", "q-bin"), "z=q,z=q^2"),
    (("eval", "a", "--backend", "numeric"), "a=1, a=2"),
], ids=["eval-exact", "check", "eval-numeric"])
def test_subst_duplicate_name_exit_2(capsys, argv, subst):
    name = subst[0]
    code, out, err = run(capsys, *argv, "--subst", subst)
    assert code == 2
    assert out == ""
    assert f"duplicate substitution name {name!r}" in err


def test_eval_backend_both_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "q + 1", "--backend", "both")
    assert code == 2
    assert out == ""
    assert "invalid choice" in err


def test_eval_numeric(capsys):
    code, out, _ = run(capsys, "eval", "psi()", "--backend", "numeric",
                       "--subst", "q=0.2")
    assert code == 0
    assert out.startswith("1.2")  # psi(0.2) ~ 1.2279


def test_eval_numeric_all_zero_sum(capsys):
    code, out, _ = run(capsys, "eval", "sum(k=0..inf; 0*q^k)", "--backend", "numeric")
    assert code == 0
    assert out.split()[0] == "0+0i"


@pytest.mark.parametrize("expr, subst, name", [
    ("q^n", "n=q", "n"),
    ("a*q^a", "a=q", "a"),
])
def test_eval_exact_exponent_slot_needs_integer_exit_2(capsys, expr, subst, name):
    # a name in an exponent position takes only an integer, as in check
    code, out, err = run(capsys, "eval", expr, "--subst", subst)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {name!r} needs an integer value"


@pytest.mark.parametrize("argv, name", [
    (("eval", "a", "--subst", "a=1,b=2"), "b"),
    (("eval", "a", "--subst", "q=q"), "q"),
    (("eval", "sum(k=0..inf; q^(k*n))", "--subst", "k=2,n=1"), "k"),
], ids=["extra-name", "exact-q", "bound-index"])
def test_eval_name_filling_no_slot_exit_2(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {name!r} is not a slot of the expression"


@pytest.mark.parametrize("argv, shown", [
    # a name in parameter and exponent positions fills both slots
    (("eval", "a*q^a", "--subst", "a=2", "--order", "8"), "0 0 2 0 0 0 0 0"),
    (("eval", "a*q^a", "--backend", "numeric", "--subst", "a=2"), "0.08+0i"),
    # a name only in parameter positions takes any value, -1 included
    (("eval", "poch(a;q)_2", "--subst", "a=-1", "--order", "6"), "2 2 0 0 0 0"),
], ids=["exact-both", "numeric-both", "param-only"])
def test_eval_binds_each_slot_of_a_name(capsys, argv, shown):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.split(" (")[0].strip() == shown


def test_eval_unbound_name_exit_2(capsys):
    code, out, err = run(capsys, "eval", "a")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: unbound names: ['a']; bind with --subst"


@pytest.mark.parametrize("expr", [
    "y^(-1) * (y + y^2)", "(y + y^2) / y", "(y^2 + y^3) / (y * y)"])
def test_eval_negative_prefactor_shifts_down(capsys, expr):
    # a product's prefactor q^(-1) or q^(-2) takes its series parts past the
    # order, and the coefficients the shift drops are zero
    code, out, _ = run(capsys, "eval", expr, "--subst", "y=q", "--order", "6")
    assert code == 0
    assert out.strip() == "1 1 0 0 0 0"


@pytest.mark.parametrize("expr, subst", [
    ("a^(-1) * (1 + a)", "a=q"),     # q^(-1) + 1
    ("(y + y^2) / (y * y)", "y=q"),  # q^(-1) + 1: only the last dropped coefficient is 1
    ("y^(-1)", "y=q"), ("2*y^(-1)", "y=q"),  # no series part to shift
])
def test_eval_negative_valuation_exit_3(capsys, expr, subst):
    code, out, err = run(capsys, "eval", expr, "--subst", subst, "--order", "6")
    assert code == 3
    assert out == "" and "NegativeQPower" in err


def test_eval_negative_prefactor_in_a_sum_term(capsys):
    # the k = 0 term's prefactor is q^(-1); later terms step the running series
    code, out, _ = run(capsys, "eval", "sum(k=0..inf; y^(-1) * (y + y^2) * q^k)",
                       "--subst", "y=q", "--order", "6")
    assert code == 0
    assert out.strip() == "1 2 2 2 2 2"


def test_eval_subst_negative_qpow_value_exit_2(capsys):
    # a substituted value is still a monomial with q-power >= 0
    code, out, err = run(capsys, "eval", "a", "--subst", "a=1/q")
    assert code == 2
    assert out == "" and "bad value for 'a': '1/q'" in err


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


def test_check_exponent_slot_needs_integer_exit_2(capsys):
    code, out, err = run(capsys, "check", "gb-sym-heine", "--order", "8",
                         "--subst", "h=q,t=1")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: 'h' needs an integer value"


HEINE_R3 = "q=0.5,a=0.3,b=0.2,x=1,z=0.4,c={c}"


def test_check_numeric_large_parameter_passes(capsys):
    code, out, _ = run(capsys, "check", "heine-original", "--backend", "numeric",
                       "--subst", HEINE_R3.format(c=1025))
    assert code == 0
    assert "pass" in out


@pytest.mark.xfail(strict=True, reason="R3 (ROADMAP item 1): the sum converges, but its "
                   "terms peak near 1.4e140 and trip the size guard of "
                   "numeric.sum_with_tail_bound (NonConvergence: terms are diverging)")
def test_check_numeric_huge_parameter_passes_r3(capsys):
    code, out, _ = run(capsys, "check", "heine-original", "--backend", "numeric",
                       "--subst", HEINE_R3.format(c=1073741824))
    assert code == 0


def test_check_both_backends(capsys):
    code, out, _ = run(capsys, "check", "1.6.6", "--backend", "both",
                       "--order", "32")
    assert code == 0
    assert "[exact]" in out and "[numeric]" in out


@pytest.mark.parametrize("rid, name, value", [
    ("gb-sym-heine", "q", "0.3"),  # no exact value
    ("q-bin", "z", "q"),           # no numeric value
])
def test_check_both_takes_values_both_readers_accept(capsys, rid, name, value):
    code, out, err = run(capsys, "check", rid, "--backend", "both",
                         "--subst", f"{name}={value}")
    assert code == 2
    assert out == "" and f"bad value for {name!r}: {value!r}" in err


def test_check_all_numeric_filtered(capsys):
    code, out, _ = run(capsys, "check-all", "--backend", "numeric",
                       "--filter", "gri-")
    assert code == 0
    assert "mismatch" in out  # the summary line


def test_check_unknown_id_exit_2(capsys):
    code, _, err = run(capsys, "check", "nosuch-id")
    assert code == 2


def test_check_fundamental_lemma_shift_1_exact(capsys):
    code, out, _ = run(capsys, "check", "andrews-fl-r2-s1", "--backend", "exact")
    assert code == 0
    assert "summary: 5 pass, 0 mismatch, 0 error" in out
    code, _, err = run(capsys, "check", "andrews-fl-r2-s1", "--backend", "exact",
                       "--subst", "not-a-binding")
    assert code == 2
    assert "bad substitution item 'not-a-binding'" in err


def test_backend_clause_is_unknown_exit_2(capsys, tmp_path):
    catalog = tmp_path / "old.qsv"
    catalog.write_text('identity old {\n  anchor "t";\n  backend numeric;\n'
                       '  lhs = 1;\n  rhs = 1;\n}\n')
    code, out, err = run(capsys, "check-all", "--catalog", str(catalog))
    assert code == 2
    assert "unknown clause 'backend' at line 3, col 3" in err


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
    for backend in ("numeric", "exact"):
        code, out, _ = run(capsys, *command, "--backend", backend,
                           "--catalog", str(catalog))
        assert code == 3
        assert "never" in out and "(no admissible grid point)" in out
        assert "summary: 0 pass, 0 mismatch, 1 error" in out


@pytest.mark.parametrize("lhs", [
    "q^64 / (poch(2; q)_2 + 1)",
    "sum(k=0..inf; q^(k+64) / (poch(2; q)_2 + 1))",
    "msum(j, k; q^(j+k+64) / (poch(2; q)_2 + 1))",
])
def test_non_unit_denominator_never_passes(capsys, tmp_path, lhs):
    # the left side is q^63/2 (a Laurent series), not 0: the denominator
    # (1-2)(1-2q) + 1 = 2q has no constant term
    catalog = tmp_path / "nonunit.qsv"
    catalog.write_text(f"""
identity nonunit {{
  anchor "t";
  lhs = {lhs};
  rhs = 0;
}}
""")
    for order in ("64", "65"):
        code, out, _ = run(capsys, "check", "nonunit", "--catalog", str(catalog),
                           "--order", order)
        assert code == 3
        assert "summary: 0 pass, 0 mismatch, 1 error" in out
        assert "ZeroConstantTerm" in out


@pytest.mark.parametrize("option,value,message", [
    ("--order", "0", "must be at least 1"),
    ("--order", "-3", "must be at least 1"),
    ("--tolerance", "0", "must be a finite number > 0"),
    ("--tolerance", "-1", "must be a finite number > 0"),
    ("--tolerance", "nan", "must be a finite number > 0"),
    ("--tolerance", "inf", "must be a finite number > 0"),
])
@pytest.mark.parametrize("command", [("check", "unequal"), ("check-all",),
                                     ("eval", "poch(q;q)_inf")])
def test_order_or_tolerance_out_of_range_is_usage_error(capsys, tmp_path, command,
                                                        option, value, message):
    # truncated to no coefficients, the two sides 1 and 2 would compare
    # equal; at tolerance -1 a numeric check would run each sum to the cap
    catalog = tmp_path / "unequal.qsv"
    catalog.write_text('identity unequal { anchor "t"; lhs = 1; rhs = 2; }')
    where = () if command[0] == "eval" else ("--catalog", str(catalog))
    code, out, err = run(capsys, *command, *where, f"{option}={value}")
    assert code == 2
    assert out == "" and f"{option}: {message}" in err


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
