"""Command-line surface: outputs, exit codes, determinism."""

import csv
import inspect
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cyclofourier import (diagonalize, enumerate_characters, enumerate_groups, finab,
                          gauss_sum, groupalgebra, is_primitive, is_unit, isoverify,
                          standard_ring)
from cyclofourier import cli
from cyclofourier.cli import _emit_report, main
from cyclofourier.diagonalize import SplitVerificationError
from cyclofourier.report import DEFAULT_BUDGET, VerifyReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_text(capsys):
    code, out, _ = run_cli(capsys, "phi", "--n", "1")
    assert code == 0 and out.strip() == "X - 1"
    code, out, _ = run_cli(capsys, "phi", "--n", "12")
    assert code == 0 and out.strip() == "X^4 - X^2 + 1"


def test_phi_json(capsys):
    code, out, _ = run_cli(capsys, "phi", "--n", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["1", "0", "1"]


def test_verify_fourier_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "fourier", "--p", "2",
                           "--max-order", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify-fourier"
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["checks"]) > 0


def test_verify_gauss_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "gauss", "--p", "3", "--max-r", "2",
                           "--format", "text")
    assert code == 0
    assert out.strip().endswith("failed=0")


def test_verify_iso_with_dump(capsys):
    code, out, _ = run_cli(capsys, "verify", "iso", "--p", "2", "--max-order", "4",
                           "--natural-max-order", "4", "--dump-matrix")
    assert code == 0
    payload = json.loads(out)
    iso_checks = [c for c in payload["checks"] if c["id"].startswith("iso-")]
    assert len(iso_checks) == 4
    assert all("matrix" in c["witness"] for c in iso_checks)


def test_verify_criterion_oracle_deterministic(capsys):
    args = ("verify", "criterion-oracle", "--p", "2", "--r", "2",
            "--samples", "12", "--seed", "42")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["params"]["seed"] == 42
    assert payload["failed"] == 0


def test_verify_naturality(capsys):
    code, out, _ = run_cli(capsys, "verify", "naturality", "--p", "2",
                           "--max-order", "8")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_diag_outputs(capsys):
    code, out, _ = run_cli(capsys, "diag", "--modulus", "5", "--n", "4")
    assert code == 0
    assert json.loads(out) == {"decision": True, "witness": 2}
    code, out, _ = run_cli(capsys, "diag", "--modulus", "7", "--n", "4")
    assert code == 0
    assert json.loads(out) == {"decision": False, "reason": "no-cyclotomic-root"}
    code, out, _ = run_cli(capsys, "diag", "--modulus", "6", "--group", "2,2")
    assert code == 0
    assert json.loads(out) == {"decision": False, "reason": "n-not-invertible"}
    # an empty list of cyclic orders is the trivial group, as "," is
    for orders in ("", ","):
        code, out, _ = run_cli(capsys, "diag", "--modulus", "5", "--group", orders)
        assert code == 0
        assert json.loads(out) == {"decision": True, "witness": 1}


def test_diag_emit_iso(capsys):
    code, out, _ = run_cli(capsys, "diag", "--modulus", "5", "--n", "4", "--emit-iso")
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] is True
    assert payload["points"] == [1, 2, 4, 3]
    assert payload["matrix"][0] == [1, 1, 1, 1]


def test_gauss_table_csv(capsys):
    code, out, _ = run_cli(capsys, "gauss-table", "--p", "3", "--max-r", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].rstrip("\r") == "N,chi_exponents,u,sum_coeffs,is_unit"
    assert len(lines) == 1 + 2 * 3  # two characters, three shifts


def test_gauss_table_json(capsys):
    code, out, _ = run_cli(capsys, "gauss-table", "--p", "2", "--max-r", "2",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {row["N"] for row in rows} == {2, 4}
    assert all(set(row) == {"N", "chi_exponents", "u", "sum_coeffs", "is_unit"}
               for row in rows)


_GAUSS_TABLE_FIELDS = ["N", "chi_exponents", "u", "sum_coeffs", "is_unit"]


def _gauss_table_oracle(p, max_r, fmt):
    """The gauss-table output with one is_unit per row."""
    rows = []
    for r in range(1, max_r + 1):
        ring = standard_ring(p, r)
        for chi in enumerate_characters(p, r, ring):
            for u in range(p ** r):
                value = gauss_sum(chi, u=u)
                rows.append({"N": p ** r, "chi_exponents": ";".join(map(str, chi.exponents)),
                             "u": u, "sum_coeffs": ";".join(str(c) for c in value.coeffs),
                             "is_unit": is_unit(value)})
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_GAUSS_TABLE_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n") + "\n"


@pytest.mark.parametrize("p, max_r", [(2, 4), (3, 3), (5, 2)])
def test_gauss_table_matches_a_per_row_unit_oracle(capsys, p, max_r):
    for fmt in ("csv", "json"):
        code, out, _ = run_cli(capsys, "gauss-table", "--p", str(p), "--max-r", str(max_r),
                               "--format", fmt)
        assert code == 0 and out == _gauss_table_oracle(p, max_r, fmt)


def test_gauss_table_twisted_rows_reuse_the_base_flag(capsys, monkeypatch):
    def table():
        code, out, _ = run_cli(capsys, "gauss-table", "--p", "3", "--max-r", "3",
                               "--format", "json")
        assert code == 0
        return json.loads(out)

    before = table()
    bases = []  # G(chi, eps_1) of each chi, kept alive so ids stay unique
    real_sum, real_unit = cli.gauss_sum, cli.is_unit

    def marking_sum(chi, u=None, tau=None):
        value = real_sum(chi, u=u, tau=tau)
        if u == 1:
            bases.append(value)
        return value

    def base_not_a_unit(x):
        return False if any(x is b for b in bases) else real_unit(x)

    monkeypatch.setattr(cli, "gauss_sum", marking_sum)
    monkeypatch.setattr(cli, "is_unit", base_not_a_unit)
    after = table()
    primitive = {(3 ** r, ";".join(map(str, chi.exponents))): is_primitive(chi)
                 for r in (1, 2, 3) for chi in enumerate_characters(3, r, standard_ring(3, r))}
    flipped = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
    coprime = [i for i, row in enumerate(before) if row["u"] % 3]
    # every coprime row, imprimitive chi included, takes the flag of its base sum
    assert bases and all(not after[i]["is_unit"] for i in coprime)
    assert flipped == [i for i in coprime if before[i]["is_unit"]]
    assert any(not primitive[before[i]["N"], before[i]["chi_exponents"]] for i in flipped)
    assert all(before[i]["is_unit"] and not after[i]["is_unit"] for i in flipped)
    assert all({**a, "is_unit": None} == {**b, "is_unit": None} for a, b in zip(before, after))


def test_every_budgeted_entry_point_defaults_to_the_one_budget():
    assert cli.DEFAULT_BUDGET is DEFAULT_BUDGET == 10 ** 7
    entry_points = {
        (finab.enumerate_homs, "limit"), (isoverify.naturality_sweep, "limit"),
        (isoverify.natural_iso_sweep, "limit"), (isoverify.criterion_vs_determinant, "limit"),
        (groupalgebra.fourier_inversion_report, "limit"),
        (diagonalize.decide_diag_cyclic, "budget"), (diagonalize.decide_diag_group, "budget"),
        (diagonalize.vandermonde_iso, "budget"),
        (diagonalize.count_idempotents_group_algebra, "budget"),
        (cli._budget_from_env, "default"),
    }
    # any other function of the package with a defaulted budget parameter counts as well
    for module in (finab, isoverify, groupalgebra, diagonalize, cli):
        for _, fn in inspect.getmembers(module, inspect.isfunction):
            params = inspect.signature(fn).parameters
            entry_points.update((fn, name) for name in ("limit", "budget")
                                if name in params
                                and params[name].default is not inspect.Parameter.empty)
    # identity, so that a default written as its own 10 ** 7 literal fails
    for fn, name in entry_points:
        assert inspect.signature(fn).parameters[name].default is DEFAULT_BUDGET, fn
    args = cli.build_parser().parse_args(["diag", "--modulus", "5", "--n", "4"])
    assert args.budget is DEFAULT_BUDGET


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "diag", "--modulus", "5", "--n", "4",
                           "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"decision": True, "witness": 2}


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phi"])  # missing required --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_budget_exceeded_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("CYCLO_BUDGET", "10")
    code, _, err = run_cli(capsys, "diag", "--modulus", "1001", "--n", "4")
    assert code == 3
    assert "budget" in err


def test_naturality_respects_the_budget(capsys, monkeypatch):
    # The largest pair up to order 8, 2+2+2 -> 2+2+2, has 2^9 = 512 homs.
    for argv in (("verify", "naturality", "--p", "2", "--max-order", "8"),
                 ("verify", "iso", "--p", "2", "--max-order", "8",
                  "--natural-max-order", "8")):
        monkeypatch.setenv("CYCLO_BUDGET", "10")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("budget exceeded: ") and "the bound 10" in err
        monkeypatch.setenv("CYCLO_BUDGET", "512")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["failed"] == 0


def test_naturality_budget_is_checked_before_any_enumeration(capsys, monkeypatch):
    # Up to order 16 the largest pair, 2+2+2+2 -> 2+2+2+2, has 2^16 homs; smaller pairs fit.
    def no_enumeration(*args, **kwargs):
        raise AssertionError("homs enumerated before the budget check")

    def no_matrix(*args, **kwargs):
        raise AssertionError("matrix built before the budget check")

    monkeypatch.setattr(isoverify, "enumerate_homs", no_enumeration)
    monkeypatch.setattr(isoverify, "transform_matrix", no_matrix)
    monkeypatch.setenv("CYCLO_BUDGET", "65535")
    for argv in (("verify", "naturality", "--p", "2", "--max-order", "16"),
                 ("verify", "iso", "--p", "2", "--max-order", "16",
                  "--natural-max-order", "16")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err == ("budget exceeded: 65536 homomorphisms 2+2+2+2 -> 2+2+2+2 "
                       "exceed the bound 65535\n")


def test_closed_stdout_exits_141_quietly():
    # The 273 KB report outgrows a pipe buffer, so writing it meets the closed pipe.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen([sys.executable, "-m", "cyclofourier.cli", "verify", "gauss",
                           "--p", "2", "--max-r", "5"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_internal_errors_exit_four(capsys, monkeypatch):
    def broken_dual_hom(f):
        raise ArithmeticError("well-definedness violated; construction bug")

    def broken_split(n, m, witness, budget):
        raise SplitVerificationError("Vandermonde determinant 0 not a unit mod 5")

    def broken_gauss(p, r):
        raise ValueError("need p^r >= 2")

    monkeypatch.setattr(isoverify, "dual_hom", broken_dual_hom)
    monkeypatch.setattr(cli, "vandermonde_iso", broken_split)
    # a ValueError from inside the arithmetic is a bug, not a usage error
    monkeypatch.setattr(cli, "check_gauss_identities", broken_gauss)
    for argv in (("verify", "naturality", "--p", "2", "--max-order", "4"),
                 ("diag", "--modulus", "5", "--n", "4", "--emit-iso"),
                 ("verify", "gauss", "--p", "2", "--max-r", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and err.startswith("internal error: ")


def test_diag_emit_iso_respects_the_budget(capsys, monkeypatch):
    monkeypatch.delenv("CYCLO_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "diag", "--modulus", "31", "--n", "30", "--emit-iso")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and err.startswith("budget exceeded: ")
    # 16 * 2^16 = 1048576 expansion steps
    argv = ("diag", "--n", "16", "--modulus", "593", "--emit-iso")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(json.loads(out)["points"]) == 16
    code, out, err = run_cli(capsys, *argv, "--budget", "1000000")
    assert code == 3 and out == "" and "the budget 1000000" in err


def test_fourier_respects_the_budget(capsys, monkeypatch):
    monkeypatch.delenv("CYCLO_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "fourier", "--p", "2", "--max-order", "4096")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and err.startswith("budget exceeded: ")
    # sum over the groups of |V|^2 * M, M the exponent (the ring's conductor)
    estimate = sum(g.order ** 2 * g.exponent_value for g in enumerate_groups(3, 81))
    argv = ("verify", "fourier", "--p", "3", "--max-order", "81")
    monkeypatch.setenv("CYCLO_BUDGET", str(estimate))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["failed"] == 0
    monkeypatch.setenv("CYCLO_BUDGET", str(estimate - 1))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == "" and f"the bound {estimate - 1}" in err


def test_iso_respects_the_budget(capsys, monkeypatch):
    monkeypatch.delenv("CYCLO_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "iso", "--p", "2", "--max-order", "4096")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and err.startswith("budget exceeded: ")
    # n^3 * phi(M) for the largest group order n; the spike's ring has phi = 1
    estimate = max(g.order for g in enumerate_groups(5, 125)) ** 3
    argv = ("verify", "iso", "--p", "5", "--max-order", "125")
    monkeypatch.setenv("CYCLO_BUDGET", str(estimate))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["failed"] == 0
    monkeypatch.setenv("CYCLO_BUDGET", str(estimate - 1))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == "" and f"the bound {estimate - 1}" in err


def test_module_runs_as_a_script():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "cyclofourier.cli", "phi", "--n", "12"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0 and done.stdout == "X^4 - X^2 + 1\n"


def test_failing_report_maps_to_exit_one(capsys):
    report = VerifyReport("demo", {})
    report.add("a", "always fails", False)
    assert _emit_report(report, "text", None) == 1
    capsys.readouterr()


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_invalid_budget_env_is_a_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("CYCLO_BUDGET", raw)
    for argv in (("diag", "--modulus", "5", "--n", "4"),
                 ("verify", "fourier", "--p", "2", "--max-order", "2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "CYCLO_BUDGET" in err


def test_nonpositive_samples_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "report.json"
    for samples in ("-3", "0"):
        code, out, err = run_cli(capsys, "verify", "criterion-oracle", "--samples", samples,
                                 "--output", str(target))
        assert code == 2 and out == "" and not target.exists()
        assert err.count("\n") == 1 and "--samples" in err


def test_criterion_oracle_respects_the_budget(capsys, monkeypatch):
    # n^3 * phi(M)^2 for p = 3, r = 2: 27^3 * 6^2 = 708588.
    argv = ("verify", "criterion-oracle", "--p", "3", "--r", "2", "--samples", "1")
    monkeypatch.setenv("CYCLO_BUDGET", "100000")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("budget exceeded: ") and "the bound 100000" in err
    monkeypatch.setenv("CYCLO_BUDGET", "708588")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["failed"] == 0


@pytest.mark.parametrize("argv, flag", [
    (("verify", "criterion-oracle", "--extra-groups", "-1"), "--extra-groups"),
    (("verify", "gauss", "--max-r", "0"), "--max-r"),
    (("gauss-table", "--max-r", "0"), "--max-r"),
    (("verify", "fourier", "--p", "1"), "--p"),
    (("verify", "fourier", "--p", "4"), "--p"),
    (("gauss-table", "--p", "6"), "--p"),
    (("verify", "criterion-oracle", "--r", "0"), "--r"),
    (("verify", "fourier", "--p", "2", "--max-order", "0"), "--max-order"),
    (("verify", "fourier", "--p", "2", "--max-order", "-4"), "--max-order"),
    (("verify", "iso", "--natural-max-order", "-1"), "--natural-max-order"),
    (("phi", "--n", "0"), "--n"),
    (("diag", "--modulus", "5", "--n", "0"), "--n"),
    (("diag", "--modulus", "1", "--n", "4"), "--modulus"),
    (("diag", "--modulus", "-7", "--group", "2,2"), "--modulus"),
    (("diag", "--modulus", "5", "--group", "2,x"), "--group"),
    (("diag", "--modulus", "5", "--group", "2,0"), "--group"),
])
def test_invalid_flags_are_usage_errors(tmp_path, capsys, argv, flag):
    target = tmp_path / "report.out"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} must be ")


def test_unknown_alpha_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "iso", "--alpha", "foo")
    assert code == 2 and out == ""
    assert err == "error: unknown alpha function 'foo'\n"


@pytest.mark.parametrize("argv", [
    ("verify", "gauss", "--p", "2", "--max-r", "1"),
    ("diag", "--modulus", "5", "--n", "4"),
    ("phi", "--n", "4"),
    ("gauss-table", "--p", "2", "--max-r", "1", "--format", "json"),
])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report.out"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2 and out == "" and not target.parent.exists()
    assert err == f"error: cannot write --output {target}: No such file or directory\n"
