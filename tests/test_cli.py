"""Command-line surface: outputs, exit codes, determinism."""

import csv
import hashlib
import inspect
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cyclofourier import (diagonalize, enumerate_characters, enumerate_groups, finab,
                          gauss_sum, groupalgebra, is_primitive, is_unit, isoverify,
                          standard_ring)
from cyclofourier import chargauss, cli
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


# CLI outputs, at the default budget, that no digest in bench/digests.json pins:
# the dumped matrices are transform_matrix's output verbatim.
STDOUT_DIGESTS = [
    (("verify", "iso", "--p", "2", "--max-order", "16", "--dump-matrix"),
     "14c7e0401da0b5fb4374635b99e74bbffa47ef025166dafd1550b66fbb3a7711"),
    (("verify", "iso", "--p", "3", "--max-order", "27", "--dump-matrix"),
     "83e25c9ef22e64a8249c9f60307d735522ba85d7a4d99a95c1f6711586092137"),
    (("verify", "criterion-oracle", "--p", "2", "--r", "2"),
     "6d190e7ab2cf36d5d57cb0c899a131cd4eb248bb0c6aa4af37eace16008896c0"),
]


@pytest.mark.parametrize("argv, digest", STDOUT_DIGESTS,
                         ids=[" ".join(argv[1:]) for argv, _ in STDOUT_DIGESTS])
def test_stdout_bytes_are_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("CYCLO_BUDGET", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["failed"] == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Every check at its defaults, in each format, for p = 2, 3, 5.  Left out: the
# configurations whose bytes another pin holds (criterion-oracle --p 2 json
# above; naturality --p 2 json in CI; fourier --p 2 and iso --p 5 json, equal to
# the stored digests of --max-order 32 and 125) and the runs over one second
# (verify gauss --p 5, gauss-table --p 5, criterion-oracle --p 3).
DEFAULT_STDOUT_DIGESTS = [
    (("verify", "fourier", "--p", "2", "--format", "text"),
     "637d0778bbff62cc9a2b1789409cf45598b7276b6b24ea7f985aedba7cc1231b"),
    (("verify", "fourier", "--p", "3", "--format", "json"),
     "958aca977c7174ffaba9586462ee82b84ed9140c1fb551c798800b9cffb1c324"),
    (("verify", "fourier", "--p", "3", "--format", "text"),
     "d2816962bde590e68ac823a797d8d7843579c9074df5a9d0f3f68c5c5b00de38"),
    (("verify", "fourier", "--p", "5", "--format", "json"),
     "45f8e4f77a47620b2b99bced9745857f2bb41b740636a115c5c933fe19ee29c4"),
    (("verify", "fourier", "--p", "5", "--format", "text"),
     "8b02bcd04da0b874148742233874f35811b07570574debfeed9c496cfb814e96"),
    (("verify", "gauss", "--p", "2", "--format", "json"),
     "7549ff7deab7ccfb59c57f962472cf3c6bab12dce41b2303f7b174a314b08164"),
    (("verify", "gauss", "--p", "2", "--format", "text"),
     "baf3d4ec44d7ed2d3c9356a372e479cff9da47a56c9287c712dfd2812537d0ef"),
    (("verify", "gauss", "--p", "3", "--format", "json"),
     "58b3066eccd9cde64d39d339a02c5f9d23c5ed09b8ed122661620b56665313c3"),
    (("verify", "gauss", "--p", "3", "--format", "text"),
     "9a4b300f7375bee3a9e2d7e1b1979f72dc04cfcaf2ebe787f5991c50a3697625"),
    (("verify", "iso", "--p", "2", "--format", "json"),
     "d0874ee985924919138da4beeb90f893da744abb357a2c4c695dc5550eda1572"),
    (("verify", "iso", "--p", "2", "--format", "text"),
     "a553e76a15dbde29354299e5e95ccee1460a0b70cc3a29fa5f226c0cf4a9cd2d"),
    (("verify", "iso", "--p", "3", "--format", "json"),
     "1256c248a64e0d71b00b10583a5e68dff59327dbdbd54e17ec93a35873a28169"),
    (("verify", "iso", "--p", "3", "--format", "text"),
     "d260d5d047c3a4dcfe1cd7c0bc211b2899a28f9c1182dd0f9be047eae5871b41"),
    (("verify", "iso", "--p", "5", "--format", "text"),
     "eaf6bed56adf03db05fdd89317472f68869331665ddf9e5871695c09caf11829"),
    (("verify", "criterion-oracle", "--p", "2", "--format", "text"),
     "4cce84d7c739c3043f06b58ad4c42871416960ac3caa923fde727ccb449d3c2e"),
    (("verify", "naturality", "--p", "2", "--format", "text"),
     "8eb143d35308145ad8b153230147c381f063a3c150872a28540d549d04317d12"),
    (("verify", "naturality", "--p", "3", "--format", "json"),
     "0f33816b24aa9136f06e61a9344d7a27788fb39de4ddab0e087d2650cc2169a8"),
    (("verify", "naturality", "--p", "3", "--format", "text"),
     "19b36c4d76427ae683eb5f56cf9563507e0c5efbbbbe6ea3eb4e6bb2e93a2b11"),
    (("verify", "naturality", "--p", "5", "--format", "json"),
     "3e276cc58b799a0adeb46c10b77b1d06bbdefcacecd9202c76759b394eeb558e"),
    (("verify", "naturality", "--p", "5", "--format", "text"),
     "7ecacdbf738648b575800b042fef204f6eb40ea7fa77726d76d871f646d6ad0e"),
    (("gauss-table", "--p", "2", "--format", "csv"),
     "2c97bf3b0c3d204d6505bdc166c739253f73084b38ffa99d5d715c40ec7a6be7"),
    (("gauss-table", "--p", "2", "--format", "json"),
     "b55fd34e946b51b7b11e6c6140918532eadc6c401ab7cff5757ebc76b29d263f"),
    (("gauss-table", "--p", "3", "--format", "csv"),
     "9287ddb8d4a9cd16db352f0d91b5043509710f187826aa92365f4a608537374b"),
    (("gauss-table", "--p", "3", "--format", "json"),
     "2d64eea91579743dfc84d0daf0e985574a552a1232fc015daf207c9e167c7fdb"),
]


@pytest.mark.parametrize("argv, digest", DEFAULT_STDOUT_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in DEFAULT_STDOUT_DIGESTS])
def test_default_stdout_bytes_are_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("CYCLO_BUDGET", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_criterion_oracle_at_p5_defaults_exits_3(capsys, monkeypatch, fmt):
    monkeypatch.delenv("CYCLO_BUDGET", raising=False)
    code, out, err = run_cli(capsys, "verify", "criterion-oracle", "--p", "5", "--format", fmt)
    assert (code, out) == (3, "")
    assert err == ("budget exceeded: 125x125 determinants over Z[zeta_100] "
                   "exceed the bound 10000000\n")


def test_every_benchmark_report_matches_its_stored_digest(monkeypatch, tmp_path):
    # The reports the benchmark pins, written through --output; bench/ is only read.
    digests = Path(__file__).resolve().parents[1] / "bench" / "digests.json"
    reports = json.loads(digests.read_text(encoding="utf-8"))["reports"]
    monkeypatch.delenv("CYCLO_BUDGET", raising=False)
    output = tmp_path / "report"
    differ = []
    for key, digest in reports.items():
        output.unlink(missing_ok=True)
        code = main(key.split() + ["--output", str(output)])
        if code != 0 or hashlib.sha256(output.read_bytes()).hexdigest() != digest:
            differ.append((key, code))
    assert reports and differ == []


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


@pytest.mark.parametrize("orders, m, n, expected", [
    ("2,2", 5, 2, {"decision": True, "witness": 4}),  # root of X + 1 mod 5
    ("4", 7, 4, {"decision": False, "reason": "no-cyclotomic-root"}),
    ("", 9, 1, {"decision": True, "witness": 1}),  # the trivial group
    ("2,2", 6, 2, {"decision": False, "reason": "n-not-invertible"}),
    ("2,3", 7, 6, {"decision": True, "witness": 3}),  # exponent lcm(2, 3) = 6
])
def test_diag_group_decides_its_exponent(capsys, orders, m, n, expected):
    code, out, _ = run_cli(capsys, "diag", "--modulus", str(m), "--group", orders)
    assert code == 0 and json.loads(out) == expected
    assert run_cli(capsys, "diag", "--modulus", str(m), "--n", str(n))[1] == out


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
                assert value.exp == 0  # a Gauss sum lies in Z[zeta_N]
                rows.append({"N": p ** r, "chi_exponents": ";".join(map(str, chi.exponents)),
                             "u": u, "sum_coeffs": ";".join(map(str, value.nums)),
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
    real_sum, real_unit = chargauss.gauss_sum, chargauss.is_unit

    def marking_sum(chi, u):
        value = real_sum(chi, u=u)
        if u == 1:
            bases.append(value)
        return value

    def base_not_a_unit(x):
        return False if any(x is b for b in bases) else real_unit(x)

    monkeypatch.setattr(chargauss, "gauss_sum", marking_sum)
    monkeypatch.setattr(chargauss, "is_unit", base_not_a_unit)
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
        (diagonalize.decide_diag_cyclic, "limit"), (chargauss.gauss_table_rows, "limit"),
        (diagonalize.vandermonde_iso, "limit"),
        (diagonalize.count_idempotents_group_algebra, "limit"),
    }
    # any other function of the package with a defaulted budget parameter counts as well
    for module in (finab, isoverify, groupalgebra, chargauss, diagonalize, cli):
        for _, fn in inspect.getmembers(module, inspect.isfunction):
            params = inspect.signature(fn).parameters
            entry_points.update((fn, name) for name in ("limit", "budget")
                                if name in params
                                and params[name].default is not inspect.Parameter.empty)
    # identity, so that a default written as its own 10 ** 7 literal fails
    for fn, name in entry_points:
        assert inspect.signature(fn).parameters[name].default is DEFAULT_BUDGET, fn
    # CYCLO_BUDGET is the one knob: no command has a budget flag
    args = cli.build_parser().parse_args(["diag", "--modulus", "5", "--n", "4"])
    assert not hasattr(args, "budget")


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

    def broken_split(n, m, witness, limit):
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
    monkeypatch.setenv("CYCLO_BUDGET", "1000000")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == "" and "the budget 1000000" in err


def test_fourier_respects_the_budget(capsys, monkeypatch):
    monkeypatch.delenv("CYCLO_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "fourier", "--p", "2", "--max-order", "4096")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and err.startswith("budget exceeded: ")
    # sum over the groups of n (n (r + 2c + 7) + 9 M c + 2): n the order, r the rank,
    # M the exponent (the ring's conductor) and c = p - 1
    estimate = sum(n * (n * (len(g.exponents) + 2 * 2 + 7) + 9 * g.exponent_value * 2 + 2)
                   for g in enumerate_groups(3, 81) for n in [g.order])
    assert estimate == 680_338
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
    assert code == 3 and out == ""
    assert err == ("budget exceeded: 125x125 determinants over Z[1/5] "
                   f"exceed the bound {estimate - 1}\n")
    # the spike's ring is Z[1/p], the conductor-1 ring, whatever the group
    monkeypatch.delenv("CYCLO_BUDGET")
    code, out, err = run_cli(capsys, "verify", "iso", "--p", "7")
    assert code == 3 and out == ""
    assert err == "budget exceeded: 343x343 determinants over Z[1/7] exceed the bound 10000000\n"


@pytest.mark.parametrize("argv", [
    ("phi", "--n", "1000000000000"),
    ("diag", "--n", "1000000000001", "--modulus", "2"),
    ("verify", "criterion-oracle", "--p", "1000003", "--r", "1"),
    ("verify", "gauss", "--p", "1000003", "--max-r", "1"),
    ("gauss-table", "--p", "1000003", "--max-r", "1"),
    ("verify", "gauss", "--p", "2305843009213693951", "--max-r", "1"),
    ("verify", "fourier", "--p", "2", "--max-order", str(10 ** 30)),
    ("verify", "iso", "--p", "2", "--max-order", str(10 ** 30)),
    ("verify", "naturality", "--p", "2", "--max-order", str(10 ** 30)),
    ("verify", "criterion-oracle", "--samples", "1000000000"),
    ("verify", "criterion-oracle", "--samples", "1", "--extra-groups", "1000000000"),
], ids=["phi", "diag", "criterion-oracle", "gauss", "gauss-table", "gauss-mersenne-61",
        "fourier-order", "iso-order", "naturality-order", "criterion-samples",
        "criterion-extra-groups"])
def test_huge_inputs_exit_3_at_once(capsys, monkeypatch, argv):
    # each estimate comes from integers alone, before any ring or polynomial is built
    # and before any group is listed or any sample drawn
    monkeypatch.delenv("CYCLO_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and err.startswith("budget exceeded: ")


def test_new_budget_estimates_are_exact_thresholds(capsys, monkeypatch):
    # phi: 5 n^2; verify gauss and gauss-table: sum over levels of N phi(N)^2 terms;
    # criterion-oracle: samples * (1 + extra_groups) verdicts, as p = 2, r = 1 has
    # 2^3 * phi(4)^2 = 32 per determinant
    terms = sum(3 ** r * (2 * 3 ** (r - 1)) ** 2 for r in (1, 2, 3))
    criterion = ("verify", "criterion-oracle", "--p", "2", "--r", "1", "--samples", "40",
                 "--extra-groups", "0")
    for argv, estimate in ((("phi", "--n", "12"), 5 * 12 ** 2),
                           (("verify", "gauss", "--p", "3", "--max-r", "3"), terms),
                           (("gauss-table", "--p", "3", "--max-r", "3"), terms),
                           (criterion, 40)):
        monkeypatch.setenv("CYCLO_BUDGET", str(estimate))
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        monkeypatch.setenv("CYCLO_BUDGET", str(estimate - 1))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "" and f"{estimate - 1}" in err, argv


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
    # the smallest strong pseudoprime to the 13 Miller-Rabin bases: no proof is made
    (("verify", "gauss", "--p", "3317044064679887385961981"), "--p"),
])
def test_invalid_flags_are_usage_errors(tmp_path, capsys, argv, flag):
    target = tmp_path / "report.out"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} must be ")


_CHECK_FLAGS = {
    "fourier": {"--max-order"},
    "gauss": {"--max-r"},
    "iso": {"--max-order", "--natural-max-order", "--dump-matrix"},
    "criterion-oracle": {"--r", "--samples", "--seed", "--extra-groups"},
    "naturality": {"--max-order"},
}


@pytest.mark.parametrize("check, flag", [
    (check, flag) for check, own in _CHECK_FLAGS.items()
    for flag in sorted({"--alpha"}.union(*_CHECK_FLAGS.values()) - own)])
def test_a_flag_the_check_does_not_read_is_a_usage_error(tmp_path, capsys, check, flag):
    target = tmp_path / "report.out"
    value = [] if flag == "--dump-matrix" else ["1"]
    code, out, err = run_cli(capsys, "verify", check, "--p", "2", flag, *value,
                             "--output", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert err == f"error: unrecognized arguments: {' '.join([flag, *value])}\n"


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
             if line.startswith("cyclofourier ")]
    assert argvs, "no cyclofourier command line in the README's CLI block"
    return argvs


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_lines_exit_zero(capsys, monkeypatch, argv):
    monkeypatch.delenv("CYCLO_BUDGET", raising=False)
    assert run_cli(capsys, *argv)[0] == 0


def test_each_check_defaults_its_orders_to_the_prime(capsys, monkeypatch):
    calls = []

    def record(name):
        def sweep(p, max_order, **kwargs):
            calls.append((name, p, max_order, kwargs.get("hom_order_bound")))
            return VerifyReport(name, {})
        return sweep

    for name in ("fourier_inversion_report", "natural_iso_sweep", "naturality_sweep"):
        monkeypatch.setattr(cli, name, record(name))
    for check in ("fourier", "iso", "naturality"):
        for p in (2, 3, 5):
            assert run_cli(capsys, "verify", check, "--p", str(p))[0] == 0
    assert calls == [
        ("fourier_inversion_report", 2, 32, None), ("fourier_inversion_report", 3, 27, None),
        ("fourier_inversion_report", 5, 125, None),
        ("natural_iso_sweep", 2, 32, 16), ("natural_iso_sweep", 3, 27, 27),
        ("natural_iso_sweep", 5, 125, 1),
        ("naturality_sweep", 2, 16, None), ("naturality_sweep", 3, 16, None),
        ("naturality_sweep", 5, 1, None),
    ]


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
