"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

import json
import time

import pytest

import run

SMALL = [
    ["verify", "fourier", "--p", "2", "--max-order", "8"],
    ["verify", "iso", "--p", "2", "--max-order", "8", "--natural-max-order", "4"],
    ["verify", "criterion-oracle", "--p", "2", "--r", "2", "--samples", "3"],
    ["verify", "gauss", "--p", "2", "--max-r", "2"],
    ["diag", "--n", "4", "--modulus", "13", "--emit-iso"],
]
STORED = ["verify", "fourier", "--p", "5", "--max-order", "25"]
NO_DIGESTS = {"reports": {}, "checks": {}}


@pytest.fixture
def spawner(tmp_path):
    return run.Spawner(tmp_path, time.monotonic() + 120.0)


@pytest.fixture(scope="module")
def digests():
    return run.load_digests()


def test_tracer_leaves_report_bytes_unchanged(spawner):
    for argv in SMALL:
        plain, plain_bytes = spawner.run(argv, False)
        traced, traced_bytes = spawner.run(argv, True)
        assert plain.failure is None and traced.failure is None
        assert plain_bytes == traced_bytes, argv
        assert traced.trace["spans"]["cli.main"]["calls"] == 1


def test_spans_cover_every_binding(spawner):
    # `CycloElem.__rmul__ = __mul__`, names bound by `from .x import y`, and a
    # generator timed per next() all record calls.
    gauss, _ = spawner.run(["verify", "gauss", "--p", "3", "--max-r", "1"], True)
    assert gauss.trace["spans"]["exactring.CycloElem.__mul__"]["calls"] > 0
    assert gauss.trace["spans"]["chargauss.check_gauss_identities"]["calls"] == 1
    iso, _ = spawner.run(SMALL[1], True)
    spans = iso.trace["spans"]
    assert spans["finab.element_index"]["calls"] > 0  # bound in isoverify by import
    assert spans["matrix.determinant"]["calls"] > 0
    homs = iso.trace["items"]["finab.enumerate_homs"]
    assert 0 < homs < spans["finab.enumerate_homs"]["calls"]  # + one StopIteration each
    assert iso.trace["caches"]["finab.pairing_numerators"]["misses"] > 0


def test_stored_report_passes_and_corruption_fails(spawner, digests):
    outcome, data = spawner.run(STORED, False)
    assert run.check_report(STORED, outcome.code, data, digests)[0] is None
    corrupted = data.replace(b'"pass": true', b'"pass": false', 1)
    assert corrupted != data
    assert "digest" in run.check_report(STORED, 0, corrupted, digests)[0]


def test_nonzero_exit_fails(spawner, digests):
    # cli.main returns 2: the child writes its record and exits 2.
    usage, data = spawner.run(["verify", "iso", "--p", "2", "--alpha", "bogus"], False)
    assert usage.code == 2 and usage.failure is None
    assert run.check_report(usage.argv, usage.code, data, digests)[0] == "exit code 2"
    # argparse exits inside cli.main: no timing record at all.
    bad, _ = spawner.run(["verify", "no-such-sweep"], False)
    assert bad.code == 2 and "no timing record" in bad.failure


def test_failed_checks_fail_with_or_without_a_digest(digests):
    report = json.dumps({"command": "verify-fourier", "params": {}, "checks": [
        {"id": "a", "subject": "a", "pass": False, "witness": None}],
        "passed": 0, "failed": 1}).encode()
    assert "failed=1" in run.check_report(STORED, 0, report, digests)[0]
    seeded = ["verify", "criterion-oracle", "--p", "2", "--r", "3", "--samples", "40",
              "--seed", "12345"]
    assert "failed=1" in run.check_report(seeded, 0, report, NO_DIGESTS)[0]


def test_unstored_seed_is_held_to_the_check_count(digests):
    argv = ["verify", "criterion-oracle", "--p", "2", "--r", "3", "--samples", "40",
            "--seed", "12345"]
    assert " ".join(argv) not in digests["reports"]
    checks = [{"id": str(i), "subject": "", "pass": True, "witness": None} for i in range(39)]
    report = json.dumps({"checks": checks, "failed": 0}).encode()
    assert "expected 40" in run.check_report(argv, 0, report, digests)[0]


def test_diag_split_is_checked_independently():
    argv = ["diag", "--n", "4", "--modulus", "13", "--emit-iso"]
    good = {"decision": True, "witness": 5, "points": [1, 5, 12, 8],
            "matrix": [[pow(5, i * j, 13) for j in range(4)] for i in range(4)]}
    assert run.verify_report(argv, 0, json.dumps(good).encode())[0] is None
    bad = dict(good, matrix=[[1] * 4] * 4)
    assert "Vandermonde" in run.verify_report(argv, 0, json.dumps(bad).encode())[0]
    not_primitive = dict(good, witness=12)
    assert "primitive" in run.verify_report(argv, 0, json.dumps(not_primitive).encode())[0]


def test_fail_share_counts_every_failed_invocation():
    outcomes = [run.Outcome(["a"], 0), run.Outcome(["b"], 1, failure="exit code 1"),
                run.Outcome(["c"], 0, failure="report differs from the stored digest"),
                run.Outcome(["d"], 0, failure="report has failed=2")]
    metrics = run.end_to_end([run.Pass(1.0, outcomes)])
    assert metrics["pass_share"] == 0.25


def test_silent_declared_span_stops_the_traced_run():
    trace = {"spans": {"cli.main": {"calls": 1, "self_ns": 5}}, "caches": {},
             "items": {}, "counters": {}}
    traced = run.Pass(1.0, [run.Outcome(["x"], 0, verdict_s=1.0, trace=trace)])
    untraced = run.Pass(1.0, [run.Outcome(["x"], 0, verdict_s=0.5)])
    with pytest.raises(SystemExit, match="finab.enumerate_homs"):
        run.per_layer("naturality", untraced, [traced])
