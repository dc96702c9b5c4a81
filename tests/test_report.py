"""Report rendering: byte for byte against ``json.dumps(indent=2)``, the oracle."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclofourier import cli
from cyclofourier.chargauss import check_gauss_identities
from cyclofourier.report import CheckEntry, VerifyReport, _render

_SPECIAL_CHARS = '"\\/\n\r\t\b\f\x00\x1f\x7f\x80\xe9\u2028\ufeff\ud800\U0001d11e'
_text = st.text(st.one_of(st.characters(), st.sampled_from(_SPECIAL_CHARS)), max_size=12)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-10 ** 60, max_value=10 ** 60),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]), _text)
_keys = st.one_of(_text, st.integers(), st.booleans(), st.none())
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               st.lists(_text, max_size=5),
                               st.dictionaries(_text, children, max_size=5),
                               st.dictionaries(_keys, children, max_size=5)),
    max_leaves=25)


def _reference_to_text(report):
    lines = []
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        suffix = "" if c.witness is None else f"  {c.witness}"
        lines.append(f"[{mark}] {c.id}: {c.subject}{suffix}")
    lines.append(f"passed={report.passed} failed={report.failed}")
    return "\n".join(lines)


@settings(max_examples=200, deadline=None, database=None)
@given(_values)
def test_render_matches_json_dumps_with_indent(value):
    assert _render(value, "") == json.dumps(value, indent=2)


@settings(max_examples=50, deadline=None, database=None)
@given(st.lists(st.tuples(_text, _text, st.booleans(), _values), max_size=4),
       st.dictionaries(_text, _values, max_size=3))
def test_report_to_json_matches_the_oracle_on_any_witness(checks, params):
    report = VerifyReport("demo", params, [CheckEntry(*c) for c in checks])
    assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)
    assert report.to_text() == _reference_to_text(report)
    for render, whole in ((report.to_json, report.to_json()), (report.to_text, report.to_text())):
        chunks = []
        assert render(chunks.append) is None
        assert "".join(chunks) == whole
        assert len(chunks) == len(report.checks) + (2 if render == report.to_json else 1)


def test_render_rejects_what_json_rejects():
    for value in (object(), [1, {2}], {"a": b"x"}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _render(value, "")


@pytest.mark.parametrize("argv", [
    ("verify", "gauss", "--p", "3", "--max-r", "2"),
    ("verify", "iso", "--p", "2", "--max-order", "8", "--dump-matrix"),
    ("verify", "naturality", "--p", "2", "--max-order", "8"),
    ("verify", "fourier", "--p", "2", "--max-order", "16"),
    ("verify", "criterion-oracle", "--p", "2", "--r", "2", "--samples", "5"),
    ("verify", "gauss", "--p", "3", "--max-r", "2", "--format", "text"),
])
def test_cli_reports_match_the_oracle(capsys, monkeypatch, argv):
    reports = []
    real_emit_report = cli._emit_report

    def keep(report, fmt, output):
        reports.append(report)
        return real_emit_report(report, fmt, output)

    monkeypatch.setattr(cli, "_emit_report", keep)
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    (report,) = reports
    assert report.checks
    if "text" in argv:
        assert out == _reference_to_text(report) + "\n"
        return
    assert out == report.to_json() + "\n"
    assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)


def test_report_without_checks_matches_the_oracle():
    for params in ({}, {"p": 2, "nested": {"k": [1, "a", None]}}):
        report = VerifyReport("verify-empty", params)
        assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)
        assert report.to_text() == _reference_to_text(report) == "passed=0 failed=0"


# Memory: a report holds its checks, not their text.  Measured on CPython
# 3.11, check_gauss_identities(3, 4) keeps 4.4 MB (17 MB with one string
# per coefficient), and writing the 1.7 MB report below peaks at about
# 24 KB; the bounds leave room for other versions' object sizes.

def test_a_gauss_report_keeps_one_string_per_distinct_coefficient():
    tracemalloc.start()
    try:
        report = check_gauss_identities(3, 4)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.checks) == 4374 and report.failed == 0
    assert kept < 8 * 2 ** 20


def test_writing_a_report_peaks_far_below_its_size(tmp_path):
    report = VerifyReport("verify-gauss", {"p": 2, "max_r": 6})
    for level in range(1, 7):
        report.extend(check_gauss_identities(2, level).checks)
    path = tmp_path / "gauss.json"
    tracemalloc.start()
    try:
        assert cli._emit_report(report, "json", str(path)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_600_000 and peak < size / 4
    assert path.read_text(encoding="utf-8") == report.to_json() + "\n"
