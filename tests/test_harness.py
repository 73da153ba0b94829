"""Verification campaigns: accounting, determinism and the negative control."""

import dataclasses
import json
import sys

import pytest

from balkit import harness, identities
from balkit.harness import (
    FORMATS,
    IdentityRecord,
    VerificationReport,
    compare_methods,
    emit_report,
    oracle_equivalence,
    run_suite,
)
from balkit.identities import EvalResult, UnknownIdentityError
from balkit.sequences import DomainError, pair_bc


def corrupt_c_diff_half():
    """Catalog copy with the 16 coefficient of C_DIFF_HALF changed to 15."""
    out = []
    for d in identities.list_identities():
        if d.ident == "C_DIFF_HALF":
            d = dataclasses.replace(
                d, rhs=lambda t, n, m: 15 * t.B((n + m) // 2) * t.B((n - m) // 2)
            )
        out.append(d)
    return out


def test_run_suite_small_full_catalog_passes():
    report = run_suite(25)
    assert report.passed
    assert report.total_failures == 0
    assert len(report.records) == 36


def test_run_suite_minimal_bound_enumeration():
    report = run_suite(1, ids=["B_ADD"])
    rec = report.records[0]
    assert rec.checked == 4  # pairs (0,0), (0,1), (1,0), (1,1)
    assert rec.skipped == 0
    assert report.passed


def test_run_suite_skip_accounting():
    report = run_suite(10, ids=["B_DIFF_HALF"])
    rec = report.records[0]
    # Of the 11x11 grid, in-domain means n >= m with equal parity.
    expected_checked = sum(
        1 for n in range(11) for m in range(11) if m <= n and (n - m) % 2 == 0
    )
    assert rec.checked == expected_checked == 36
    assert rec.skipped == 121 - expected_checked
    assert report.passed


def test_every_grid_cell_is_accounted():
    report = run_suite(15)
    for rec, desc in zip(report.records, identities.list_identities()):
        total = 16 if desc.arity == 1 else 16 * 16
        assert rec.ident == desc.ident
        assert rec.checked + rec.skipped == total


def test_run_suite_rejects_bad_arguments():
    with pytest.raises(DomainError):
        run_suite(0)
    with pytest.raises(UnknownIdentityError):
        run_suite(5, ids=["NO_SUCH"])


def test_negative_control_corrupted_catalog_fails():
    report = run_suite(20, catalog=corrupt_c_diff_half())
    assert not report.passed
    bad = {r.ident: r for r in report.records}["C_DIFF_HALF"]
    assert bad.failures
    # The unchanged entries still pass.
    for rec in report.records:
        if rec.ident != "C_DIFF_HALF":
            assert not rec.failures
    # Failures are sorted and carry both sides.
    keys = [(f.n, f.m) for f in bad.failures]
    assert keys == sorted(keys)
    assert all(f.lhs != f.rhs for f in bad.failures)


def test_compare_methods_passes():
    report = compare_methods(100)
    assert report.passed
    assert {r.ident for r in report.records} == {
        "AGREE_B", "AGREE_C", "AGREE_b", "AGREE_c",
    }
    by_id = {r.ident: r for r in report.records}
    assert by_id["AGREE_B"].checked == 101  # indices 0..100
    assert by_id["AGREE_b"].checked == 100  # indices 1..100


def test_compare_methods_minimal():
    report = compare_methods(1)
    assert report.passed
    assert all(r.checked >= 1 for r in report.records)


def test_oracle_equivalence_small():
    report = oracle_equivalence(300)
    assert report.passed
    by_id = {r.ident: r for r in report.records}
    # 4 members compared + 4 witnesses validated.
    assert by_id["BALANCING"].checked == 8


def test_oracle_equivalence_limit_zero():
    report = oracle_equivalence(0)
    assert report.passed
    by_id = {r.ident: r for r in report.records}
    assert by_id["BALANCING"].checked == 0  # empty prefix
    assert by_id["COBALANCING"].checked == 2  # the single member 0, plus witness


def test_emit_report_empty_json_shape():
    report = VerificationReport("", 0)
    obj = json.loads(emit_report(report, "json"))
    assert obj == {"suite": "", "max_n": 0, "pass": True, "identities": []}


def test_emit_report_json_schema_fields():
    obj = json.loads(emit_report(run_suite(3, ids=["B_ADD"]), "json"))
    assert set(obj) == {"suite", "max_n", "pass", "identities"}
    (rec,) = obj["identities"]
    assert set(rec) == {"id", "checked", "skipped", "wall_ms", "failures"}
    assert rec["wall_ms"] == 0  # canonical output carries no timing jitter


def test_emit_report_single_failure_csv():
    report = VerificationReport("identity-catalog", 5)
    report.records = [
        IdentityRecord("C_DIFF_HALF", 3, 2, 0, [EvalResult("C_DIFF_HALF", 3, 1, 96, 90, False)])
    ]
    data = emit_report(report, "csv").decode()
    lines = data.strip().split("\n")
    assert lines[0] == "id,n,m,lhs,rhs,holds"
    assert lines[1] == "C_DIFF_HALF,3,1,96,90,false"
    assert len(lines) == 2


def test_emit_report_failure_json_renders_decimal_strings():
    report = VerificationReport("identity-catalog", 5)
    big = 10**30
    report.records = [
        IdentityRecord("B_ADD", 1, 0, 7, [EvalResult("B_ADD", 2, None, big, big + 1, False)])
    ]
    obj = json.loads(emit_report(report, "json"))
    (fail,) = obj["identities"][0]["failures"]
    assert fail == {"n": 2, "m": None, "lhs": str(big), "rhs": str(big + 1)}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_emit_report_ignores_int_str_digit_limit():
    # cli.main lifts the process-wide limit; a library caller may not have.
    big = pair_bc(7000)[0]  # 5,359 digits: over the default 4300
    case = EvalResult("B_ADD", 7000, 1, big, big + 1, False)
    report = VerificationReport("identity-catalog", 7000)
    report.records = [IdentityRecord("B_ADD", 1, 0, 0, [case], [case])]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        limited = [emit_report(report, fmt) for fmt in FORMATS]
        sys.set_int_max_str_digits(0)
        lifted = [emit_report(report, fmt) for fmt in FORMATS]
        text = str(big).encode()
    finally:
        sys.set_int_max_str_digits(old)
    assert limited == lifted
    assert all(text in out for out in lifted)


def test_emit_report_serialization_is_deterministic():
    report = run_suite(8)
    for fmt in ("json", "csv", "plain"):
        assert emit_report(report, fmt) == emit_report(report, fmt)


def test_emit_report_unknown_format():
    with pytest.raises(ValueError):
        emit_report(VerificationReport("", 0), "xml")


def test_plain_report_mentions_overall_result():
    text = emit_report(run_suite(5, ids=["B_ADD"]), "plain").decode()
    assert text.strip().endswith("overall=pass")
    bad = emit_report(run_suite(12, catalog=corrupt_c_diff_half()), "plain").decode()
    assert "overall=fail" in bad
    assert "fail n=" in bad


def test_collected_cases_appear_in_csv():
    report = run_suite(1, ids=["B_ADD"], collect_cases=True)
    lines = emit_report(report, "csv").decode().strip().split("\n")
    assert lines[0] == "id,n,m,lhs,rhs,holds"
    assert len(lines) == 1 + 4  # one row per evaluated case
    assert all(line.endswith(",true") for line in lines[1:])
