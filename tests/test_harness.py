"""Verification campaigns: accounting, determinism and the negative control."""

import dataclasses
import json
import sys

import pytest

from balkit import harness, identities, sequences
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
from balkit.sequences import DomainError, SequenceKind, pair_bc, stream


def corrupt_c_diff_half():
    """Catalog copy with the 16 coefficient of C_DIFF_HALF changed to 15."""
    out = []
    for d in identities.list_identities():
        if d.ident == "C_DIFF_HALF":
            d = identities._entry(d.ident, d.statement.replace("16", "15"), d.domain_desc)
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


# The domain predicates as the catalog used them before domains became
# ranges, keyed by each entry's printed domain, as references for the walk.
REFERENCE_DOMAINS = {
    "n >= 0, m >= 0": lambda n, m: n >= 0 and m >= 0,
    "n >= m >= 0": lambda n, m: 0 <= m <= n,
    "n >= m >= 0, n and m of the same parity": lambda n, m: 0 <= m <= n and (n - m) % 2 == 0,
    "n >= m >= 1": lambda n, m: 1 <= m <= n,
    "n > m >= 1": lambda n, m: m >= 1 and n > m,
    "1 <= n <= m": lambda n, m: 1 <= n <= m,
    "n >= 0": lambda n, m: n >= 0,
    "n >= 1": lambda n, m: n >= 1,
}


def test_run_identity_walks_exactly_the_domain_in_grid_order():
    for desc in identities.list_identities():
        ref = REFERENCE_DOMAINS[desc.domain_desc]
        for max_n in range(1, 31):
            seen = []
            walked = dataclasses.replace(
                desc, lhs=lambda t, n, m: seen.append((n, m)) or 0, rhs=lambda t, n, m: 0
            )
            rec = harness._run_identity(walked, max_n, None, False)
            ms = [None] if desc.arity == 1 else range(max_n + 1)
            expected = [(n, m) for n in range(max_n + 1) for m in ms if ref(n, m)]
            assert seen == expected, (desc.ident, max_n)
            assert rec.checked == len(expected)
            assert rec.skipped == (max_n + 1) ** desc.arity - len(expected)


def test_domain_check_matches_reference_predicates():
    span = range(-3, 13)
    for desc in identities.list_identities():
        ref = REFERENCE_DOMAINS[desc.domain_desc]
        for n in span:
            for m in ([None] if desc.arity == 1 else span):
                got = identities.domain_check(desc.ident, n, m)
                assert got is ref(n, m), (desc.ident, n, m)


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


def test_negative_control_built_from_the_statement_fails_on_the_same_cells():
    # The 15 * B * B reading, evaluated by hand from the TermSource tables.
    src = sequences.TermSource()
    src.prefill({"B": 30, "C": 30})
    expected = []
    for n in range(31):
        for m in range(n % 2, n + 1, 2):
            lv, rv = src.C[n] - src.C[m], 15 * src.B[(n + m) // 2] * src.B[(n - m) // 2]
            if lv != rv:
                expected.append(EvalResult("C_DIFF_HALF", n, m, lv, rv, False))
    by_statement = {r.ident: r for r in run_suite(30, catalog=corrupt_c_diff_half()).records}
    assert expected
    assert by_statement["C_DIFF_HALF"].failures == expected


def test_minus_reading_of_b_cob_sum_le_fails_first_at_1_2():
    d = identities.lookup("B_COB_SUM_LE")
    minus = identities._entry(d.ident, d.statement.replace(" + b(", " - b(", 1), d.domain_desc)
    assert minus.statement == "b(n+m) - b(m-n+1) = 2*b(n)*C(m) + C(m) - 1"
    failures = run_suite(40, catalog=[minus]).records[0].failures
    assert (failures[0].n, failures[0].m) == (1, 2)
    assert run_suite(40, ids=["B_COB_SUM_LE"]).passed


@pytest.mark.parametrize("statement, max_n, cell, index", [
    ("B(n-1) = B(n-1)", 5, "(n=0, m=None)", -1),  # must not wrap to the last term
    ("B(5n) = B(5n)", 5, "(n=3, m=None)", 15),  # above the 2*max_n+2 prefill
])
def test_out_of_table_read_names_entry_cell_and_index(statement, max_n, cell, index):
    entry = identities._entry("X", statement, "n >= 0")
    with pytest.raises(DomainError) as info:
        run_suite(max_n, catalog=[entry])
    message = str(info.value)
    assert message.startswith("X at %s reads index %d," % (cell, index)), message


@pytest.mark.parametrize("ids, filled", [
    (["PARITY_B"], "B"),
    (["B_ADD", "C_SUB", "CB_MIX_PLUS"], "BC"),
    (["EVEN_b", "MOD16_c"], "bc"),
    (["LC_PROD", "PARITY_B"], "BCc"),
    (None, "BCbc"),
])
def test_only_the_kinds_the_statements_read_are_prefilled(ids, filled, monkeypatch):
    prefills, seen = [], []

    class Source(sequences.TermSource):
        def prefill(self, tops):
            prefills.append(dict(tops))
            super().prefill(tops)

    def run_identity(desc, max_n, terms, collect_cases):
        # The one source prefilled above, whose tables are plain dicts.
        assert type(terms) is Source
        tables = {k: getattr(terms, k) for k in "BCbc"}
        assert all(type(t) is dict for t in tables.values()), desc.ident
        seen.append({k: len(t) for k, t in tables.items()})
        return real(desc, max_n, terms, collect_cases)

    real = harness._run_identity
    monkeypatch.setattr(harness, "TermSource", Source)
    monkeypatch.setattr(harness, "_run_identity", run_identity)
    max_n = 40
    assert run_suite(max_n, ids=ids).passed
    tops = {"B": 2 * max_n + 2, "C": 2 * max_n + 2, "b": 4 * max_n + 2, "c": 4 * max_n + 2}
    assert prefills == [{k: tops[k] for k in filled}]
    # A table holds every index from its kind's min_index to its top.
    sizes = {k: tops[k] - sequences.parse_kind(k).min_index + 1 for k in "BCbc"}
    assert sizes == {"B": 83, "C": 83, "b": 162, "c": 162}
    assert seen[0] == {k: sizes[k] if k in filled else 0 for k in "BCbc"}


def test_a_read_of_an_unprefilled_kind_names_entry_cell_and_index():
    d = identities.lookup("PARITY_B")
    stray = dataclasses.replace(d, lhs=lambda t, n, m: t.C[n] % 2)  # its statement reads only B
    with pytest.raises(DomainError) as info:
        run_suite(5, catalog=[stray])
    assert str(info.value) == (
        "PARITY_B at (n=0, m=None) reads index 0, outside the terms prefilled for max_n=5")


class Prefilled(Exception):
    pass


@pytest.fixture
def no_prefill(monkeypatch):
    def prefill(self, tops):
        raise Prefilled

    monkeypatch.setattr(sequences.TermSource, "prefill", prefill)


def test_grid_above_the_cell_cap_is_refused_before_prefill(no_prefill, capsys):
    from balkit import cli

    full = identities.list_identities()
    cells = lambda max_n: sum((max_n + 1) ** d.arity for d in full)
    top = max(n for n in range(1, 2000) if cells(n) <= harness.GRID_CELLS_MAX)
    with pytest.raises(Prefilled):
        run_suite(top)
    for max_n in (top + 1, 5000):
        with pytest.raises(DomainError, match="above the limit"):
            run_suite(max_n)
    assert cli.main(["verify", "--max-n", "5000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "above the limit of 40000000" in err


@pytest.mark.parametrize("max_n, ids", [
    (1000, None),  # the full catalog
    (1000, ["PARITY_B", "ODD_C", "MOD16_C", "MOD4_CSUM", "EVEN_b",
            "MOD4_bDIFF", "ODD_c", "MOD8_c", "MOD16_c"]),  # C6
    (600, [d.ident for d in identities.list_identities()[:4]]),  # a benchmark subset
    (4400, ["PARITY_B"]),  # just under the digit cap of term_tops
])
def test_grids_under_the_cell_cap_are_run(no_prefill, max_n, ids):
    with pytest.raises(Prefilled):
        run_suite(max_n, ids=ids)


@pytest.mark.parametrize("ids, max_n", [
    (["PARITY_B"], 39999999),  # within the cell cap: 4e7 cells
    (["PARITY_B"], 4500),
    (["MOD16_c"], 10**6),
    (["MOD16_c", "B_ADD"], 2300),
])
def test_terms_above_the_digit_cap_are_refused_before_prefill(no_prefill, ids, max_n, capsys):
    from balkit import cli

    with pytest.raises(DomainError, match="above the limit of %d$" % identities.TERM_DIGITS_MAX):
        run_suite(max_n, ids=ids)
    argv = ["verify", "--max-n", str(max_n)]
    for ident in ids:
        argv += ["--id", ident]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: max_n=%d reads terms of up to " % max_n)


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


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_generator_prefix_walks_the_recurrence(monkeypatch, kind):
    terms = stream(kind, 1, 4000)
    assert terms[-1] > 10**3000

    def no_doubling(*args):
        raise AssertionError("generator_prefix evaluated a term by fast doubling")

    monkeypatch.setattr(sequences, "pair_bc", no_doubling)
    monkeypatch.setattr(sequences, "term_doubling", no_doubling)
    member = terms[9]
    for limit in (0, 1, member - 1, member, member + 1, 10**3000):
        assert sequences.generator_prefix(kind, limit) == [v for v in terms if v <= limit]


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
