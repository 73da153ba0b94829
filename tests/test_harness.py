"""Verification campaigns: accounting, determinism and the negative control."""

import dataclasses
import json
import os
import signal
import sys
import threading
import time
import tracemalloc

import pytest

from balkit import harness, identities, oracle, sequences
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


@pytest.mark.parametrize("catalog, max_n, failures", [
    (identities.list_identities, 15, 0),
    (corrupt_c_diff_half, 30, 225),
])
def test_a_verbose_run_builds_an_eval_result_only_for_a_failing_case(
        monkeypatch, catalog, max_n, failures):
    built = []

    def counted(*fields):
        built.append(fields)
        return EvalResult(*fields)

    monkeypatch.setattr(harness, "EvalResult", counted)
    rows = []
    report = run_suite(max_n, catalog=catalog(), write=rows.append)
    assert len(built) == report.total_failures == failures
    assert len(rows) == 1 + sum(r.checked for r in report.records)


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
            rec = harness._run_identity(walked, max_n, None, None)
            ms = [None] if desc.arity == 1 else range(max_n + 1)
            expected = [(n, m) for n in range(max_n + 1) for m in ms if ref(n, m)]
            assert seen == expected, (desc.ident, max_n)
            assert rec.checked == len(expected)
            assert rec.skipped == (max_n + 1) ** desc.arity - len(expected)


def test_domain_matches_reference_predicates():
    span = range(-3, 13)
    for desc in identities.list_identities():
        ref = REFERENCE_DOMAINS[desc.domain_desc]
        for n in span:
            for m in ([None] if desc.arity == 1 else span):
                got = desc.domain(n, m)
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


def streamed_cases(max_n, **kwargs):
    """The report of run_suite(max_n, **kwargs) and every case it wrote,
    read back from its csv rows."""
    out = []
    report = run_suite(max_n, write=out.append, **kwargs)
    assert out[0] == "id,n,m,lhs,rhs,holds\n"
    cases = []
    for row in out[1:]:
        ident, n, m, lhs, rhs, holds = row.rstrip("\n").split(",")
        cases.append(EvalResult(ident, int(n), int(m) if m else None,
                                int(lhs), int(rhs), holds == "true"))
    return report, cases


def with_statement(desc, statement):
    """desc with the evaluators of another equation, compiled without the
    checks of _entry, which may refuse it, as a caller builds an entry: it
    keeps the reads of desc's own statement, which bound its prefill."""
    cell = identities._DOMAINS[desc.domain_desc][2]
    lhs, rhs = (identities._evaluator(desc.ident, identities._side(desc.ident, side, cell, []))
                for side in statement.split(" = "))
    return dataclasses.replace(desc, lhs=lhs, rhs=rhs)


def unchecked(ident, statement, domain="n >= 0"):
    """with_statement on the entry of B(n) = B(n), printed as statement."""
    entry = identities._entry(ident, "B(n) = B(n)", domain)
    return dataclasses.replace(with_statement(entry, statement), statement=statement)


def reading_past_its_prefill(ident, statement, domain="n >= 0"):
    """with_statement on the entry of B(2n) = B(2n), whose B is prefilled
    to 2*max_n: an entry the harness runs that reads outside its prefill."""
    return with_statement(identities._entry(ident, "B(2n) = B(2n)", domain), statement)


@pytest.mark.parametrize("statement, max_n, cell, index", [
    ("B(n-1) = B(n-1)", 5, "(n=0, m=None)", -1),  # must not wrap to the last term
    ("B(5n) = B(5n)", 5, "(n=3, m=None)", 15),  # above the 2*max_n prefill
])
def test_out_of_table_read_names_entry_cell_and_index(statement, max_n, cell, index):
    with pytest.raises(DomainError) as info:
        run_suite(max_n, catalog=[reading_past_its_prefill("X", statement)])
    message = str(info.value)
    assert message.startswith("X at %s reads index %d," % (cell, index)), message


def test_a_caller_built_entry_is_prefilled_for_what_its_evaluators_read():
    # Its statement says B(2n), its evaluators read B(3n): the run prefills
    # B to 2*max_n, what the statement reads. The first read past that
    # raises DomainError naming the entry, the cell and the index, after
    # the rows before that cell are written.
    entry = with_statement(identities._entry("X", "B(2n) = B(2n)", "n >= 0"), "B(3n) = B(3n)")
    assert identities.term_tops([entry], 20) == {"B": 40}
    message = "X at (n=%d, m=None) reads index %d, outside the terms prefilled for max_n=20"
    out = []
    with pytest.raises(DomainError) as info:
        run_suite(20, catalog=[entry], write=out.append)
    assert str(info.value) == message % (14, 42)
    assert len(out) == 15  # the header and the rows of n = 0..13
    # Evaluators that read below min_index, or at an index that is no
    # integer form in the domain's coordinates, fail the same way.
    for lhs, n, index in ((lambda t, n, m: t.B[n - 1], 0, -1), (lambda t, n, m: t.B[n * n], 7, 49)):
        with pytest.raises(DomainError) as info:
            run_suite(20, catalog=[dataclasses.replace(entry, lhs=lhs)])
        assert str(info.value) == message % (n, index)


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

    def run_identity(desc, max_n, terms, on_case):
        # The one source prefilled above, whose tables are plain dicts.
        assert type(terms) is Source
        tables = {k: getattr(terms, k) for k in "BCbc"}
        assert all(type(t) is dict for t in tables.values()), desc.ident
        seen.append({k: len(t) for k, t in tables.items()})
        return real(desc, max_n, terms, on_case)

    real = harness._run_identity
    monkeypatch.setattr(harness, "TermSource", Source)
    monkeypatch.setattr(harness, "_run_identity", run_identity)
    assert run_suite(40, ids=ids).passed
    # The highest index the selected statements read on the grid 0..40:
    # B(n) in PARITY_B, B(n+m) in B_ADD, c(4n) in MOD16_c, C(n+m-1) in
    # LC_PROD, b(2n+1) in MOD4_bDIFF.
    tops = {
        "B": {"B": 40},
        "BC": {"B": 80, "C": 80},
        "bc": {"b": 40, "c": 160},
        "BCc": {"B": 40, "C": 79, "c": 40},
        "BCbc": {"B": 80, "C": 80, "b": 81, "c": 160},
    }[filled]
    assert prefills == [tops]
    # A table holds every index from its kind's min_index to its top.
    sizes = {k: tops[k] - sequences.parse_kind(k).min_index + 1 for k in tops}
    assert seen[0] == {k: sizes.get(k, 0) for k in "BCbc"}


def test_a_read_of_an_unprefilled_kind_names_entry_cell_and_index():
    d = identities.lookup("PARITY_B")
    # Its statement reads only B, its lhs C: only B is prefilled, and the
    # first read of C names the entry, the cell and the index.
    stray = dataclasses.replace(d, lhs=lambda t, n, m: t.C[n] % 2)
    assert identities.term_tops([stray], 5) == {"B": 5}
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
    (4400, ["MOD8_c"]),  # just under the digit cap of term_tops: c to 8800
    (8850, ["PARITY_B"]),  # just under it: B to 8850
])
def test_grids_under_the_cell_cap_are_run(no_prefill, max_n, ids):
    with pytest.raises(Prefilled):
        run_suite(max_n, ids=ids)


@pytest.mark.parametrize("ids, max_n", [
    (["PARITY_B"], 39999999),  # within the cell cap: 4e7 cells
    (["MOD8_c"], 4500),  # just over the digit cap: c to 9000
    (["MOD16_c"], 10**6),
    (["MOD16_c", "B_ADD"], 2300),
    (["PARITY_B"], 8851),  # just over it: B to 8851
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


@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("jobs, message", [
    (0, "workers must be >= 1, got 0"),
    (-3, "workers must be >= 1, got -3"),
    (harness.JOBS_MAX + 1, "workers must be <= %d, got %d" % (harness.JOBS_MAX, harness.JOBS_MAX + 1)),
])
def test_jobs_out_of_range_is_refused_before_prefill_or_fork(no_prefill, no_fork, jobs, message,
                                                             capsys):
    from balkit import cli

    with pytest.raises(DomainError, match="^%s$" % message):
        run_suite(5, jobs=jobs)
    assert cli.main(["verify", "--max-n", "5", "--jobs", str(jobs)]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def fork_spy(monkeypatch, cpus=None):
    """A list that gets an entry per os.fork call (each still forks). Given
    cpus, run_suite takes that many usable CPUs whatever the host has."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    if cpus is not None:
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    return calls


@pytest.fixture
def forks(monkeypatch):
    return fork_spy(monkeypatch, 3)


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("max_n", [1, 30, 189, 300])
@pytest.mark.parametrize("workers", [2, 3, 5])
def test_shares_split_every_entry_once_by_cell_count(max_n, workers):
    selected = identities.list_identities()
    shares = harness._shares(selected, max_n, workers)
    assert len(shares) == workers
    assert sorted(i for share in shares for i in share) == list(range(len(selected)))
    assert all(share == sorted(share) for share in shares)
    cells = [sum(len(d.indices(n, max_n)) for n in range(max_n + 1)) for d in selected]
    loads = [sum(cells[i] for i in share) for share in shares]
    # Largest first to the least loaded: no two loads differ by more than one entry.
    assert max(loads) - min(loads) <= max(cells)
    assert shares == harness._shares(selected, max_n, workers)


@pytest.mark.parametrize("jobs", [2, 3])
def test_forked_run_gives_the_one_process_report(forks, jobs):
    catalog = corrupt_c_diff_half()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    one = run_suite(30, catalog=catalog, jobs=1)
    assert forks == []
    many = run_suite(30, catalog=catalog, jobs=jobs)
    assert len(forks) == jobs - 1
    assert_no_children_left()
    assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask
    strip = lambda r: dataclasses.replace(r, wall_ms=0)
    assert [strip(r) for r in many.records] == [strip(r) for r in one.records]
    assert many.total_failures == one.total_failures == 225


def out_of_table(ident, domain="n >= 0"):
    return reading_past_its_prefill(ident, "B(3n) = B(3n)", domain)


@pytest.mark.parametrize("jobs, picks", [
    (2, None),  # one bad entry, appended
    (2, [(1, 0), (0, -1)]),  # an early one in the child, a late one in this process
    (2, [(0, 1), (1, -1)]),
    (3, [(2, 0), (1, 1), (0, -1)]),
    (3, None),
])
def test_forked_run_raises_what_one_process_raises(forks, jobs, picks):
    # picks: (share, rank in share) of the entries turned bad, X0 first in
    # catalog order. Each keeps its domain, so the shares stay as they were.
    catalog = corrupt_c_diff_half()
    if picks is None:
        catalog.append(out_of_table("X0"))
    else:
        shares = harness._shares(catalog, 20, jobs)
        at = [shares[share][rank] for share, rank in picks]
        assert at == sorted(at)
        for k, i in enumerate(at):
            catalog[i] = out_of_table("X%d" % k, catalog[i].domain_desc)
        assert harness._shares(catalog, 20, jobs) == shares
    with pytest.raises(DomainError) as one:
        run_suite(20, catalog=catalog, jobs=1)
    assert str(one.value).startswith("X0 at (n=")
    with pytest.raises(DomainError) as many:
        run_suite(20, catalog=catalog, jobs=jobs)
    assert len(forks) == jobs - 1
    assert str(many.value) == str(one.value)
    assert_no_children_left()


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_a_worker_that_dies_without_a_result_fails_the_run(forks, monkeypatch, death):
    parent, run_identity = os.getpid(), harness._run_identity

    def dying(*args):
        if os.getpid() != parent:
            if death == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0)  # leaves without writing a result
        return run_identity(*args)

    monkeypatch.setattr(harness, "_run_identity", dying)
    with pytest.raises(RuntimeError, match="exited without a result"):
        run_suite(10, jobs=2)
    assert_no_children_left()


def test_an_interrupt_in_the_parent_kills_and_reaps_the_workers(forks, monkeypatch):
    parent = os.getpid()

    def stuck(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "_run_identity", stuck)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suite(10, jobs=3)
    assert time.monotonic() - started < 30
    assert len(forks) == 2
    assert_no_children_left()
    # SIGINT, blocked around each fork, is deliverable again.
    assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask


def test_sigint_waits_across_each_fork(monkeypatch):
    # Ctrl-C between a fork and the bookkeeping on either side of it would
    # orphan a child or run the parent's cleanup in the child.
    forks = fork_spy(monkeypatch, 3)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    held, fork = [], os.fork

    def spied_fork():
        held.append(signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, ()))
        return fork()

    parent, run_identity = os.getpid(), harness._run_identity

    def in_child_with_the_callers_mask(*args):
        if os.getpid() != parent and signal.pthread_sigmask(signal.SIG_BLOCK, ()) != mask:
            os._exit(0)  # leaves without a result
        return run_identity(*args)

    monkeypatch.setattr(os, "fork", spied_fork)
    monkeypatch.setattr(harness, "_run_identity", in_child_with_the_callers_mask)
    assert run_suite(10).passed
    assert held == [True, True] and len(forks) == 2
    assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask
    assert_no_children_left()


@pytest.mark.parametrize("cpus, kwargs, expected", [
    (3, {}, 2),
    (3, {"jobs": 2}, 1),
    (1, {}, 0),
    (3, {"ids": ["B_ADD"]}, 0),
    (3, {"ids": ["B_ADD", "MOD16_c"]}, 1),
    (3, {"write": lambda text: None}, 0),
])
def test_without_jobs_a_run_uses_every_usable_cpu(monkeypatch, cpus, kwargs, expected):
    # min(usable CPUs, entries) processes; jobs only lowers that.
    forks = fork_spy(monkeypatch, cpus)
    report = run_suite(12, **kwargs)
    assert len(forks) == expected
    assert_no_children_left()
    one = run_suite(12, **{**kwargs, "jobs": 1})
    strip = lambda r: dataclasses.replace(r, wall_ms=0)
    assert [strip(r) for r in report.records] == [strip(r) for r in one.records]


def test_no_fork_while_another_thread_runs(monkeypatch):
    calls = fork_spy(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert harness._usable_cpus() == 1
        assert run_suite(10, jobs=2).passed
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    assert calls == []


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


def test_compare_methods_walks_its_terms_without_holding_them():
    # The recurrence terms of 0..1500 take about 440 KB as a list; walked,
    # only the term at hand and its neighbour are alive.
    compare_methods(10)  # the first run pays the one-time allocations
    tracemalloc.start()
    try:
        assert compare_methods(1500).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("route", ["term_binet", "term_doubling"])
def test_compare_methods_records_the_first_divergence_per_kind_and_stops(monkeypatch, route):
    real = getattr(harness, route)

    def wrong_at_7(kind, n):
        return real(kind, n) + (n == 7)

    monkeypatch.setattr(harness, route, wrong_at_7)
    report = compare_methods(20)
    assert not report.passed
    for kind, r in zip(SequenceKind, report.records):
        value = list(stream(kind, 7, 7))[0]
        assert r.failures == [EvalResult(r.ident, 7, None, value, value + 1, False)]
        assert r.checked == 8 - kind.min_index


def test_compare_methods_refuses_max_n_above_its_cap_before_any_term(monkeypatch):
    def refuse(*args):
        raise AssertionError("computed a term above the cap")

    for name in ("walk", "term_binet", "term_doubling"):
        monkeypatch.setattr(harness, name, refuse)
    with pytest.raises(DomainError) as info:
        compare_methods(harness.COMPARE_N_MAX + 1)
    assert str(info.value) == "max_n must be <= 20000, got 20001"


@pytest.mark.parametrize("check, bound, message", [
    (compare_methods, 0, "max_n must be >= 1, got 0"),
    (oracle_equivalence, -1, "limit must be >= 0, got -1"),
])
def test_method_and_oracle_checks_refuse_a_bound_out_of_range(check, bound, message):
    with pytest.raises(DomainError) as info:
        check(bound)
    assert str(info.value) == message


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


def test_oracle_equivalence_reports_a_dropped_member_and_a_non_member(monkeypatch):
    real = oracle.search_family

    def faulty(family, limit):
        members = real(family, limit)
        if family is SequenceKind.BALANCING:
            return members[:1] + members[2:]  # drops 6
        return members + [3]  # appends a non-member

    monkeypatch.setattr(oracle, "search_family", faulty)
    balancing, cobalancing = oracle_equivalence(300).records
    # Scanned 1, 35, 204 against 1, 6, 35, 204: two positions differ, and
    # the length mismatch sits at the first missing slot.
    assert balancing.failures == [
        EvalResult("BALANCING", 1, None, 35, 6, False),
        EvalResult("BALANCING", 2, None, 204, 35, False),
        EvalResult("BALANCING", 3, None, 3, 4, False),
    ]
    assert balancing.checked == 3 + 3
    # Scanned 0, 2, 14, 84, 3 against 0, 2, 14, 84: 3 has no witness, and
    # its failure sorts before the length mismatch at slot 4.
    assert cobalancing.failures == [
        EvalResult("COBALANCING", 3, None, -1, -1, False),
        EvalResult("COBALANCING", 4, None, 5, 4, False),
    ]
    assert cobalancing.checked == 4 + 5


def test_a_failed_witness_renders_as_a_false_csv_row_with_equal_sides(monkeypatch):
    real = oracle.balancer_of

    def no_witness_for_35(member):
        if member == 35:
            raise DomainError("no balancer")
        return real(member)

    monkeypatch.setattr(oracle, "balancer_of", no_witness_for_35)
    report = oracle_equivalence(300)
    assert emit_report(report, "csv").decode() == "id,n,m,lhs,rhs,holds\nBALANCING,35,,-1,-1,false\n"


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_generator_prefix_walks_the_recurrence(monkeypatch, kind):
    terms = list(stream(kind, 1, 4000))
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
    report.records = [IdentityRecord("B_ADD", 1, 0, 0, [case])]
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
    out = []
    report = run_suite(1, ids=["B_ADD"], write=out.append)
    lines = "".join(out).strip().split("\n")
    assert lines[0] == "id,n,m,lhs,rhs,holds"
    assert len(lines) == 1 + 4  # one row per evaluated case
    assert all(line.endswith(",true") for line in lines[1:])
    # The report keeps the failures only, and its csv lists just those.
    assert emit_report(report, "csv") == b"id,n,m,lhs,rhs,holds\n"
