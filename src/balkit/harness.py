"""Verification campaigns over the identity catalog, methods and oracles.

A campaign walks each identity's domain within an index grid, evaluates
every in-domain case exactly and counts every other cell of the grid as
skipped, so checked + skipped is the grid size. Results come back as a
VerificationReport that serializes deterministically: identical inputs give
byte-identical JSON/CSV. Measured wall times stay on the in-process report
objects; the canonical serializations zero them out, since emitting timings
would break byte-level reproducibility. A catalog run reads its terms from
one TermSource prefilled at identities.term_reads() for its entries: the
indices each kind is read at on the grid, as one progression per read.
With more than one usable CPU the grid's rows are dealt out to processes
in turn, process w of W taking the rows n = w, w+W, ...; the calling
process is one of them and forked workers are the others, on the same
prefilled terms. Every process runs every entry on its rows through the
loop a run in one process uses, each worker sends its records back as
marshal data, and each entry's records are merged into one, so the report
does not depend on how many processes ran. A forked run either gets every
process's records or none count: if an entry raised anywhere, or a worker
died or sent what does not decode, the grid runs again in one process,
which raises or reports exactly what a run with jobs=1 does. A run that
writes its cases (verify --format csv --verbose) stays in one process and
writes each row as it evaluates the case, so it holds one case at a time.
"""

from __future__ import annotations

import json
import marshal
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from . import identities, oracle
from .identities import EvalResult, IdentityDescriptor
from .sequences import (
    DomainError,
    SequenceKind,
    TermSource,
    decimal_str,
    generator_prefix,
    term_binet,
    term_doubling,
    walk,
)

FORMATS = ("json", "csv", "plain")

# Largest grid run_suite takes: the sum over the selected entries of
# (max_n+1)**arity. The full catalog at max_n = 1000 has 2.6e7 cells; its
# run time grows about as max_n**3, as the operands grow with max_n.
GRID_CELLS_MAX = 4 * 10**7

# Largest jobs run_suite accepts. It runs min(jobs, usable CPUs, max_n+1)
# processes, the calling process being one of them, and each takes at least
# one row of the grid; jobs=None leaves out the first bound.
JOBS_MAX = 64

# Largest max_n compare_methods takes, near a minute's work. It computes
# every term three ways, and its time grows four- to six-fold per doubling
# of max_n: 0.24 s at 2000, 0.99 s at 4000, 4.9 s at 8000, 29 s at 16000
# and 59 s at 20000 (2-core x86-64 VM, CPython 3.11).
COMPARE_N_MAX = 2 * 10**4


@dataclass
class IdentityRecord:
    """Per-identity tally for one campaign.

    failures holds the cases whose two sides disagreed (holds=False). In
    a forked run, each process runs the identity on its own rows, and
    wall_ms is the longest that one of them took.
    """

    ident: str
    checked: int
    skipped: int
    wall_ms: int
    failures: list[EvalResult] = field(default_factory=list)


@dataclass
class VerificationReport:
    suite: str
    max_n: int
    records: list[IdentityRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(not r.failures for r in self.records)

    @property
    def total_failures(self) -> int:
        return sum(len(r.failures) for r in self.records)


def _run_identity(
    desc: IdentityDescriptor,
    rows: range,
    max_n: int,
    terms: TermSource,
    write: Optional[Callable[[str], object]],
) -> IdentityRecord:
    """Evaluate desc on its domain within the rows n of the grid 0..max_n;
    write, if given, gets each evaluated case's csv row as the case is
    evaluated. skipped counts the other cells of those rows."""
    started = time.perf_counter()
    checked = 0
    failures: list[EvalResult] = []
    ident, indices, lhs, rhs = desc.ident, desc.indices, desc.lhs, desc.rhs
    try:
        # Rows in n order, each with its in-domain m values ((None,) or ()
        # for a unary entry), so the failures come out in (n, m) order.
        for n in rows:
            ms = indices(n, max_n)
            checked += len(ms)
            for m in ms:
                lv = lhs(terms, n, m)
                rv = rhs(terms, n, m)
                if lv != rv:
                    failures.append(EvalResult(ident, n, m, lv, rv, False))
                if write is not None:
                    write(_csv_row(ident, n, m, lv, rv, lv == rv))
    except KeyError as exc:
        raise identities.read_error(desc, n, m, exc.args[0], max_n) from None
    skipped = len(rows) * (max_n + 1) ** (desc.arity - 1) - checked
    wall_ms = int((time.perf_counter() - started) * 1000)
    return IdentityRecord(desc.ident, checked, skipped, wall_ms, failures)


def _usable_cpus() -> int:
    """How many processes a run may use: the CPUs this process may run on,
    or 1 where it cannot fork, or where another thread runs (a forked child
    gets only the calling thread, and locks the others hold stay held)."""
    if not hasattr(os, "fork"):
        return 1
    import threading

    if threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _send(done: list[IdentityRecord]) -> bytes:
    """A worker's records as marshal data: plain tuples."""
    return marshal.dumps([(r.ident, r.checked, r.skipped, r.wall_ms,
                           [(f.ident, f.n, f.m, f.lhs, f.rhs, f.holds) for f in r.failures])
                          for r in done])


def _receive(data: bytes, selected: list[IdentityDescriptor]) -> Optional[list[IdentityRecord]]:
    """The records _send wrote, or None if data does not decode to one
    record per entry of selected, in order."""
    try:
        done = [IdentityRecord(ident, checked, skipped, wall_ms,
                               [EvalResult(*f) for f in failures])
                for ident, checked, skipped, wall_ms, failures in marshal.loads(data)]
    except (EOFError, TypeError, ValueError):
        return None
    if [r.ident for r in done] != [d.ident for d in selected]:
        return None
    return done


def _run_forked(
    selected: list[IdentityDescriptor], max_n: int, terms: TermSource, workers: int
) -> Optional[list[IdentityRecord]]:
    """Run every selected entry on the rows n = w, w+workers, ... in
    process w: process 0 is this one, each other a forked child, which
    sends its records back through a pipe as marshal data (_send). Each
    entry's records are merged: checked and skipped summed, wall_ms the
    largest, failures in (n, m) order.

    A process whose entry raises sends nothing. If any process's records
    are missing, because an entry raised, a child exited nonzero or sent
    what does not decode, this returns None once every child is reaped."""
    import signal

    def run(rows: range) -> list[IdentityRecord]:
        return [_run_identity(d, rows, max_n, terms, None) for d in selected]

    children = {}  # pid -> the read end of its pipe
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            # SIGINT waits until the parent has recorded the child, and the
            # child has entered the try that ends in os._exit, so Ctrl-C
            # can neither orphan a child nor run the parent's cleanup in it.
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            pid = os.fork()
            if pid == 0:
                # The child leaves only through os._exit, so it never
                # returns into the caller's code or flushes a stdio buffer
                # it inherited.
                code = 1
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    os.close(read_fd)
                    for pipe in children.values():
                        pipe.close()
                    data = _send(run(range(w, max_n + 1, workers)))
                    with os.fdopen(write_fd, "wb") as out:
                        out.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        try:
            parts = [run(range(0, max_n + 1, workers))]
        except Exception:
            parts = [None]
        for pid, pipe in list(children.items()):
            # Read to the end before waiting: a child blocks on a full pipe.
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            parts.append(_receive(data, selected) if status == 0 else None)
    except BaseException:
        # A second Ctrl-C waits until every child is reaped.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        for pid, pipe in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        raise

    if None in parts:
        return None
    # Each row is in one part, so a stable sort on n puts the failures in
    # (n, m) order.
    return [IdentityRecord(records[0].ident, sum(r.checked for r in records),
                           sum(r.skipped for r in records), max(r.wall_ms for r in records),
                           sorted((f for r in records for f in r.failures), key=lambda f: f.n))
            for records in zip(*parts)]


def run_suite(
    max_n: int,
    ids: Optional[list[str]] = None,
    catalog: Optional[list[IdentityDescriptor]] = None,
    jobs: Optional[int] = None,
    write: Optional[Callable[[str], object]] = None,
) -> VerificationReport:
    """Evaluate catalog entries on their domains within the grid 0..max_n.

    Each entry walks the rows n = 0..max_n and, in each, its in-domain m
    (None for a unary entry); every other cell of the (max_n+1) or
    (max_n+1) x (max_n+1) grid counts as skipped. The records come in
    catalog (or ids) order, and each record's failures in (n, m) order, so
    the report depends only on the arguments and not on jobs.

    write, if given, gets the csv report of every evaluated case (verify
    --format csv --verbose): the header once every refusal is behind the
    run, then each case's row as _run_identity evaluates the case, so no
    case outlives its row. The records keep only the failures, for passed.

    The run uses min(usable CPUs, max_n+1) processes, and at most jobs
    (1..JOBS_MAX) if given; one where os.fork is missing, another thread
    runs, or write is given. With W > 1, process w runs every entry on the
    rows n = w, w+W, ..., the calling process on its own and forked
    children on the same prefilled terms, which report back through
    marshal, not pickle; each entry's records are then merged into one. If
    any process's records are missing (an entry raised, or a worker died or
    sent what does not decode), the grid runs again in this process alone,
    which raises what jobs=1 raises, or gives its report where the fault
    was outside the run, such as a worker the kernel killed.

    jobs out of range, a grid of more than GRID_CELLS_MAX cells, or terms
    above what identities.term_reads() allows, is refused with DomainError
    before any term is computed, process started or text written.
    identities.term_reads() gives a progression per read of the entries'
    statements that holds every index the read takes on the grid, and the
    prefill holds those indices alone, so only an entry whose lhs or rhs a
    caller replaced (by dataclasses.replace, say) can read outside it;
    that raises DomainError naming the entry, the cell and the index,
    rather than wrapping, after the rows before it are written.
    """
    if jobs is not None and jobs < 1:
        raise DomainError("workers must be >= 1, got %d" % jobs)
    if jobs is not None and jobs > JOBS_MAX:
        raise DomainError("workers must be <= %d, got %d" % (JOBS_MAX, jobs))
    if max_n < 1:
        raise DomainError("max_n must be >= 1, got %d" % max_n)
    if catalog is None:
        catalog = identities.list_identities()
    by_id = {d.ident: d for d in catalog}
    if ids is None:
        selected = list(catalog)
    else:
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise identities.UnknownIdentityError(
                "unknown identity id(s): %s" % ", ".join(missing)
            )
        selected = [by_id[i] for i in ids]
    cells = sum((max_n + 1) ** d.arity for d in selected)
    if cells > GRID_CELLS_MAX:
        raise DomainError(
            "max_n=%d gives a grid of %d cells, above the limit of %d"
            % (max_n, cells, GRID_CELLS_MAX))

    reads = identities.term_reads(selected, max_n)
    terms = TermSource()
    terms.prefill(reads)

    report = VerificationReport("identity-catalog", max_n)
    # A run that writes its cases stays in one process, which writes the
    # rows in order as it evaluates them.
    workers = 1 if write is not None else min(jobs or JOBS_MAX, max_n + 1)
    if workers > 1:
        workers = min(workers, _usable_cpus())
    records = _run_forked(selected, max_n, terms, workers) if workers > 1 else None
    if records is None:
        if write is not None:
            write(_CSV_HEADER)
        rows = range(max_n + 1)
        records = [_run_identity(d, rows, max_n, terms, write) for d in selected]
    report.records = records
    return report


def compare_methods(max_n: int) -> VerificationReport:
    """Assert recurrence, closed form and fast doubling agree term by term.

    Scans each kind's domain up to max_n and records the first divergence,
    if any, as a failure (lhs = recurrence value, rhs = first differing
    value from another route). A max_n above COMPARE_N_MAX raises
    DomainError before any term is computed.
    """
    if max_n < 1:
        raise DomainError("max_n must be >= 1, got %d" % max_n)
    if max_n > COMPARE_N_MAX:
        raise DomainError("max_n must be <= %d, got %d" % (COMPARE_N_MAX, max_n))
    report = VerificationReport("method-agreement", max_n)
    for kind in SequenceKind:
        ident = "AGREE_" + kind.short
        started = time.perf_counter()
        checked = 0
        failures: list[EvalResult] = []
        for n, value in zip(range(kind.min_index, max_n + 1), walk(kind)):
            binet = term_binet(kind, n)
            doubled = term_doubling(kind, n)
            checked += 1
            if not (value == binet == doubled):
                other = binet if binet != value else doubled
                failures.append(EvalResult(ident, n, None, value, other, False))
                break
        wall_ms = int((time.perf_counter() - started) * 1000)
        report.records.append(IdentityRecord(ident, checked, 0, wall_ms, failures))
    return report


def oracle_equivalence(limit: int) -> VerificationReport:
    """Brute-force members up to limit must equal the generator prefixes.

    Each family, balancing then cobalancing, gets one record, ident its
    SequenceKind name. Its failures, sorted by n: one per position i where
    the scanned and generated lists differ (lhs scanned[i], rhs
    generated[i]); if their lengths differ, one at the first missing slot
    (lhs and rhs the two lengths); and one (member, -1, -1) per scanned
    member whose balancer or cobalancer witness fails exact summation.
    checked is the common length plus the number of scanned members.
    """
    if limit < 0:
        raise DomainError("limit must be >= 0, got %d" % limit)
    report = VerificationReport("oracle-equivalence", limit)
    for family, witness in ((SequenceKind.BALANCING, oracle.balancer_of),
                            (SequenceKind.COBALANCING, oracle.cobalancer_of)):
        started = time.perf_counter()
        scanned = oracle.search_family(family, limit)
        generated = generator_prefix(family, limit)
        common = min(len(scanned), len(generated))
        failures = [EvalResult(family.name, i, None, scanned[i], generated[i], False)
                    for i in range(common) if scanned[i] != generated[i]]
        if len(scanned) != len(generated):
            failures.append(EvalResult(family.name, common, None, len(scanned),
                                       len(generated), False))
        for member in scanned:
            try:
                witness(member)
            except (DomainError, AssertionError):
                failures.append(EvalResult(family.name, member, None, -1, -1, False))
        failures.sort(key=lambda f: f.n)
        wall_ms = int((time.perf_counter() - started) * 1000)
        report.records.append(
            IdentityRecord(family.name, common + len(scanned), 0, wall_ms, failures))
    return report


_CSV_HEADER = "id,n,m,lhs,rhs,holds\n"


def _csv_row(ident: str, n: int, m: Optional[int], lhs: int, rhs: int, holds: bool) -> str:
    """One case's csv row. holds is given: a C4 witness failure has equal sides."""
    lv = decimal_str(lhs)
    rv = lv if rhs == lhs else decimal_str(rhs)
    return "%s,%d,%s,%s,%s,%s\n" % (ident, n, "" if m is None else m,
                                    lv, rv, "true" if holds else "false")


def report_lines(report: VerificationReport, fmt: str) -> Iterator[str]:
    """Serialize a report a piece at a time: a header, one piece per
    record (json, plain) or per row (csv), then a footer. Joined, the
    pieces are the canonical text; an unknown format raises ValueError
    before anything is yielded."""
    if fmt not in FORMATS:
        raise ValueError("unsupported report format %r (use json, csv or plain)" % fmt)
    if fmt == "json":
        # The keys sorted put "identities" first, so the records stream
        # inside it and the other keys follow.
        yield '{"identities":['
        for i, r in enumerate(report.records):
            record = {
                "id": r.ident,
                "checked": r.checked,
                "skipped": r.skipped,
                # Zeroed in canonical output; measured time stays on the record.
                "wall_ms": 0,
                "failures": [
                    {"n": f.n, "m": f.m, "lhs": decimal_str(f.lhs), "rhs": decimal_str(f.rhs)}
                    for f in r.failures
                ],
            }
            yield ("," if i else "") + json.dumps(record, sort_keys=True, separators=(",", ":"))
        yield '],"max_n":%s,"pass":%s,"suite":%s}\n' % (
            json.dumps(report.max_n), json.dumps(report.passed), json.dumps(report.suite))
    elif fmt == "csv":
        yield _CSV_HEADER
        for r in report.records:
            for f in r.failures:
                yield _csv_row(f.ident, f.n, f.m, f.lhs, f.rhs, f.holds)
    else:
        yield "suite=%s max_n=%d\n" % (report.suite, report.max_n)
        for r in report.records:
            lines = ["%s checked=%d skipped=%d failures=%d\n"
                     % (r.ident, r.checked, r.skipped, len(r.failures))]
            for f in r.failures:
                m = "-" if f.m is None else str(f.m)
                lines.append("  fail n=%d m=%s lhs=%s rhs=%s\n"
                             % (f.n, m, decimal_str(f.lhs), decimal_str(f.rhs)))
            yield "".join(lines)
        yield "overall=%s\n" % ("pass" if report.passed else "fail")


def emit_report(report: VerificationReport, fmt: str) -> bytes:
    """Serialize a report; identical reports give byte-identical output."""
    return "".join(report_lines(report, fmt)).encode("utf-8")
