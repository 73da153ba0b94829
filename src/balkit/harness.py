"""Verification campaigns over the identity catalog, methods and oracles.

A campaign walks each identity's domain within an index grid, evaluates
every in-domain case exactly and counts every other cell of the grid as
skipped, so checked + skipped is the grid size. Results come back as a
VerificationReport that serializes deterministically: identical inputs give
byte-identical JSON/CSV. Measured wall times stay on the in-process report
objects; the canonical serializations zero them out, since emitting timings
would break byte-level reproducibility. A catalog run reads its terms from
one TermSource prefilled to identities.term_tops() for its entries: the
highest index each kind is read at on the grid, none below its first. With
more than one usable CPU the entries are split into shares by cell count;
the calling process runs one share and forked workers run the others on
the same prefilled terms, and the records come back in the selected order,
so the report does not depend on how many processes ran. A run that writes
its cases (verify --format csv --verbose) stays in one process and writes
each row as it evaluates the case, so it holds one case at a time.
"""

from __future__ import annotations

import json
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
    WorkerError,
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

# Largest jobs run_suite accepts. It runs min(jobs, usable CPUs, entries)
# workers, the calling process being one of them; jobs=None leaves out the
# first bound.
JOBS_MAX = 64

# Largest max_n compare_methods takes, near a minute's work. It computes
# every term three ways, and its time grows four- to six-fold per doubling
# of max_n: 0.24 s at 2000, 0.99 s at 4000, 4.9 s at 8000, 29 s at 16000
# and 59 s at 20000 (2-core x86-64 VM, CPython 3.11).
COMPARE_N_MAX = 2 * 10**4


@dataclass
class IdentityRecord:
    """Per-identity tally for one campaign.

    failures holds the cases whose two sides disagreed (holds=False).
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
    max_n: int,
    terms: TermSource,
    write: Optional[Callable[[str], object]],
) -> IdentityRecord:
    """Evaluate desc on its domain within the grid; write, if given, gets
    each evaluated case's csv row as the case is evaluated."""
    started = time.perf_counter()
    checked = 0
    failures: list[EvalResult] = []
    ident, indices, lhs, rhs = desc.ident, desc.indices, desc.lhs, desc.rhs
    try:
        # Rows in n order, each with its in-domain m values ((None,) or ()
        # for a unary entry), so the failures come out in (n, m) order.
        for n in range(max_n + 1):
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
    skipped = (max_n + 1) ** desc.arity - checked
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


def _shares(selected: list[IdentityDescriptor], max_n: int, workers: int) -> list[list[int]]:
    """Split the positions of selected into workers shares of about equal
    in-domain cell count: largest entry first, each to the least loaded
    share (the lowest-numbered on a tie). Each share is in selected order."""
    cells = [sum(len(d.indices(n, max_n)) for n in range(max_n + 1)) for d in selected]
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(selected)), key=lambda i: -cells[i]):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += cells[i]
    return [sorted(share) for share in shares]


def _run_share(
    selected: list[IdentityDescriptor], share: list[int], max_n: int, terms: TermSource
) -> tuple[list[IdentityRecord], Optional[tuple[int, Exception]]]:
    """Run the entries of one share in order, up to the first that raises:
    the records of those before it, and (position, exception) for it."""
    done: list[IdentityRecord] = []
    for i in share:
        try:
            done.append(_run_identity(selected[i], max_n, terms, None))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _run_forked(
    selected: list[IdentityDescriptor], max_n: int, terms: TermSource, workers: int
) -> list[IdentityRecord]:
    """Run share 0 here and every other share in a forked child, which
    sends its _run_share result back through a pipe. The records come back
    in selected order; if entries raised, the one earliest in selected
    order is re-raised, as a run in one process would raise it first."""
    import pickle
    import signal

    shares = _shares(selected, max_n, workers)
    children = {}  # pid -> the read end of its pipe
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        for share in shares[1:]:
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
                    result = _run_share(selected, share, max_n, terms)
                    with os.fdopen(write_fd, "wb") as out:
                        pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        results = [_run_share(selected, shares[0], max_n, terms)]
        for pid, pipe in list(children.items()):
            # Read to the end before waiting: a child blocks on a full pipe.
            with pipe:
                try:
                    result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    result = None
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if result is None or status != 0:
                raise WorkerError("a verify worker exited without a result (status %d)"
                                  % os.waitstatus_to_exitcode(status))
            results.append(result)
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

    records: list[Optional[IdentityRecord]] = [None] * len(selected)
    errors = []
    for share, (done, error) in zip(shares, results):
        for i, record in zip(share, done):
            records[i] = record
        if error is not None:
            errors.append(error)
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return records


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

    The run uses min(usable CPUs, entries) processes, and at most jobs
    (1..JOBS_MAX) if given; one where os.fork is missing, another thread
    runs, or write is given. With more than one, the entries are split by
    cell count, and every share but the calling process's own runs in a
    forked child on the same prefilled terms. If entries raise, the one
    first in order is re-raised, as with jobs=1; a worker that dies without
    a result raises WorkerError, a RuntimeError.

    jobs out of range, a grid of more than GRID_CELLS_MAX cells, or terms
    above what identities.term_tops() allows, is refused with DomainError
    before any term is computed, process started or text written.
    term_tops() prefills exactly the indices the entries' statements read
    on the grid, their reads, so only an entry whose lhs or rhs a caller
    replaced (by dataclasses.replace, say) can read outside the prefill;
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

    tops = identities.term_tops(selected, max_n)
    terms = TermSource()
    terms.prefill(tops)

    report = VerificationReport("identity-catalog", max_n)
    # A run that writes its cases stays in one process, which writes the
    # rows in order as it evaluates them.
    workers = 1 if write is not None else min(jobs or JOBS_MAX, len(selected))
    if workers > 1:
        workers = min(workers, _usable_cpus())
    if workers > 1:
        report.records = _run_forked(selected, max_n, terms, workers)
        return report
    if write is not None:
        write(_CSV_HEADER)
    for d in selected:
        report.records.append(_run_identity(d, max_n, terms, write))
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
