"""Verification campaigns over the identity catalog, methods and oracles.

A campaign walks each identity's domain within an index grid, evaluates
every in-domain case exactly and counts every other cell of the grid as
skipped, so checked + skipped is the grid size. Results come back as a
VerificationReport that serializes deterministically: identical inputs give
byte-identical JSON/CSV. Measured wall times stay on the in-process report
objects; the canonical serializations zero them out, since emitting timings
would break byte-level reproducibility. A catalog run reads its terms from
one TermSource prefilled to identities.term_tops() for its entries.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from . import identities, oracle
from .identities import EvalResult, IdentityDescriptor
from .sequences import (
    DomainError,
    SequenceKind,
    TermSource,
    decimal_str,
    generator_prefix,
    stream,
    term_binet,
    term_doubling,
)

FORMATS = ("json", "csv", "plain")

# Largest grid run_suite takes: the sum over the selected entries of
# (max_n+1)**arity. The full catalog at max_n = 1000 has 2.6e7 cells; its
# run time grows about as max_n**3, as the operands grow with max_n.
GRID_CELLS_MAX = 4 * 10**7


@dataclass
class IdentityRecord:
    """Per-identity tally for one campaign.

    failures holds the cases whose two sides disagreed (holds=False); cases
    holds every evaluated case, and is filled only when a run collects them.
    """

    ident: str
    checked: int
    skipped: int
    wall_ms: int
    failures: list[EvalResult] = field(default_factory=list)
    cases: list[EvalResult] = field(default_factory=list)


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
    collect_cases: bool,
) -> IdentityRecord:
    started = time.perf_counter()
    checked = 0
    failures: list[EvalResult] = []
    cases: list[EvalResult] = []
    indices, lhs, rhs = desc.indices, desc.lhs, desc.rhs
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
                    failures.append(EvalResult(desc.ident, n, m, lv, rv, False))
                if collect_cases:
                    # A case that holds keeps one int for both sides, which
                    # halves the operands a verbose run holds.
                    cases.append(failures[-1] if lv != rv
                                 else EvalResult(desc.ident, n, m, lv, lv, True))
    except KeyError as exc:
        raise identities.read_error(desc, n, m, exc.args[0], max_n) from None
    skipped = (max_n + 1) ** desc.arity - checked
    wall_ms = int((time.perf_counter() - started) * 1000)
    return IdentityRecord(desc.ident, checked, skipped, wall_ms, failures, cases)


def run_suite(
    max_n: int,
    ids: Optional[list[str]] = None,
    catalog: Optional[list[IdentityDescriptor]] = None,
    collect_cases: bool = False,
) -> VerificationReport:
    """Evaluate catalog entries on their domains within the grid 0..max_n.

    Each entry walks the rows n = 0..max_n and, in each, its in-domain m
    (None for a unary entry); every other cell of the (max_n+1) or
    (max_n+1) x (max_n+1) grid counts as skipped. Identities run one after
    another in one thread, in catalog (or ids) order, and each record's
    failures come out in (n, m) order, so the report depends only on the
    arguments.

    A grid of more than GRID_CELLS_MAX cells, or terms above what
    identities.term_tops() allows, is refused with DomainError before any
    term is computed. A read outside the prefilled terms raises DomainError
    naming the entry, the cell and the index, rather than wrapping.
    """
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
    report.records = [_run_identity(d, max_n, terms, collect_cases) for d in selected]
    return report


def compare_methods(max_n: int) -> VerificationReport:
    """Assert recurrence, closed form and fast doubling agree term by term.

    Scans each kind's domain up to max_n and records the first divergence,
    if any, as a failure (lhs = recurrence value, rhs = first differing
    value from another route).
    """
    if max_n < 1:
        raise DomainError("max_n must be >= 1, got %d" % max_n)
    report = VerificationReport("method-agreement", max_n)
    for kind in SequenceKind:
        ident = "AGREE_" + kind.short
        started = time.perf_counter()
        checked = 0
        failures: list[EvalResult] = []
        for n, value in enumerate(stream(kind, kind.min_index, max_n), kind.min_index):
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


def _oracle_record(
    ident: str,
    scanned: list[int],
    generated: list[int],
    witness,
) -> IdentityRecord:
    started = time.perf_counter()
    checked = 0
    failures: list[EvalResult] = []
    common = min(len(scanned), len(generated))
    for i in range(common):
        checked += 1
        if scanned[i] != generated[i]:
            failures.append(EvalResult(ident, i, None, scanned[i], generated[i], False))
    if len(scanned) != len(generated):
        # Encode the length mismatch as a failure at the first missing slot.
        failures.append(EvalResult(ident, common, None, len(scanned), len(generated), False))
    for member in scanned:
        checked += 1
        try:
            w = witness(member)
        except (DomainError, AssertionError):
            failures.append(EvalResult(ident, member, None, -1, -1, False))
            continue
        if w.left_sum != w.right_sum or w.r < 0:
            failures.append(EvalResult(ident, member, None, w.left_sum, w.right_sum, False))
    failures.sort(key=lambda f: f.n)
    wall_ms = int((time.perf_counter() - started) * 1000)
    return IdentityRecord(ident, checked, 0, wall_ms, failures)


def oracle_equivalence(limit: int) -> VerificationReport:
    """Brute-force members up to limit must equal the generator prefixes.

    Every member found by scanning also gets its balancer or cobalancer
    witness validated by exact summation.
    """
    if limit < 0:
        raise DomainError("limit must be >= 0, got %d" % limit)
    report = VerificationReport("oracle-equivalence", limit)

    scanned_b = oracle.search_family(SequenceKind.BALANCING, limit)
    generated_b = generator_prefix(SequenceKind.BALANCING, limit)
    report.records.append(
        _oracle_record("BALANCING", scanned_b, generated_b, oracle.balancer_of)
    )

    scanned_c = oracle.search_family(SequenceKind.COBALANCING, limit)
    generated_c = generator_prefix(SequenceKind.COBALANCING, limit)
    report.records.append(
        _oracle_record("COBALANCING", scanned_c, generated_c, oracle.cobalancer_of)
    )
    return report


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
        yield "id,n,m,lhs,rhs,holds\n"
        for r in report.records:
            for c in r.cases or r.failures:
                m = "" if c.m is None else str(c.m)
                yield "%s,%d,%s,%s,%s,%s\n" % (
                    c.ident, c.n, m, decimal_str(c.lhs), decimal_str(c.rhs),
                    "true" if c.holds else "false")
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
