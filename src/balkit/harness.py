"""Verification campaigns over the identity catalog, methods and oracles.

A campaign walks each identity's domain within an index grid, evaluates
every in-domain case exactly and counts every other cell of the grid as
skipped, so checked + skipped is the grid size. Results come back as a
VerificationReport that serializes deterministically: identical inputs give
byte-identical JSON/CSV. Measured wall times stay on the in-process report
objects; the canonical serializations zero them out, since emitting timings
would break byte-level reproducibility.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from itertools import islice, takewhile
from typing import Iterable, Optional, Sequence

from . import identities, oracle
from .identities import EvalResult, IdentityDescriptor
from .sequences import (
    DomainError,
    SequenceKind,
    TermSource,
    TermTables,
    decimal_str,
    stream,
    term_binet,
    term_doubling,
    walk,
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


def _sort_key(f: EvalResult) -> tuple[int, int]:
    return (f.n, -1 if f.m is None else f.m)


def _run_identity(
    desc: IdentityDescriptor,
    max_n: int,
    tables: TermTables,
    collect_cases: bool,
) -> IdentityRecord:
    started = time.perf_counter()
    checked = 0
    failures: list[EvalResult] = []
    cases: list[EvalResult] = []
    indices, lhs, rhs = desc.indices, desc.lhs, desc.rhs
    # Rows in n order, each with its in-domain m values (None for unary).
    if desc.arity == 1:
        rows: Iterable[tuple[int, Sequence[Optional[int]]]] = (
            (n, (None,)) for n in indices(max_n))
    else:
        rows = ((n, indices(n, max_n)) for n in range(max_n + 1))
    try:
        for n, ms in rows:
            checked += len(ms)
            for m in ms:
                lv = lhs(tables, n, m)
                rv = rhs(tables, n, m)
                if lv != rv:
                    failures.append(EvalResult(desc.ident, n, m, lv, rv, False))
                if collect_cases:
                    cases.append(EvalResult(desc.ident, n, m, lv, rv, lv == rv))
    except KeyError as exc:
        raise DomainError(
            "%s at (n=%s, m=%s) reads index %s, outside the terms prefilled for max_n=%d"
            % (desc.ident, n, m, exc.args[0], max_n)) from None
    failures.sort(key=_sort_key)
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

    Unary entries walk their in-domain n, binary entries the in-domain m of
    each row n; every other cell of the (max_n+1) or (max_n+1) x (max_n+1)
    grid counts as skipped. Identities run one after another in one thread,
    in catalog (or ids) order, and each record's failures are sorted by
    (n, m), so the report depends only on the arguments.

    A grid of more than GRID_CELLS_MAX cells is refused with DomainError
    before any term is computed. The evaluators read exact dict copies of
    the prefilled terms, so a read outside them raises DomainError naming
    the entry, the cell and the index, rather than growing or wrapping.
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

    # Only the kinds the selected statements read are filled; the other
    # tables stay empty, so a stray read still stops the run by name.
    reads = set(re.findall(r"([BCbc])\(", " ".join(d.statement for d in selected)))
    terms = TermSource()
    # Largest index any catalog entry can touch: 2*max_n + 1 for B/C shifts,
    # 4*max_n for the quadrupled-index congruence on c. Filled up front and
    # copied into exact dicts, whose subscripts CPython specializes. A top
    # of -1 fills nothing.
    terms.prefill(2 * max_n + 2 if reads & set("BC") else -1,
                  4 * max_n + 2 if reads & set("bc") else -1)
    grown = terms.tables()
    tables = TermTables(*(dict(getattr(grown, k)) if k in reads else {} for k in "BCbc"))

    report = VerificationReport("identity-catalog", max_n)
    report.records = [_run_identity(d, max_n, tables, collect_cases) for d in selected]
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
        for term in stream(kind, kind.min_index, max_n):
            binet = term_binet(kind, term.n)
            doubled = term_doubling(kind, term.n)
            checked += 1
            if not (term.value == binet == doubled):
                other = binet if binet != term.value else doubled
                failures.append(EvalResult(ident, term.n, None, term.value, other, False))
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
    failures.sort(key=_sort_key)
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


def generator_prefix(kind: SequenceKind, limit: int) -> list[int]:
    """Sequence values <= limit, from index 1 upward (B(0)=0 is excluded:
    the family proper starts at 1 for balancing, 0=b(1) for cobalancing).
    The terms increase, so the recurrence walk stops at the first above limit."""
    terms = islice(walk(kind), 1 - kind.min_index, None)
    return list(takewhile(lambda value: value <= limit, terms))


def _json_obj(report: VerificationReport) -> dict:
    return {
        "suite": report.suite,
        "max_n": report.max_n,
        "pass": report.passed,
        "identities": [
            {
                "id": r.ident,
                "checked": r.checked,
                "skipped": r.skipped,
                # Zeroed in canonical output; measured time stays on the record.
                "wall_ms": 0,
                "failures": [
                    {
                        "n": f.n,
                        "m": f.m,
                        "lhs": decimal_str(f.lhs),
                        "rhs": decimal_str(f.rhs),
                    }
                    for f in r.failures
                ],
            }
            for r in report.records
        ],
    }


def _csv_rows(report: VerificationReport) -> list[str]:
    rows = ["id,n,m,lhs,rhs,holds"]
    for r in report.records:
        for c in r.cases or r.failures:
            m = "" if c.m is None else str(c.m)
            rows.append(
                "%s,%d,%s,%s,%s,%s"
                % (c.ident, c.n, m, decimal_str(c.lhs), decimal_str(c.rhs),
                   "true" if c.holds else "false")
            )
    return rows


def _plain_lines(report: VerificationReport) -> list[str]:
    lines = ["suite=%s max_n=%d" % (report.suite, report.max_n)]
    for r in report.records:
        lines.append(
            "%s checked=%d skipped=%d failures=%d"
            % (r.ident, r.checked, r.skipped, len(r.failures))
        )
        for f in r.failures:
            m = "-" if f.m is None else str(f.m)
            lines.append("  fail n=%d m=%s lhs=%s rhs=%s"
                         % (f.n, m, decimal_str(f.lhs), decimal_str(f.rhs)))
    lines.append("overall=%s" % ("pass" if report.passed else "fail"))
    return lines


def emit_report(report: VerificationReport, fmt: str) -> bytes:
    """Serialize a report; identical reports give byte-identical output."""
    if fmt == "json":
        text = json.dumps(_json_obj(report), sort_keys=True, separators=(",", ":"))
        return (text + "\n").encode("utf-8")
    if fmt == "csv":
        return ("\n".join(_csv_rows(report)) + "\n").encode("utf-8")
    if fmt == "plain":
        return ("\n".join(_plain_lines(report)) + "\n").encode("utf-8")
    raise ValueError("unsupported report format %r (use json, csv or plain)" % fmt)
