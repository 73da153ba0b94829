"""Spans and counters for one traced balkit request, recorded from outside.

install() replaces balkit functions with timing wrappers at the names their
callers look up (balkit.cli.pair_bc, balkit.sequences.pair_bc, ...), so
balkit's own code is unchanged. Run only in a traced child process.

Each wrapped call is a span: name, start, end and the span that was open
when it began. Coarse spans (one per command, per identity, per report) are
kept as records. Hot spans (isqrt, identity evaluators, doubling calls) are
called up to millions of times per request, so they only add to their
name's totals and to their parent's child time; one is also kept as a
record when it lasts 1 ms or more. Self time is a span's duration minus the
time its child spans cover.

`verify --jobs 2` runs identities on pool threads. Their top-level spans
overlap in wall time (each thread also counts the time it waits for the
interpreter lock), so the parent subtracts the union of their intervals,
and the times recorded on pool threads are scaled by union / sum, which
makes the layer self times of a request add up to its wall time.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time

pc = time.perf_counter

HOT_RECORD_S = 1e-3


class _Frame:
    __slots__ = ("span_id", "start", "child", "hot_mark", "workers")

    def __init__(self, span_id: int, hot_mark: float) -> None:
        self.span_id = span_id
        self.start = 0.0
        self.child = 0.0
        self.hot_mark = hot_mark
        self.workers: list[tuple[float, float]] = []


class _ThreadState:
    def __init__(self, main: bool) -> None:
        self.main = main
        self.stack: list[_Frame] = []
        self.hot_total = 0.0  # time of finished hot spans directly under the open frame
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.bits_max = 0


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


class Tracer:
    def __init__(self) -> None:
        self._main_ident = threading.get_ident()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, thread)
        self.counters: dict[str, float] = {}
        self.reads = itertools.count()  # next() is atomic, so pool threads may share it
        self.term_sources: list = []
        self._pool_sum = 0.0
        self._pool_union = 0.0

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident() == self._main_ident)
            self._local.state = state
            self._states.append(state)
            return state

    def _main_top(self):
        for state in self._states:
            if state.main and state.stack:
                return state.stack[-1]
        return None

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str, fn, after=None):
        """Coarse wrapper: keeps a span record; after(args, result) may count."""
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            parent = state.stack[-1] if state.stack else (None if state.main else tracer._main_top())
            frame = _Frame(next(tracer._ids), state.hot_total)
            state.stack.append(frame)
            frame.start = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = pc()
                state.stack.pop()
                duration = end - frame.start
                child = frame.child + (state.hot_total - frame.hot_mark)
                state.hot_total = frame.hot_mark  # the parent sees this span's duration instead
                if frame.workers:
                    covered = _union(frame.workers)
                    tracer._pool_union += covered
                    tracer._pool_sum += sum(e - s for s, e in frame.workers)
                    child += covered
                stat = state.stats.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - child
                if state.stack:
                    state.stack[-1].child += duration
                elif parent is not None:
                    parent.workers.append((frame.start, end))
                tracer.spans.append((frame.span_id, name, frame.start, end,
                                     parent.span_id if parent else None,
                                     0 if state.main else threading.get_ident()))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def hot(self, name: str, fn, after=None, bits=False):
        """Light wrapper for calls that may nest only other hot calls."""
        tracer = self

        def wrapper(*args):
            state = tracer._state()
            mark = state.hot_total
            start = pc()
            result = fn(*args)
            end = pc()
            duration = end - start
            inner = state.hot_total - mark
            state.hot_total = mark + duration
            stat = state.stats.get(name)
            if stat is None:
                stat = state.stats[name] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - inner
            if bits:
                b = abs(result).bit_length()
                if b > state.bits_max:
                    state.bits_max = b
            if after is not None:
                after(args, result)
            if duration >= HOT_RECORD_S:
                parent = state.stack[-1] if state.stack else None
                tracer.spans.append((next(tracer._ids), name, start, end,
                                     parent.span_id if parent else None,
                                     0 if state.main else threading.get_ident()))
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-name [calls, total_s, self_s] with pool-thread times scaled."""
        scale = self._pool_union / self._pool_sum if self._pool_sum > 0 else 1.0
        stats: dict[str, list[float]] = {}
        bits_max = 0
        for state in self._states:
            k = 1.0 if state.main else scale
            for name, (calls, total, own) in state.stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total * k
                acc[2] += own * k
            bits_max = max(bits_max, state.bits_max)
        counters = dict(self.counters)
        counters["identities.eval.operand_bits_max"] = bits_max
        counters["sequences.termsource.reads"] = next(self.reads)
        counters["sequences.termsource.filled_terms"] = sum(
            len(getattr(t, cache, ())) for t in self.term_sources for cache in ("_B", "_C", "_b", "_c"))
        return {"stats": stats, "counters": counters}


def install(tracer: Tracer) -> None:
    """Wrap balkit's public functions where their callers look them up."""
    from balkit import cli, harness, identities, oracle, sequences

    def out_bits(args, result):
        tracer.add("sequences.pair_bc.out_bits", result[0].bit_length() + result[1].bit_length())

    pair_bc = tracer.hot("sequences.pair_bc", sequences.pair_bc, after=out_bits)
    sequences.pair_bc = cli.pair_bc = harness.pair_bc = pair_bc
    pair_cobal = tracer.hot("sequences.pair_cobal", sequences.pair_cobal)
    cli.pair_cobal = harness.pair_cobal = pair_cobal
    sequences.qpow = tracer.span("quadring.pow", sequences.qpow)
    cli.term_binet = harness.term_binet = tracer.span("sequences.term_binet", sequences.term_binet)
    cli.term_recurrence = tracer.span("sequences.term_recurrence", sequences.term_recurrence)
    cli.stream = harness.stream = tracer.span(
        "sequences.stream", sequences.stream,
        after=lambda args, result: tracer.add("sequences.stream.terms", len(result)))

    reads = tracer.reads

    class TracedTermSource(sequences.TermSource):
        def __init__(self) -> None:
            super().__init__()
            tracer.term_sources.append(self)

        prefill = tracer.span("sequences.termsource.prefill", sequences.TermSource.prefill)

        def B(self, i):
            next(reads)
            return sequences.TermSource.B(self, i)

        def C(self, i):
            next(reads)
            return sequences.TermSource.C(self, i)

        def b(self, i):
            next(reads)
            return sequences.TermSource.b(self, i)

        def c(self, i):
            next(reads)
            return sequences.TermSource.c(self, i)

    harness.TermSource = TracedTermSource

    original_list = identities.list_identities

    def list_identities():
        return [
            dataclasses.replace(
                d,
                lhs=tracer.hot("identities.eval", d.lhs, bits=True),
                rhs=tracer.hot("identities.eval", d.rhs, bits=True),
            )
            for d in original_list()
        ]

    identities.list_identities = list_identities

    def suite_counts(args, report):
        for r in report.records:
            tracer.add("harness.checked", r.checked)
            tracer.add("harness.skipped", r.skipped)
            tracer.counters["harness.identity_ms.max"] = max(
                tracer.counters.get("harness.identity_ms.max", 0), r.wall_ms)

    harness.run_suite = tracer.span("harness.run_suite", harness.run_suite, after=suite_counts)
    # The per-identity loop is private; without it the identities' time
    # stays in run_suite's self time.
    if hasattr(harness, "_run_identity"):
        harness._run_identity = tracer.span("harness.identity", harness._run_identity)
    harness.emit_report = tracer.span(
        "harness.emit_report", harness.emit_report,
        after=lambda args, result: tracer.add("harness.emit_report.bytes", len(result)))

    def scan_counts(args, result):
        family, limit = args
        tracer.add("oracle.scanned", limit if family is sequences.SequenceKind.BALANCING else limit + 1)
        tracer.add("oracle.members", len(result))

    oracle.search_family = tracer.span("oracle.search_family", oracle.search_family, after=scan_counts)
    oracle.isqrt = tracer.hot("oracle.isqrt", oracle.isqrt)
    oracle.balancer_of = tracer.span("oracle.witness", oracle.balancer_of)
    oracle.cobalancer_of = tracer.span("oracle.witness", oracle.cobalancer_of)
