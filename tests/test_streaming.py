"""Long CLI outputs are written a piece at a time, as the same bytes.

seq, search and verify write a header, one value, row or record per
write, then a footer. Joined, the writes must be the canonical text: the
json.dumps(sort_keys=True) document for seq and search, emit_report's for
verify. The commands run against a stdout that has write alone, as the
benchmark's counting stdout counts only write calls.
"""

import json
import re
import subprocess
import sys
import tracemalloc

import pytest

from balkit import cli, harness, identities
from balkit.sequences import SequenceKind, TermSource, generator_prefix, parse_kind, stream
from test_harness import corrupt_c_diff_half

# Longest header or footer around the streamed units, with a unit's comma
# and quotes: '{"kind":"lucas-cobalancing","start":...,"values":[' and the like.
FRAMING = 80


class WriteOnly:
    """A stdout with write alone, recording each piece written."""

    def __init__(self) -> None:
        self.pieces: list[str] = []

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)


def _run(monkeypatch, argv):
    """Run one command's handler (main would also flush) into a WriteOnly."""
    sink = WriteOnly()
    monkeypatch.setattr(sys, "stdout", sink)
    args = cli.parse_args(argv)
    code = args.func(args)
    monkeypatch.undo()
    return code, sink.pieces


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _check_pieces(pieces, expected, units):
    assert "".join(pieces) == expected
    assert max(map(len, pieces)) <= max(map(len, units), default=0) + FRAMING


SEQS = [("B", 0, 40), ("c", 1, 30), ("C", 700, 800), ("b", 5, 5)]


@pytest.mark.parametrize("kind, start, stop", SEQS)
def test_seq_streams_the_canonical_json_and_csv(monkeypatch, kind, start, stop):
    k = parse_kind(kind)
    values = list(map(str, stream(k, start, stop)))
    argv = ["seq", kind, str(start), str(stop), "--format"]
    code, pieces = _run(monkeypatch, argv + ["json"])
    assert code == 0
    _check_pieces(pieces, _dumps({"kind": k.value, "start": start, "stop": stop,
                                  "values": values}), values)
    code, pieces = _run(monkeypatch, argv + ["csv"])
    rows = ["n,value"] + ["%d,%s" % (start + i, v) for i, v in enumerate(values)]
    assert code == 0
    _check_pieces(pieces, "\n".join(rows) + "\n", rows)


@pytest.mark.parametrize("family, limit, method", [
    ("balancing", 10**40, "generator"),
    ("cobalancing", 10**5, "generator"),
    ("balancing", 0, "generator"),
    ("cobalancing", 5000, "oracle"),
])
def test_search_streams_the_canonical_json_and_csv(monkeypatch, family, limit, method):
    kind = SequenceKind(family)
    members = [str(v) for v in generator_prefix(kind, limit)]
    argv = ["search", family, "--limit", str(limit), "--method", method, "--format"]
    code, pieces = _run(monkeypatch, argv + ["json"])
    assert code == 0
    _check_pieces(pieces, _dumps({"family": family, "limit": str(limit),
                                  "members": members, "method": method}), members)
    code, pieces = _run(monkeypatch, argv + ["csv"])
    assert code == 0
    _check_pieces(pieces, "".join(v + "\n" for v in ["value"] + members), members)


def _report_units(fmt: str, text: str) -> list[str]:
    """The records (json, plain) or rows (csv) of a canonical report."""
    if fmt == "json":
        return [json.dumps(r, sort_keys=True, separators=(",", ":"))
                for r in json.loads(text)["identities"]]
    if fmt == "csv":
        return text.splitlines(True)
    return re.findall(r"^\S.*\n(?:  .*\n)*", text, re.M)


@pytest.mark.parametrize("corrupted", [False, True])
@pytest.mark.parametrize("argv", [
    ["--max-n", "12", "--format", "json"],
    ["--max-n", "12", "--format", "plain"],
    ["--max-n", "12", "--format", "csv"],
    ["--max-n", "6", "--format", "csv", "--verbose"],
    ["--max-n", "9", "--id", "B_ADD", "--id", "EVEN_b", "--id", "C_DIFF_HALF",
     "--format", "json"],
])
def test_verify_streams_emit_report(monkeypatch, argv, corrupted):
    catalog = corrupt_c_diff_half() if corrupted else identities.list_identities()
    args = cli.parse_args(["verify", *argv])
    if args.verbose:
        written = []
        report = harness.run_suite(args.max_n, ids=args.id, catalog=catalog,
                                   write=written.append)
        expected = "".join(written)
    else:
        report = harness.run_suite(args.max_n, ids=args.id, catalog=catalog)
        expected = harness.emit_report(report, args.format).decode("utf-8")
    monkeypatch.setattr(identities, "list_identities", lambda: catalog)
    code, pieces = _run(monkeypatch, ["verify", *argv])
    assert code == (1 if corrupted else 0)
    assert report.passed is not corrupted
    _check_pieces(pieces, expected, _report_units(args.format, expected))


def test_streamed_verbose_csv_of_the_negative_control_is_the_collected_report(monkeypatch):
    # C2 at --max-n 30: the rows written as the cases are evaluated are
    # those of every in-domain cell, evaluated here on fully filled terms;
    # the false ones are the csv report of the run's failures.
    catalog = corrupt_c_diff_half()
    terms = TermSource()
    terms.prefill({k: [range(parse_kind(k).min_index, 121)] for k in "BCbc"})
    rows = ["id,n,m,lhs,rhs,holds\n"]
    for d in catalog:
        for n in range(31):
            for m in d.indices(n, 30):
                lv, rv = d.lhs(terms, n, m), d.rhs(terms, n, m)
                rows.append("%s,%d,%s,%d,%d,%s\n" % (d.ident, n, "" if m is None else m, lv, rv,
                                                     "true" if lv == rv else "false"))
    expected = "".join(rows)
    report = harness.run_suite(30, catalog=catalog)
    failed = harness.emit_report(report, "csv").decode("utf-8")
    assert failed == "".join(r for r in rows if not r.endswith(",true\n"))
    assert expected.count(",false\n") == report.total_failures == 225
    monkeypatch.setattr(identities, "list_identities", lambda: catalog)
    code, pieces = _run(monkeypatch, ["verify", "--max-n", "30", "--format", "csv", "--verbose"])
    assert code == 1
    _check_pieces(pieces, expected, _report_units("csv", expected))


@pytest.mark.parametrize("argv, message", [
    (["--id", "NO_SUCH"], "unknown identity id(s): NO_SUCH"),
    (["--max-n", "5000"], "above the limit of %d" % harness.GRID_CELLS_MAX),
    (["--id", "PARITY_B", "--max-n", "8851"], "above the limit of %d" % identities.TERM_DIGITS_MAX),
    (["--jobs", "0"], "workers must be >= 1, got 0"),
    (["--jobs", "65"], "workers must be <= 64, got 65"),
])
def test_verbose_csv_refusals_write_nothing(monkeypatch, capsys, argv, message):
    # The header too waits until every refusal is behind the run.
    def prefill(self, tops):
        raise AssertionError("prefilled")

    monkeypatch.setattr(TermSource, "prefill", prefill)
    assert cli.main(["verify", "--format", "csv", "--verbose", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_report_lines_refuses_an_unknown_format_before_any_piece():
    lines = harness.report_lines(harness.run_suite(2, ids=["B_ADD"]), "xml")
    with pytest.raises(ValueError, match="xml"):
        next(lines)


class CountingSink:
    """Counts the characters written and the traced memory at the first write."""

    def __init__(self) -> None:
        self.chars = 0
        self.at_first_write = None

    def write(self, text: str) -> int:
        if self.at_first_write is None:
            self.at_first_write = tracemalloc.get_traced_memory()[0]
        self.chars += len(text)
        return len(text)


def _traced_peak(monkeypatch, argv):
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    args = cli.parse_args(argv)
    tracemalloc.start()
    try:
        assert args.func(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    return peak, sink


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_seq_json_and_csv_hold_no_more_than_plain(monkeypatch, fmt):
    # seq B 0 3000 writes 3.4 MB. The structured formats are measured
    # against plain, which has always written one value at a time: holding
    # the rendered list, its dump or the joined rows would add 1-3 times
    # the output on top.
    argv = ["seq", "B", "0", "3000"]
    _traced_peak(monkeypatch, argv)  # the first run pays the one-time imports
    plain_peak, _ = _traced_peak(monkeypatch, argv)
    peak, sink = _traced_peak(monkeypatch, argv + ["--format", fmt])
    assert sink.chars > 3 * 10**6
    assert peak - plain_peak < sink.chars / 4, (peak, plain_peak, sink.chars)
    assert peak - sink.at_first_write < sink.chars / 4


def test_verify_verbose_csv_holds_no_more_than_without_verbose(monkeypatch):
    # verify --max-n 60 --format csv --verbose writes 46,280 rows, 5 MB.
    # Holding every case until the end took more than the text written;
    # written as they are evaluated, the cases add next to nothing.
    argv = ["verify", "--max-n", "60", "--format", "csv", "--jobs", "1"]
    _traced_peak(monkeypatch, argv)  # the first run pays the one-time imports
    quiet_peak, _ = _traced_peak(monkeypatch, argv)
    peak, sink = _traced_peak(monkeypatch, argv + ["--verbose"])
    assert sink.chars > 5 * 10**6
    assert peak - quiet_peak < sink.chars / 50, (peak, quiet_peak, sink.chars)


# Spawns each command with stdout on /dev/null and prints its exit code and
# ru_maxrss. A child's ru_maxrss also covers its spawner's memory up to the
# exec, so this small process spawns them, not pytest.
RSS_SPAWNER = """
import os, sys
devnull = os.open(os.devnull, os.O_WRONLY)
for argv in COMMANDS:
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "balkit.cli", *argv],
                         os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, devnull, 1)])
    _, status, usage = os.wait4(pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_seq_peak_rss_does_not_grow_with_the_range(child_env):
    # seq B 0 8000 writes 24 MB. Holding its 8001 Decimal terms took about
    # 10 MB more than term B 0; computed as they are written, they take none.
    commands = [["term", "B", "0"], ["seq", "B", "0", "8000"],
                ["seq", "B", "0", "8000", "--format", "json"]]
    proc = subprocess.run([sys.executable, "-c", "COMMANDS = %r\n%s" % (commands, RSS_SPAWNER)],
                          env=child_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    rows = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]
    assert [code for code, _ in rows] == [0, 0, 0]
    base_kb = rows[0][1]
    for argv, (_, kb) in zip(commands[1:], rows[1:]):
        assert kb - base_kb < 2048, (argv, kb, base_kb)


@pytest.mark.parametrize("argv", [
    ["seq", "B", "0", "5000"],
    ["seq", "B", "0", "5000", "--format", "json"],
    ["verify", "--max-n", "60", "--format", "csv", "--verbose"],
])
def test_closed_pipe_exits_141_without_a_traceback(argv, child_env):
    # Each output is megabytes, far more than a pipe buffers, so the writer
    # is still writing when the reader goes away after its first line.
    proc = subprocess.Popen([sys.executable, "-m", "balkit.cli", *argv], env=child_env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline(4096)
    proc.stdout.close()
    try:
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first and first[:1] in b"0{i"
    assert (code, err) == (141, b"")
