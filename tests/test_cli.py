"""Command-line contract: commands, formats, exit codes, stream separation."""

import argparse
import ast
import contextlib
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balkit import cli, harness, oracle, sequences
from test_harness import assert_no_children_left, fork_spy
from balkit.sequences import SequenceKind, pair_bc, pair_cobal, parse_kind, stream


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """stderr of an argv the parser refuses: SystemExit(2), empty stdout."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, ""), argv
    return captured.err


def test_term_plain(capsys):
    code, out, err = run_cli(capsys, "term", "B", "2")
    assert (code, out, err) == (0, "6\n", "")
    code, out, _ = run_cli(capsys, "term", "c", "4")
    assert (code, out) == (0, "239\n")


def test_term_domain_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "term", "b", "0")
    assert code == 2
    assert out == ""
    assert "n >= 1" in err


@pytest.mark.parametrize("method", ["recurrence", "binet", "doubling"])
@pytest.mark.parametrize("kind,n", [("B", -1), ("C", -1), ("b", 0), ("c", 0)])
def test_term_domain_error_same_on_every_route(capsys, method, kind, n):
    code, out, err = run_cli(capsys, "term", kind, str(n), "--method", method)
    seq = parse_kind(kind)
    assert (code, out) == (2, "")
    assert err == "error: %s is defined for n >= %d, got n=%d\n" % (seq.value, seq.min_index, n)


def test_term_methods_agree(capsys):
    values = set()
    for method in ("recurrence", "binet", "doubling", "auto"):
        code, out, _ = run_cli(capsys, "term", "C", "30", "--method", method)
        assert code == 0
        values.add(out)
    assert len(values) == 1


def test_term_auto_uses_doubling_for_large_indices(capsys):
    code, out, _ = run_cli(capsys, "term", "B", "300")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "term", "B", "300", "--method", "doubling")
    assert code2 == 0 and out2 == out


def test_term_json(capsys):
    code, out, _ = run_cli(capsys, "term", "B", "12", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"kind": "balancing", "n": 12, "value": "271669860"}


def test_term_rejects_csv(capsys):
    err = usage_error(capsys, "term", "B", "2", "--format", "csv")
    assert "--format" in err and "'csv'" in err


def test_seq_plain_and_csv(capsys):
    code, out, _ = run_cli(capsys, "seq", "B", "0", "4")
    assert code == 0
    assert out == "0\n1\n6\n35\n204\n"
    code, out, _ = run_cli(capsys, "seq", "b", "1", "4", "--format", "csv")
    assert code == 0
    assert out == "n,value\n1,0\n2,2\n3,14\n4,84\n"


def test_seq_domain_error(capsys):
    code, _, err = run_cli(capsys, "seq", "c", "0", "4")
    assert code == 2 and err


def test_verify_default_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "20")
    assert code == 0
    assert "overall=pass" in out


def test_verify_single_id_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "50", "--id", "B_ADD",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert len(obj["identities"]) == 1
    assert obj["identities"][0]["id"] == "B_ADD"
    assert obj["identities"][0]["checked"] == 51 * 51


def test_verify_unknown_id_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--id", "NO_SUCH")
    assert code == 2 and out == "" and "NO_SUCH" in err


def test_verify_deterministic_across_jobs(capsys, monkeypatch):
    forks = fork_spy(monkeypatch, 3)
    subset = ["--id", "B_ADD", "--id", "MOD16_c", "--id", "C_DIFF_HALF", "--id", "PARITY_B"]
    for argv in (["--max-n", "15", "--format", "json"],
                 ["--max-n", "20", "--format", "json"],
                 ["--max-n", "20", "--format", "plain"],
                 ["--max-n", "20", "--format", "csv", "--verbose"],
                 ["--max-n", "20", "--format", "json"] + subset):
        outcomes = [run_cli(capsys, "verify", *argv, "--jobs", jobs)[:2] for jobs in "123"]
        assert outcomes[0][0] == 0 and outcomes[0][1], argv
        assert outcomes[1:] == outcomes[:1] * 2, argv
    assert len(forks) == 4 * (1 + 2)  # csv --verbose runs in one process


@pytest.mark.parametrize("argv, cpus, expected", [
    (["--jobs", "1"], 8, 0),
    (["--id", "B_ADD", "--jobs", "4"], 8, 3),
    (["--format", "csv", "--verbose", "--jobs", "3"], 8, 0),  # collects its cases
    (["--jobs", "3"], 1, 0),
    (["--jobs", "3"], 2, 1),
    (["--jobs", "3"], 8, 2),
    ([], 1, 0),
    ([], 4, 3),
    (["--id", "B_ADD"], 8, 6),
    (["--id", "B_ADD", "--id", "MOD16_c"], 8, 6),
    (["--format", "csv", "--verbose"], 8, 0),
    (["--jobs", "9"], 16, 6),  # one process per row of the grid 0..6
])
def test_verify_forks_one_worker_less_than_it_uses(capsys, monkeypatch, argv, cpus, expected):
    # min(jobs, usable CPUs, max_n + 1) processes, the calling process among
    # them, with no first bound when --jobs is not given; one when the run
    # writes its cases.
    forks = fork_spy(monkeypatch, cpus)
    assert run_cli(capsys, "verify", "--max-n", "6", *argv)[0] == 0
    assert len(forks) == expected


def test_verify_runs_in_one_process_when_a_worker_dies_without_a_result(capsys, monkeypatch):
    # The forked run has no records from the worker, so the grid runs again
    # in the balkit process, and the report is the one --jobs 1 gives.
    forks = fork_spy(monkeypatch, 2)
    parent, run_identity = os.getpid(), harness._run_identity

    def dying(*args):
        if os.getpid() != parent:
            os._exit(0)  # leaves without writing a result
        return run_identity(*args)

    monkeypatch.setattr(harness, "_run_identity", dying)
    outcomes = [run_cli(capsys, "verify", "--max-n", "10", "--jobs", jobs) for jobs in "12"]
    code, out, err = outcomes[0]
    assert outcomes[1] == outcomes[0] and (code, err) == (0, "") and out
    assert len(forks) == 1
    assert_no_children_left()


def test_verify_rejects_jobs_below_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-n", "5", "--jobs", "0")
    assert (code, out, err) == (2, "", "error: workers must be >= 1, got 0\n")


def test_verify_ignores_balkit_max_n(capsys, monkeypatch):
    argv = ("verify", "--max-n", "8", "--format", "json")
    monkeypatch.delenv("BALKIT_MAX_N", raising=False)
    expected = run_cli(capsys, *argv)
    monkeypatch.setenv("BALKIT_MAX_N", "5")
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0 and '"max_n":8' in expected[1]


# One cheap argv per command.
_FORMAT_ARGV = {
    "term": ["term", "B", "5"],
    "seq": ["seq", "B", "0", "3"],
    "verify": ["verify", "--max-n", "2", "--id", "B_ADD"],
    "classify": ["classify", "6"],
    "search": ["search", "balancing", "--limit", "10"],
    "bench": ["bench", "--n", "5", "--methods", "doubling"],
}


def _format_choices(command):
    return cli.COMMANDS[command][1]


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("command", sorted(_FORMAT_ARGV))
def test_each_command_offers_exactly_the_formats_it_writes(capsys, command, fmt):
    argv = _FORMAT_ARGV[command]
    if fmt in _format_choices(command):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "") and out
    else:
        assert "--format" in usage_error(capsys, *argv, "--format", fmt)


@pytest.mark.parametrize("argv", [
    ["term", "B", "5", "--jobs", "0"],
    ["seq", "B", "0", "2", "--jobs", "-3", "--verbose"],
    ["classify", "6", "--jobs", "0"],
    ["search", "balancing", "--limit", "10", "--jobs", "0"],
    ["bench", "--n", "5", "--jobs", "0", "--verbose"],
], ids=lambda argv: argv[0])
def test_jobs_and_verbose_are_verify_options(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_verbose_csv_lists_every_case(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "1", "--id", "B_ADD",
                           "--format", "csv", "--verbose")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "id,n,m,lhs,rhs,holds"
    assert len(lines) == 5  # header + the four grid cells
    code, out, _ = run_cli(capsys, "verify", "--max-n", "1", "--id", "B_ADD",
                           "--format", "csv")
    assert out.strip() == "id,n,m,lhs,rhs,holds"  # no failures, no rows


def test_classify_balancing(capsys):
    code, out, _ = run_cli(capsys, "classify", "6")
    assert code == 0
    assert "balancing: yes (index 2, balancer 2)" in out
    assert "cobalancing: no" in out
    assert "lucas-balancing: no" in out


def test_classify_lucas_balancing(capsys):
    code, out, _ = run_cli(capsys, "classify", "17")
    assert code == 0
    assert "lucas-balancing: yes (index 2)" in out
    assert "balancing: no" in out


def test_classify_no_memberships(capsys):
    code, out, _ = run_cli(capsys, "classify", "5")
    assert code == 0
    assert out.count(": no") == 4


def test_classify_degenerate_members(capsys):
    code, out, _ = run_cli(capsys, "classify", "0")
    assert code == 0
    assert "cobalancing: yes (index 1, cobalancer 0)" in out
    code, out, _ = run_cli(capsys, "classify", "1")
    assert code == 0
    assert "balancing: yes (index 1, balancer 0)" in out
    assert "lucas-balancing: yes (index 0)" in out
    assert "lucas-cobalancing: yes (index 1)" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "14", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["cobalancing"] == {"member": True, "index": 3, "cobalancer": "6"}
    assert obj["balancing"] == {"member": False}


def _scanned_index(kind, x):
    """Reference for index_of: scan the recurrence upward, as classify once did."""
    for n, value in enumerate(stream(kind, kind.min_index, 4002), kind.min_index):
        if value >= x:
            return n if value == x else None
    raise AssertionError("scan bound too small for %d" % x)


_CLASSIFY_VALUES = sorted(
    {0, 1} | {v for k in (1, 2, 700, 4000) for v in pair_bc(k) + pair_cobal(k)}
)


@pytest.mark.parametrize(
    "x", _CLASSIFY_VALUES, ids=lambda x: str(x) if x < 10**6 else "%dbits" % x.bit_length()
)
def test_classify_indices_match_linear_scan(capsys, monkeypatch, x):
    code, out, _ = run_cli(capsys, "classify", str(x))
    monkeypatch.setattr(cli, "index_of", _scanned_index)
    expected = run_cli(capsys, "classify", str(x))
    assert (code, out) == expected[:2]
    assert out.count("yes") >= 1


@pytest.mark.parametrize(
    "x",
    [pair_bc(700)[0], pair_bc(701)[0], pair_bc(700)[0] + 1, pair_bc(700)[0] + 2],
    ids=["B700", "B701", "B700+1", "B700+2"],
)
def test_classify_takes_one_square_root_per_family(monkeypatch, x):
    roots = []

    def counting_isqrt(v):
        roots.append(v)
        return math.isqrt(v)

    monkeypatch.setattr(oracle, "math", types.SimpleNamespace(isqrt=counting_isqrt))
    result = cli._classify(x)
    assert result["balancing"]["member"] == (x in (pair_bc(700)[0], pair_bc(701)[0]))
    # One root each for balancing and cobalancing; the two Lucas families
    # take one each only for odd x (an even x is no C or c term).
    assert len(roots) == (4 if x % 2 else 2)


def test_classify_lucas_verdicts_are_membership_in_the_walked_terms():
    """x in 0..5000 and every B, C, b, c term below index 200 shifted by
    -2..+2: the Lucas verdicts name exactly the walked C and c terms."""
    terms = {kind: stream(kind, kind.min_index, 199) for kind in SequenceKind}
    xs = set(range(5001)) | {v + d for vs in terms.values() for v in vs
                             for d in range(-2, 3) if v + d >= 0}
    verdicts = {x: cli._classify(x) for x in xs}
    for kind in (SequenceKind.LUCAS_BALANCING, SequenceKind.LUCAS_COBALANCING):
        index = {v: k for k, v in enumerate(terms[kind], kind.min_index)}
        for x in xs:
            k = index.get(x)
            expected = {"member": False} if k is None else {"member": True, "index": k}
            assert verdicts[x][kind.value] == expected, (kind.value, x)


def test_classify_malformed_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_classify", computed)
    with pytest.raises(Computed):
        cli.main(["classify", "6"])
    err = usage_error(capsys, "classify", "six")
    assert "value" in err and "'six'" in err


def test_search_oracle_and_generator(capsys):
    code, out, _ = run_cli(capsys, "search", "balancing", "--limit", "300",
                           "--method", "oracle")
    assert (code, out) == (0, "1\n6\n35\n204\n")
    code, out, _ = run_cli(capsys, "search", "cobalancing", "--limit", "100",
                           "--method", "generator")
    assert (code, out) == (0, "0\n2\n14\n84\n")


def test_search_limit_zero(capsys):
    code, out, _ = run_cli(capsys, "search", "balancing", "--limit", "0")
    assert (code, out) == (0, "")


def test_search_bad_family_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "generator_prefix", computed)
    with pytest.raises(Computed):
        cli.main(["search", "balancing", "--limit", "10"])
    err = usage_error(capsys, "search", "lucas", "--limit", "10")
    assert "family" in err and "'lucas'" in err


def test_search_oracle_refuses_limit_above_cap(capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned above the cap")

    monkeypatch.setattr(oracle, "_scan", no_scan)
    limit = str(oracle.SEARCH_LIMIT_MAX + 1)
    code, out, err = run_cli(capsys, "search", "balancing", "--method", "oracle",
                             "--limit", limit)
    assert (code, out) == (2, "")
    assert err == "error: oracle search limit must be <= 1000000000, got %s\n" % limit
    # The generator walks O(log limit) terms; its cap is far above this.
    code, out, err = run_cli(capsys, "search", "balancing", "--limit", limit)
    assert (code, err) == (0, "") and out.splitlines()[-1] == "271669860"


class Computed(Exception):
    pass


def computed(*args):
    raise Computed


@pytest.mark.parametrize("argv", [
    ["term", "B", "200000", "--method", "recurrence"],
    ["term", "c", "20000"],
    ["classify", str(pair_bc(1000)[0])],
    ["classify", "6"],
])
def test_unsupported_format_is_refused_before_arithmetic(argv, capsys, monkeypatch):
    for name in ("term_doubling", "term_recurrence", "_classify"):
        monkeypatch.setattr(cli, name, computed)
    with pytest.raises(Computed):
        cli.main(argv)
    err = usage_error(capsys, *argv, "--format", "csv")
    assert "--format" in err and "'csv'" in err


@pytest.mark.parametrize("kind", [SequenceKind.BALANCING, SequenceKind.COBALANCING])
def test_generator_search_index_bound_holds_at_every_member(kind):
    for limit in sorted({v + d for v in stream(kind, 1, 400) for d in (-1, 0)}):
        if limit >= 0:
            # Members start at index 1, so the count is the last member's index.
            assert len(sequences.generator_prefix(kind, limit)) <= limit.bit_length() // 2 + 1


def test_generator_search_is_capped_as_seq_is(capsys, monkeypatch, no_int_str_limit):
    monkeypatch.setattr(sequences, "walk", computed)
    top = max(k for k in range(16000, 16400)
              if sequences.digits_bound(1, k) <= cli.PRINT_DIGITS_MAX)
    # A limit of bit length 2*top - 1 bounds the index by top, one more bit by top + 1.
    edge = 2 ** (2 * top - 1)
    for family, short in (("balancing", "B"), ("cobalancing", "b")):
        with pytest.raises(Computed):
            cli.main(["search", family, "--limit", str(edge - 1)])
        for limit in (edge, 10**14000):
            code, out, err = run_cli(capsys, "search", family, "--limit", str(limit))
            assert (code, out) == (2, "")
            assert err.startswith("error: %s(1..%d) has up to " % (short, limit.bit_length() // 2 + 1))
            assert err.endswith("digits, above the limit of 100000000\n")


@pytest.mark.parametrize("method, cap", sorted(cli.BENCH_N_MAX.items()))
def test_bench_n_is_capped_per_method_before_timing(method, cap, capsys, monkeypatch):
    monkeypatch.setattr(cli, "term_recurrence", computed)
    monkeypatch.setattr(cli, "term_doubling", computed)
    with pytest.raises(Computed):
        cli.main(["bench", "--n", str(cap), "--methods", method])
    capsys.readouterr()
    code, out, err = run_cli(capsys, "bench", "--n", str(cap + 1), "--methods", method)
    assert (code, out) == (2, "")
    assert err == "error: bench --methods %s takes n <= %d, got n=%d\n" % (method, cap, cap + 1)


def test_bench_caps(capsys, monkeypatch):
    assert cli.BENCH_N_MAX == {"recurrence": cli.TERM_N_MAX["recurrence"], "doubling": 10**7}
    monkeypatch.setattr(cli, "term_recurrence", computed)
    monkeypatch.setattr(cli, "term_doubling", computed)
    # Between the two caps only the recurrence refuses.
    n = str(cli.BENCH_N_MAX["recurrence"] + 1)
    assert run_cli(capsys, "bench", "--n", n)[:2] == (2, "")
    with pytest.raises(Computed):
        cli.main(["bench", "--n", n, "--methods", "doubling"])


def test_search_methods_agree(capsys):
    _, via_oracle, _ = run_cli(capsys, "search", "cobalancing", "--limit", "5000",
                               "--method", "oracle")
    _, via_generator, _ = run_cli(capsys, "search", "cobalancing", "--limit", "5000",
                                  "--method", "generator")
    assert via_oracle == via_generator


def test_bench_both_methods(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "200")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,seconds,digits"
    assert lines[1].startswith("recurrence,")
    assert lines[2].startswith("doubling,")
    assert "pell: ok" in out
    assert "equal: true" in out
    # Same digit count from both methods.
    assert lines[1].rsplit(",", 1)[1] == lines[2].rsplit(",", 1)[1]


def test_bench_single_method_and_errors(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "1", "--methods", "doubling")
    assert code == 0
    assert "pell: ok" in out and "equal:" not in out
    code, _, err = run_cli(capsys, "bench", "--n", "10", "--methods", "matrix")
    assert code == 2 and "matrix" in err
    code, _, err = run_cli(capsys, "bench", "--n", "0")
    assert code == 2


@pytest.mark.parametrize("route, wrong, last", [
    ("term_doubling", lambda kind, n, one=1: sequences.term_doubling(kind, n, one)
     + (kind is SequenceKind.LUCAS_BALANCING), "pell: VIOLATED"),
    ("term_recurrence", lambda kind, n: sequences.term_recurrence(kind, n) + 1, "equal: false"),
])
def test_bench_exits_1_after_a_failed_self_check(capsys, monkeypatch, route, wrong, last):
    monkeypatch.setattr(cli, route, wrong)
    code, out, err = run_cli(capsys, "bench", "--n", "200")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bench_refuses_structured_formats(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "term_doubling", computed)
    with pytest.raises(Computed):
        cli.main(["bench", "--n", "5", "--methods", "doubling"])
    capsys.readouterr()
    err = usage_error(capsys, "bench", "--n", "5", "--methods", "doubling", "--format", fmt)
    assert "--format" in err and "'%s'" % fmt in err


def test_bench_trivial_value(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "1")
    assert code == 0
    # B(1) = 1 has a single digit.
    for line in out.strip().split("\n")[1:3]:
        assert line.endswith(",1")


def test_stderr_only_carries_diagnostics(capsys):
    code, out, err = run_cli(capsys, "term", "B", "-5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# -- decimal rendering -------------------------------------------------------

T = sequences._STR_MAX_BITS


@pytest.fixture
def no_int_str_limit():
    # The reference str() calls need the digit limit off, as cli.main has it
    # while it runs.
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def _render_cases():
    rng = random.Random(3)
    xs = [0, 1]
    xs += [10**k + d for k in (1, 18, 19, 38, 39, 1000, 9864, 9865, 30103, 100000)
           for d in (-1, 0)]
    xs += [(1 << k) + d for k in (64, 127, 128, 129, 256, T - 1, T, T + 1, 65536)
           for d in (-1, 1)]
    for bits in (T - 1, T, T + 1):
        xs.append(rng.getrandbits(bits) | 1 << (bits - 1))
    return xs


def test_decimal_str_equals_str(no_int_str_limit):
    for x in _render_cases():
        assert sequences.decimal_str(x) == str(x), x.bit_length()
        assert sequences.decimal_str(-x) == str(-x), x.bit_length()
    x = random.Random(4).getrandbits(10**6) | 1 << (10**6 - 1)
    assert sequences.decimal_str(x) == str(x)


def test_decimal_str_split_route_on_small_values(monkeypatch, no_int_str_limit):
    # With no str() fast path and tiny leaves, even small values take the split.
    monkeypatch.setattr(sequences, "_ALWAYS_STR_BITS", 0)
    monkeypatch.setattr(sequences, "_STR_MAX_BITS", 0)
    monkeypatch.setattr(sequences, "_LEAF_BITS", 8)
    for x in _render_cases()[:40] + list(range(300)):
        assert sequences.decimal_str(x) == str(x)


def test_term_above_render_threshold_matches_str(capsys, no_int_str_limit):
    # B(180000) has 137,799 digits, which term writes in three slices.
    for n in (20000, 180000):
        value = pair_bc(n)[0]
        assert value.bit_length() > T
        code, out, _ = run_cli(capsys, "term", "B", str(n))
        assert (code, out) == (0, str(value) + "\n")
        code, out, _ = run_cli(capsys, "term", "B", str(n), "--format", "json")
        assert code == 0
        assert out == json.dumps(
            {"kind": "balancing", "n": n, "value": str(value)},
            sort_keys=True, separators=(",", ":")) + "\n"


def test_seq_above_render_threshold_matches_str(capsys, no_int_str_limit):
    start, stop = 13000, 13003
    values = list(stream(SequenceKind.BALANCING, start, stop))
    assert values[0].bit_length() > T
    code, out, _ = run_cli(capsys, "seq", "B", str(start), str(stop))
    assert (code, out) == (0, "".join(str(v) + "\n" for v in values))
    code, out, _ = run_cli(capsys, "seq", "B", str(start), str(stop), "--format", "csv")
    rows = ["n,value"] + ["%d,%d" % (start + i, v) for i, v in enumerate(values)]
    assert (code, out) == (0, "\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "seq", "B", str(start), str(stop), "--format", "json")
    assert code == 0
    assert json.loads(out)["values"] == [str(v) for v in values]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
@pytest.mark.parametrize("argv, code", [
    (["classify", "1" + "0" * 6000], 0),  # read and run with the limit lifted
    (["term", "B", "x"], 2),  # refused by the parser: SystemExit(2)
    (["term", "b", "0"], 2),  # DomainError
], ids=["success", "usage-error", "domain-error"])
def test_main_puts_back_the_callers_digit_limit(capsys, argv, code):
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
        assert (got, sys.get_int_max_str_digits()) == (code, 5000)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_library_render_ignores_int_str_digit_limit(capsys):
    # cli.main lifts the process-wide limit; a library caller may not have.
    x = pair_bc(7000)[0]  # 17,800 bits, 5,359 digits: over the default 4300
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        text = str(x)
        code, out, _ = run_cli(capsys, "classify", text, "--format", "json")
        sys.set_int_max_str_digits(4300)
        rendered = sequences.decimal_str(x)
        result = cli._classify(x)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 0 and rendered == text
    assert out == json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n"


# -- start-up -----------------------------------------------------------------

# The child also records the module behind each import statement of decimal:
# from CPython 3.12, str() of a large int imports it through the interpreter's
# own _pylong, so whether decimal is loaded says nothing about balkit.
IMPORT_GUARD_CHILD = textwrap.dedent(
    """
    import builtins, io, sys
    real_import, decimal_importers = builtins.__import__, set()

    def recording_import(name, globals=None, *args, **kwargs):
        if name == "decimal":
            decimal_importers.add((globals or {}).get("__name__"))
        return real_import(name, globals, *args, **kwargs)

    builtins.__import__ = recording_import
    before = set(sys.modules)
    from balkit import cli
    real_stdout, sys.stdout = sys.stdout, io.StringIO()
    codes = [cli.main(argv) for argv in COMMANDS]
    loaded = sorted(set(sys.modules) - before)
    importers = sorted(map(str, decimal_importers))
    codes.append(cli.main(["verify", "--max-n", "2"]))
    sys.stdout = real_stdout
    print(repr({"codes": codes, "loaded": loaded, "decimal_importers": importers,
                "loaded_after_verify": sorted(set(sys.modules) - before)}))
    """
)


def test_lean_commands_import_only_what_they_need(child_env):
    # Compared with a snapshot, not by absolute membership: the interpreter's
    # site hooks may preload modules such as typing or threading.
    commands = [
        ["classify", "7"],
        ["term", "B", "5"],
        ["term", "C", "300", "--method", "binet"],
        ["seq", "B", "0", "5"],
        ["search", "balancing", "--method", "oracle", "--limit", "100"],
        ["search", "cobalancing", "--limit", "100"],
        # Just below the sizes from which term and seq compute in Decimal.
        ["term", "c", "12885"],
        ["seq", "C", "0", "754"],
    ]
    code = "COMMANDS = %r\n%s" % (commands, IMPORT_GUARD_CHILD)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = ast.literal_eval(proc.stdout)
    assert result["codes"] == [0] * (len(commands) + 1)
    parser = {"argparse", "gettext", "locale"}
    heavy = {"dataclasses", "inspect", "json", "balkit.harness", "balkit.identities"} | parser
    assert heavy.isdisjoint(result["loaded"]), sorted(heavy & set(result["loaded"]))
    # decimal may be loaded by CPython's _pylong (3.12+), never by balkit or
    # by a module that balkit pulls in.
    assert set(result["decimal_importers"]) <= {"_pylong"}, result["decimal_importers"]
    # Exactly these, so a new import into a lean command's path shows here.
    balkit_loaded = {name for name in result["loaded"] if name.split(".")[0] == "balkit"}
    assert balkit_loaded == {"balkit", "balkit.cli", "balkit.oracle", "balkit.sequences"}
    assert "balkit.harness" in result["loaded_after_verify"]
    assert parser.isdisjoint(result["loaded_after_verify"])


def test_the_module_entry_freezes_the_collector_and_main_does_not(capsys, child_env):
    # Frozen objects are left out of the interpreter's final collection.
    child = textwrap.dedent(
        """
        import gc, runpy, sys
        sys.argv = ["balkit", "term", "B", "5"]
        try:
            runpy.run_module("balkit.cli", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
        print(code, gc.get_freeze_count() > 0, file=sys.stderr)
        """
    )
    proc = subprocess.run([sys.executable, "-c", child], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1189\n", "0 True\n")
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, "term", "B", "5") == (0, "1189\n", "")
    assert gc.get_freeze_count() == frozen


def test_verify_in_one_process_imports_nothing_the_workers_need(child_env):
    # A forked run loads nothing a run in one process does not: its workers
    # report back through the built-in marshal, so no verify run loads
    # pickle, forked or not.
    child = textwrap.dedent(
        """
        import contextlib, io, sys
        from balkit import cli, harness
        run = lambda *argv: cli.main(["verify", "--max-n", "6", *argv])
        with contextlib.redirect_stdout(io.StringIO()):
            run("--jobs", "1")
            run("--id", "B_ADD", "--format", "csv", "--verbose", "--jobs", "4")
            one = set(sys.modules)
            harness._usable_cpus = lambda: 2
            run("--jobs", "2")
        print(" ".join(sorted(set(sys.modules) - one)))
        print("pickle" in one, "pickle" in sys.modules)
        """
    )
    proc = subprocess.run([sys.executable, "-c", child], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    forked, pickled = proc.stdout.splitlines()
    assert "pickle" not in forked.split() and pickled == "False False"


# Small argv for term, seq, classify, search, verify and bench: valid and bad
# kinds, negative and non-integer indices, bad options and missing arguments.
_KIND = st.sampled_from(["B", "C", "b", "c", "balancing", "Lucas-Cobalancing", "d", ""])
_FAMILY = st.sampled_from(["balancing", "cobalancing", "lucas-balancing", "B", "x"])
_NUMBER = st.one_of(
    st.integers(min_value=-3, max_value=40).map(str),
    st.sampled_from(["1.5", "abc", "", "-", "1e3", "0x10", " 7", "--"]),
)
_OPTIONS = st.lists(
    st.sampled_from([
        ["--format", "plain"], ["--format", "json"], ["--format", "csv"], ["--format", "xml"],
        ["--method", "auto"], ["--method", "binet"], ["--method", "doubling"],
        ["--method", "oracle"], ["--method", "generator"], ["--method", "none"],
        ["--verbose"], ["--jobs", "0"], ["--bogus"],
    ]),
    max_size=2,
).map(lambda pairs: [token for pair in pairs for token in pair])


def _argv(command, positional):
    return st.tuples(positional, _OPTIONS).map(lambda t: [command, *t[0], *t[1]])


def _verify_argv(t):
    max_n, ident, jobs, fmt, verbose = t
    return (["verify", "--max-n", str(max_n)] + (["--id", ident] if ident else [])
            + ["--jobs", str(jobs), "--format", fmt] + (["--verbose"] if verbose else []))


_VERIFY = st.tuples(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([None, "B_ADD", "MOD16_C", "NOPE"]),
    st.integers(min_value=-1, max_value=2),
    st.sampled_from(["plain", "json", "csv"]),
    st.booleans(),
).map(_verify_argv)
_BENCH = st.tuples(
    st.integers(min_value=-2, max_value=40),
    st.sampled_from(["recurrence,doubling", "doubling", "recurrence", "", "x", "doubling,fft"]),
).map(lambda t: ["bench", "--n", str(t[0]), "--methods", t[1]])

_ARGV = st.one_of(
    _argv("term", st.tuples(_KIND, _NUMBER)),
    _argv("seq", st.tuples(_KIND, _NUMBER, _NUMBER)),
    _argv("classify", st.tuples(_NUMBER)),
    _argv("search", st.tuples(_FAMILY, st.just("--limit"), st.one_of(
        st.integers(min_value=-3, max_value=2000).map(str), _NUMBER))),
    st.lists(st.one_of(_KIND, _NUMBER), max_size=3).map(lambda rest: ["search", *rest]),
    st.lists(st.one_of(_KIND, _NUMBER), max_size=3).map(lambda rest: ["term", *rest]),
    _VERIFY,
    _BENCH,
)


@settings(max_examples=150, deadline=None)
@given(_ARGV)
@example(["verify", "--max-n", "2", "--id", "NOPE"])
@example(["bench", "--n", "40", "--methods", "recurrence,doubling"])
@example(["term", "B", "--", "--"])  # argparse before 3.12 passes n as []
@example(["seq", "B", "1", "--", "--"])
def test_cli_contract_on_generated_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
    if "unknown identity" in err.getvalue():
        assert (code, err.getvalue()) == (2, "error: unknown identity id(s): NOPE\n"), argv


# -- the parser against argparse ---------------------------------------------

def build_parser():
    """The argparse parser cli.parse_args replaced, kept as its reference."""
    parser = argparse.ArgumentParser(prog="balkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, formats):
        p = sub.add_parser(name)
        p.add_argument("--format", choices=formats, default="plain")
        p.set_defaults(func=getattr(cli, "_cmd_" + name))
        return p

    all_formats = ("plain", "json", "csv")
    p = add_command("term", ("plain", "json"))
    p.add_argument("kind")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=("auto", "recurrence", "binet", "doubling"),
                   default="auto")
    p = add_command("seq", all_formats)
    p.add_argument("kind")
    p.add_argument("start", type=int)
    p.add_argument("stop", type=int)
    p = add_command("verify", all_formats)
    p.add_argument("--max-n", type=int, default=50, dest="max_n", metavar="N")
    p.add_argument("--id", action="append", metavar="IDENT")
    p.add_argument("--jobs", type=int, metavar="N")
    p.add_argument("--verbose", action="store_true")
    p = add_command("classify", ("plain", "json"))
    p.add_argument("value", type=int)
    p = add_command("search", all_formats)
    p.add_argument("family", choices=("balancing", "cobalancing"))
    p.add_argument("--limit", type=int, required=True, metavar="N")
    p.add_argument("--method", choices=("oracle", "generator"), default="generator")
    p = add_command("bench", ("plain",))
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--methods", default="recurrence,doubling")
    return parser


_REFERENCE = build_parser()


def _reference_parse(argv):
    args = _REFERENCE.parse_args(argv)
    # argparse before 3.12 can hand a positional an empty list when "--" is
    # repeated (`term B -- --`); balkit's main refused that line.
    if [] in vars(args).values():
        _REFERENCE.error("expected one argument")
    return args


def _parsed(parse, argv):
    """The inputs parse reads from argv, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code


# Tokens that read as -h or --help.
_HELP_TOKENS = {"-h", "--h", "--he", "--hel", "--help"}


def _joined_help(head):
    """The first token of head that joins -h to more characters (-hx), or None."""
    return next((t for t in head if t[:2] == "-h" and t[2:3] not in ("", "=")), None)


def _assert_joined_help_refused(argv, joined):
    """parse_args refuses argv for the token joined, as argparse 3.11 does."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(list(argv))
    assert (exc.value.code, err.getvalue().splitlines()[-1]) == (
        2, "balkit %s: error: argument -h/--help: ignored explicit argument %r"
        % (argv[0], joined[2:])), argv


def _agrees_with_argparse(argv):
    mine, reference = _parsed(cli.parse_args, argv), _parsed(_reference_parse, argv)
    if mine == reference:
        return
    head = argv[:argv.index("--")] if "--" in argv else argv
    # The third documented difference, against argparse 3.13+ only: there
    # -h joined to more characters shows the help, where 3.11 and parse_args
    # refuse the token.
    joined = _joined_help(head)
    if sys.version_info >= (3, 13) and reference == 0 and joined:
        _assert_joined_help_refused(argv, joined)
        return
    # The two others, where argparse exits 2 and parse_args does not: -h
    # before "--" shows the help even after an invalid token...
    assert reference == 2, (argv, mine, reference)
    if mine == 0:
        assert _HELP_TOKENS & set(head), argv
    # ...and a "--" that ends the line is accepted wherever it stands.
    else:
        assert argv.index("--") == len(argv) - 1, (argv, mine)
        assert _parsed(_reference_parse, argv[:-1]) == mine, argv


# One argv for each argparse rule the parser keeps.
@pytest.mark.parametrize("argv", [
    ["term", "B", "5", "--format", "json"],
    ["term", "--format", "json", "B", "5"],  # options anywhere after the command
    ["term", "B", "--format=json", "5"],
    ["term", "B", "5", "--form", "json"],  # a unique prefix
    ["term", "B", "5", "--f=json", "--meth", "binet"],
    ["verify", "--max", "5", "--verb", "--i", "B_ADD", "--id=EVEN_b", "--j", "2"],
    ["bench", "--n", "5", "--m", "doubling"],
    ["term", "B", "5", "--=json"],  # an ambiguous prefix
    ["term", "B", "5", "--format", "csv"],  # invalid choice
    ["search", "lucas", "--limit", "5"],
    ["term", "B", "x"],  # invalid int
    ["term", "B", " 7"], ["term", "B", "+3"], ["term", "B", "1_0"],
    ["term", "B", "-5"], ["term", "B", "-.5"], ["term", "B", "-1.5"], ["term", "B", "-1e3"],
    ["term", "-", "-5"],  # "-" is a value
    ["search", "balancing", "--limit", "-5"],
    ["term", "B", "5", "--method", "-5"],
    ["term", "B", "5", "--format", "--method", "auto"],  # expected one argument
    ["term", "B", "5", "--format", "--", "json"],
    ["term", "B", "5", "--format"],
    ["verify", "--verbose=x"],
    ["term", "--", "B", "-5"],  # "--" ends the options
    ["term", "B", "--", "--format"],
    ["term", "--", "--", "5"],
    ["term", "B", "--", "--"],
    ["term", "B", "5", "--"],
    ["seq", "B", "1", "--", "--"],
    ["term", "B"],  # required arguments
    ["search", "--limit", "3"],
    ["search", "balancing"],
    ["bench"],
    ["term", "B", "5", "6"],  # unrecognized arguments
    ["term", "B", "5", "--bogus"],
    ["term", "B", "5", "-x"],
    ["term", "B", "5", "-hx"],
    ["verify", "--jobs", "2", "--jobs", "3", "--id", "A", "--id", "B"],  # last wins, --id repeats
    ["term", "-h"], ["search", "--he"], ["-h"], ["--help"],
    [], ["x"], ["-5"], ["--", "term", "B", "5"],
], ids=repr)
def test_parser_keeps_the_argparse_rules(argv):
    _agrees_with_argparse(argv)


def test_help_wins_even_after_an_invalid_token(capsys):
    # argparse acts on the tokens in order and stops at the first bad one;
    # parse_args reads every token before "--" first, and -h among them wins.
    for argv in (["term", "B", "x", "-h"],
                 ["term", "B", "5", "--format", "xml", "--help"],
                 ["bench", "--methods", "-h"]):
        assert _parsed(_reference_parse, argv) == 2
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        assert out.startswith("usage: balkit %s [-h] " % argv[0])


@pytest.mark.parametrize("argv", [
    ["term", "B", "5", "-hx"],
    ["bench", "-hx"],
    ["seq", "B", "1", "2", "-x", "-h5"],
], ids=repr)
def test_help_joined_to_other_characters_is_refused(argv):
    # argparse 3.13 shows the help instead.
    _assert_joined_help_refused(argv, _joined_help(argv))
    assert _parsed(_reference_parse, argv) == (0 if sys.version_info >= (3, 13) else 2)


@pytest.mark.parametrize("argv", [
    ["verify", "--"],
    ["term", "B", "5", "--format", "json", "--"],
    ["search", "balancing", "--limit", "5", "--method", "oracle", "--"],
], ids=repr)
def test_a_double_dash_that_ends_the_line_is_accepted(argv):
    # argparse 3.11 refuses a "--" that no positional takes up: one the
    # positional just before it does not absorb (`term B 5 --` passes).
    # parse_args reads it as the end of the options wherever it stands.
    assert _parsed(_reference_parse, argv) == 2
    assert _parsed(cli.parse_args, argv) == _parsed(_reference_parse, argv[:-1]) != 2


# Every option of every command, exact, by a prefix and in the "=" form, and
# values of each kind the commands take, good and bad.
_TOKEN = st.sampled_from([
    "-h", "--help", "--he", "--format", "--form", "--f", "--method", "--meth", "--m",
    "--max-n", "--max", "--id", "--i", "--jobs", "--j", "--verbose", "--verb",
    "--limit", "--lim", "--n", "--methods", "--format=json", "--form=csv",
    "--method=oracle", "--max-n=3", "--id=B_ADD", "--verbose=x", "--n=5", "--lim=10",
    "--=x", "--", "-", "-5", "-.5", "-1.5", "-1e3", "-x", "-hx", "--bogus",
    "B", "c", "balancing", "cobalancing", "lucas", "plain", "json", "csv", "xml", "auto",
    "binet", "doubling", "recurrence", "oracle", "generator", "B_ADD", "recurrence,doubling",
    "0", "3", "12", " 7", "+3", "1_0", "x", "", "1.5",
])
_TOKENS_ARGV = st.tuples(st.sampled_from(sorted(cli.COMMANDS)), st.lists(_TOKEN, max_size=7)).map(
    lambda t: [t[0], *t[1]])


@settings(max_examples=600, deadline=None)
@given(st.one_of(_TOKENS_ARGV, _ARGV))
def test_parser_agrees_with_argparse_on_generated_argv(argv):
    _agrees_with_argparse(argv)


def _reference_names(command):
    """The command names, or a command's option strings and choices, as the
    reference parser has them."""
    sub = next(a for a in _REFERENCE._actions if isinstance(a, argparse._SubParsersAction))
    if command is None:
        return list(sub.choices)
    names = []
    for action in sub.choices[command]._actions:
        names += action.option_strings or [action.dest]
        names += action.choices or []
    return names


@pytest.mark.parametrize("command", [None, *sorted(cli.COMMANDS)])
def test_help_names_every_command_option_and_choice(capsys, command):
    argv = ["-h"] if command is None else [command, "-h"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith("usage: balkit ")
    words = set(out.translate(str.maketrans(",{}/", "    ")).split())
    assert [name for name in _reference_names(command) if name not in words] == []
    if command is not None:
        assert all(a.help for a in cli.COMMANDS[command][2]), command
