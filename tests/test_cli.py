"""Command-line contract: commands, formats, exit codes, stream separation."""

import json
import random
import sys

import pytest

from balkit import cli
from balkit.sequences import SequenceKind, pair_bc, stream


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, _, err = run_cli(capsys, "term", "B", "2", "--format", "csv")
    assert code == 2 and "plain or json" in err


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


def test_verify_deterministic_across_jobs(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--max-n", "15", "--format", "json",
                         "--jobs", "1")
    _, out2, _ = run_cli(capsys, "verify", "--max-n", "15", "--format", "json",
                         "--jobs", "3")
    assert out1 == out2


def test_verify_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("BALKIT_MAX_N", "5")
    code, out, _ = run_cli(capsys, "verify", "--max-n", "500", "--format", "json")
    assert code == 0
    assert json.loads(out)["max_n"] == 5


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


def test_classify_malformed_exit_2(capsys):
    code, out, err = run_cli(capsys, "classify", "six")
    assert code == 2 and out == "" and err


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


def test_search_bad_family_exit_2(capsys):
    code, _, err = run_cli(capsys, "search", "lucas", "--limit", "10")
    assert code == 2 and "family" in err


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

T = cli._STR_MAX_BITS


@pytest.fixture
def no_int_str_limit():
    # The reference str() calls need the digit limit off, as cli.main sets it.
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
        assert cli._decimal_str(x) == str(x), x.bit_length()
        assert cli._decimal_str(-x) == str(-x), x.bit_length()
    x = random.Random(4).getrandbits(10**6) | 1 << (10**6 - 1)
    assert cli._decimal_str(x) == str(x)


def test_decimal_str_split_route_on_small_values(monkeypatch, no_int_str_limit):
    # With no str() fast path and tiny leaves, even small values take the split.
    monkeypatch.setattr(cli, "_STR_MAX_BITS", 0)
    monkeypatch.setattr(cli, "_LEAF_BITS", 8)
    for x in _render_cases()[:40] + list(range(300)):
        assert cli._decimal_str(x) == str(x)


def test_term_above_render_threshold_matches_str(capsys):
    n = 20000
    value = pair_bc(n)[0]
    assert value.bit_length() > T
    code, out, _ = run_cli(capsys, "term", "B", str(n))
    assert (code, out) == (0, str(value) + "\n")
    code, out, _ = run_cli(capsys, "term", "B", str(n), "--format", "json")
    assert code == 0
    assert out == json.dumps(
        {"kind": "balancing", "n": n, "value": str(value)},
        sort_keys=True, separators=(",", ":")) + "\n"


def test_seq_above_render_threshold_matches_str(capsys):
    start, stop = 13000, 13003
    values = [t.value for t in stream(SequenceKind.BALANCING, start, stop)]
    assert values[0].bit_length() > T
    code, out, _ = run_cli(capsys, "seq", "B", str(start), str(stop))
    assert (code, out) == (0, "".join(str(v) + "\n" for v in values))
    code, out, _ = run_cli(capsys, "seq", "B", str(start), str(stop), "--format", "csv")
    rows = ["n,value"] + ["%d,%d" % (start + i, v) for i, v in enumerate(values)]
    assert (code, out) == (0, "\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "seq", "B", str(start), str(stop), "--format", "json")
    assert code == 0
    assert json.loads(out)["values"] == [str(v) for v in values]
