"""The Decimal compute route of `term`, `seq` and `bench` against the int route.

Above a size threshold the CLI computes terms as exact Decimals under
sequences.exact_context() and prints them with str(); below it, as ints
printed by decimal_str. Both must print the same text for every kind, on
both sides of each threshold and in every format. The size caps are tested
on their estimate and with the arithmetic stubbed out, never on an
oversized run.
"""

import decimal
import json
import re

import pytest

from balkit import cli, sequences
from balkit.sequences import (
    DomainError,
    SequenceKind,
    decimal_str,
    digits_bound,
    exact_context,
    stream,
    term_binet,
    term_doubling,
)

# First index whose estimated bit length passes _STR_MAX_BITS (term) and
# _ALWAYS_STR_BITS (seq): from there on the CLI computes in Decimal.
TERM_T = 12886
SEQ_T = 755
DIGITS = re.compile(r"[0-9]+")  # no sign, exponent or decimal point


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_thresholds_are_where_the_estimate_passes_the_render_constants():
    lam = sequences._LOG2_LAMBDA
    assert (TERM_T - 1) * lam <= sequences._STR_MAX_BITS < TERM_T * lam
    assert (SEQ_T - 1) * lam <= sequences._ALWAYS_STR_BITS < SEQ_T * lam


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_doubling_and_walk_agree_across_number_types(kind):
    lo = kind.min_index
    with exact_context() as ctx:
        one = ctx.create_decimal(1)
        for n in (lo, lo + 1, TERM_T - 1, TERM_T, TERM_T + 1):
            text = str(term_doubling(kind, n, one))
            assert DIGITS.fullmatch(text) and text == decimal_str(term_doubling(kind, n))
            value = term_binet(kind, n, one)
            assert isinstance(value, decimal.Decimal), (kind, n)
            assert str(value) == text == decimal_str(term_binet(kind, n))
        dec = list(stream(kind, lo, SEQ_T + 1, one))
    ints = stream(kind, lo, SEQ_T + 1)
    assert list(map(str, dec)) == list(map(decimal_str, ints))
    assert len(dec) == SEQ_T + 2 - lo
    assert all(isinstance(v, decimal.Decimal) for v in dec)


@pytest.fixture
def routes(monkeypatch):
    """Records the number type each term_doubling, term_binet and stream call
    computes in."""
    seen = []

    def spy(fn):
        def wrapper(*args):
            seen.append(type(args[-1]).__name__)  # the seed, or else the int index
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "term_doubling", spy(sequences.term_doubling))
    monkeypatch.setattr(cli, "term_binet", spy(sequences.term_binet))
    monkeypatch.setattr(cli, "stream", spy(sequences.stream))
    return seen


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_term_prints_the_int_route_text_around_the_threshold(kind, routes, capsys):
    lo = kind.min_index
    for n in (lo, lo + 1, TERM_T - 1, TERM_T, TERM_T + 1):
        text = decimal_str(term_doubling(kind, n))
        for method in ("auto", "doubling", "binet"):
            del routes[:]
            code, out, err = run_cli(capsys, "term", kind.short, str(n), "--method", method)
            assert (code, out, err) == (0, text + "\n", "")
            assert routes == ["Decimal" if n >= TERM_T else "int"]
            code, out, _ = run_cli(capsys, "term", kind.short, str(n), "--method", method,
                                   "--format", "json")
            assert code == 0 and json.loads(out) == {"kind": kind.value, "n": n, "value": text}
    # The recurrence route stays on int on both sides of the threshold.
    del routes[:]
    code, out, _ = run_cli(capsys, "term", kind.short, str(TERM_T), "--method", "recurrence")
    assert (code, out) == (0, decimal_str(term_doubling(kind, TERM_T)) + "\n")
    assert routes == []


@pytest.mark.parametrize("n", [TERM_T - 1, TERM_T, TERM_T + 1, 10**5])
def test_bench_times_the_route_term_prints(n, routes, capsys):
    # Each row's digits are the length of the value term prints by the row's
    # method, and bench's doubling computes B(n), and C(n) for its Pell
    # check, in the number type term's doubling does.
    texts = {m: run_cli(capsys, "term", "B", str(n), "--method", m)[1][:-1]
             for m in ("recurrence", "doubling")}
    assert texts["recurrence"] == texts["doubling"]
    seed = "Decimal" if n >= TERM_T else "int"
    for methods in (["recurrence"], ["doubling"], ["recurrence", "doubling"]):
        del routes[:]
        code, out, err = run_cli(capsys, "bench", "--n", str(n), "--methods", ",".join(methods))
        rows = out.splitlines()
        assert (code, err, rows[0]) == (0, "", "method,seconds,digits")
        timed = [row.split(",") for row in rows[1:len(methods) + 1]]
        assert [(m, int(digits)) for m, _, digits in timed] == [(m, len(texts[m])) for m in methods]
        checks = rows[len(methods) + 1:]
        if "doubling" in methods:
            assert routes == [seed, seed] and checks[0] == "pell: ok"
        else:
            assert routes == [] and checks == []
        assert checks[1:] == (["equal: true"] if len(methods) == 2 else [])


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_seq_prints_the_int_route_text_across_the_threshold(kind, routes, capsys):
    lo = kind.min_index
    for start, stop in ((lo, lo), (lo, lo + 1), (lo, SEQ_T - 1), (lo, SEQ_T),
                        (SEQ_T - 1, SEQ_T + 1), (SEQ_T, SEQ_T), (700, 800)):
        values = list(map(decimal_str, stream(kind, start, stop)))
        del routes[:]
        code, out, err = run_cli(capsys, "seq", kind.short, str(start), str(stop))
        assert (code, out, err) == (0, "".join(v + "\n" for v in values), "")
        assert routes == ["Decimal" if stop >= SEQ_T else "int"]
        code, out, _ = run_cli(capsys, "seq", kind.short, str(start), str(stop), "--format", "csv")
        rows = out.splitlines()
        assert code == 0 and rows[0] == "n,value"
        assert rows[1:] == ["%d,%s" % (i, v) for i, v in enumerate(values, start)]
        code, out, _ = run_cli(capsys, "seq", kind.short, str(start), str(stop), "--format", "json")
        assert code == 0
        assert json.loads(out) == {"kind": kind.value, "start": start, "stop": stop,
                                   "values": values}
        assert all(DIGITS.fullmatch(v) for v in json.loads(out)["values"])


def test_decimal_seed_outside_the_exact_context_is_refused():
    one = decimal.Decimal(1)
    with pytest.raises(DomainError, match="exact_context"):
        stream(SequenceKind.BALANCING, 0, 5, one)
    with pytest.raises(DomainError, match="exact_context"):
        term_doubling(SequenceKind.COBALANCING, 5, one)


def test_a_decimal_view_iterated_outside_its_context_is_refused():
    # stream() computes nothing until its view is iterated, and decimal's
    # default context would round the terms past 28 digits there.
    with exact_context() as ctx:
        view = stream(SequenceKind.BALANCING, 0, 100, ctx.create_decimal(1))
        inside = list(map(str, view))
    with pytest.raises(DomainError, match="exact_context"):
        iter(view)
    with exact_context():
        assert list(map(str, view)) == inside
    assert inside == list(map(str, stream(SequenceKind.BALANCING, 0, 100)))


def test_exact_context_traps_rounding():
    with exact_context() as ctx:
        assert ctx.prec == decimal.MAX_PREC
        with pytest.raises(decimal.Inexact):
            ctx.create_decimal("2.5").to_integral_exact()
    assert decimal.getcontext().prec != decimal.MAX_PREC  # left again on exit


# -- size caps ------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(SequenceKind))
def test_digits_bound_bounds_each_term_tightly(kind):
    # The smallest kind, b(n), has about n*log10(3+2*sqrt(2)) - 1.1 digits.
    for n in (kind.min_index, 1, 2, 3, 10, 99, 754, 755, 4000, TERM_T):
        digits = len(decimal_str(term_doubling(kind, n)))
        assert digits <= digits_bound(n, n) <= digits + 2, (kind, n)


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_digits_bound_bounds_a_range(kind):
    for start, stop in ((kind.min_index, 300), (200, 1000), (999, 1000)):
        total = sum(len(decimal_str(v)) for v in stream(kind, start, stop))
        assert total <= digits_bound(start, stop) <= total + 2 * (stop - start + 1)


def test_digits_bound_takes_any_size_of_index():
    huge = 10**400
    assert digits_bound(huge, huge) > 7 * 10**399
    assert digits_bound(0, huge) > huge


class Computed(Exception):
    pass


@pytest.fixture
def no_arithmetic(monkeypatch):
    def stub(*args):
        raise Computed

    for name in ("term_doubling", "term_binet", "term_recurrence", "stream"):
        monkeypatch.setattr(cli, name, stub)


def _top(fits):
    """Largest n in 0..10**10 with fits(n), for a monotone predicate."""
    lo, hi = 0, 10**10
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid - 1)
    return lo


def test_term_past_the_digit_cap_exits_2_before_arithmetic(no_arithmetic, capsys):
    top = _top(lambda n: digits_bound(n, n) <= cli.PRINT_DIGITS_MAX)
    assert 1.3 * 10**8 < top < 1.31 * 10**8
    for kind in ("B", "c"):
        for method in ("auto", "binet"):
            with pytest.raises(Computed):
                cli.main(["term", kind, str(top), "--method", method])
            for n in (top + 1, 10**400):
                code, out, err = run_cli(capsys, "term", kind, str(n), "--method", method)
                assert (code, out) == (2, "")
                assert err.startswith("error: %s(%d) has up to " % (kind, n))
                assert err.endswith("digits, above the limit of 100000000\n")
    # The closed form has no index cap of its own below the digit cap.
    with pytest.raises(Computed):
        cli.main(["term", "b", "10000001", "--method", "binet"])


@pytest.mark.parametrize("method, cap", sorted(cli.TERM_N_MAX.items()))
def test_slow_term_routes_are_capped_by_index(method, cap, no_arithmetic, capsys):
    with pytest.raises(Computed):
        cli.main(["term", "b", str(cap), "--method", method])
    code, out, err = run_cli(capsys, "term", "b", str(cap + 1), "--method", method)
    assert (code, out) == (2, "")
    assert err == "error: term --method %s takes n <= %d, got n=%d\n" % (method, cap, cap + 1)


def test_seq_past_the_digit_cap_exits_2_before_arithmetic(no_arithmetic, capsys):
    top = _top(lambda n: digits_bound(0, n) <= cli.PRINT_DIGITS_MAX)
    assert top == 16160
    with pytest.raises(Computed):
        cli.main(["seq", "B", "0", str(top)])
    for start, stop in ((0, top + 1), (10**6, 10**6 + 200), (5, 10**400)):
        code, out, err = run_cli(capsys, "seq", "C", str(start), str(stop))
        assert (code, out) == (2, "")
        assert err.startswith("error: C(%d..%d) has up to " % (start, stop))


def test_domain_errors_come_before_the_cap(no_arithmetic, capsys):
    # The messages a bad range gave before the caps existed are kept.
    for argv, message in (
        (["term", "b", "0"], "cobalancing is defined for n >= 1, got n=0"),
        (["seq", "B", "-1", str(10**9)], "balancing is defined for n >= 0, got n=-1"),
        (["seq", "B", str(10**9), "3"], "range is descending: start=1000000000 > stop=3"),
    ):
        assert run_cli(capsys, *argv) == (2, "", "error: %s\n" % message)
