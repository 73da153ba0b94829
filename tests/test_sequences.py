"""Sequence generation: the three routes against an independent reference."""

import copy
import pickle
import random
from itertools import islice

import pytest

from balkit import sequences
from balkit.sequences import (
    DomainError,
    SequenceKind,
    TermSource,
    index_of,
    pair_bc,
    pair_cobal,
    parse_kind,
    stream,
    term_binet,
    term_doubling,
    term_recurrence,
)

B = SequenceKind.BALANCING
C = SequenceKind.LUCAS_BALANCING
b = SequenceKind.COBALANCING
c = SequenceKind.LUCAS_COBALANCING


def _reference(seed0, seed1, add, count):
    """Plainly written recurrence iteration, kept independent of the library."""
    out = [seed0, seed1]
    while len(out) < count:
        out.append(6 * out[-1] - out[-2] + add)
    return out


# Reference prefixes, frozen from _reference and checked against it below.
REF_B = [0, 1, 6, 35, 204, 1189, 6930, 40391, 235416, 1372105]
REF_C = [1, 3, 17, 99, 577, 3363, 19601, 114243, 665857, 3880899]
REF_b = [0, 2, 14, 84, 492, 2870, 16730, 97512, 568344, 3312554]  # b(1)..b(10)
REF_c = [1, 7, 41, 239, 1393, 8119, 47321, 275807, 1607521, 9369319]  # c(1)..c(10)


def test_reference_prefixes_self_consistent():
    assert REF_B == _reference(0, 1, 0, 10)
    assert REF_C == _reference(1, 3, 0, 10)
    assert REF_b == _reference(0, 2, 2, 10)
    assert REF_c == _reference(1, 7, 0, 10)


def test_seed_values():
    assert term_recurrence(B, 0) == 0 and term_recurrence(B, 1) == 1
    assert term_recurrence(B, 2) == 6
    assert term_recurrence(C, 0) == 1 and term_recurrence(C, 1) == 3
    assert term_recurrence(C, 2) == 17
    assert term_recurrence(b, 1) == 0 and term_recurrence(b, 2) == 2
    assert term_recurrence(c, 1) == 1 and term_recurrence(c, 2) == 7


def test_term_recurrence_examples():
    assert term_recurrence(B, 3) == 35
    assert term_recurrence(c, 4) == 239


def test_term_recurrence_matches_reference_prefixes():
    assert [term_recurrence(B, n) for n in range(10)] == REF_B
    assert [term_recurrence(C, n) for n in range(10)] == REF_C
    assert [term_recurrence(b, n) for n in range(1, 11)] == REF_b
    assert [term_recurrence(c, n) for n in range(1, 11)] == REF_c


def test_term_binet_examples():
    assert term_binet(C, 2) == 17
    assert term_binet(b, 2) == 2
    assert term_binet(B, 0) == 0


def test_pair_bc_examples():
    assert pair_bc(0) == (0, 1)
    assert pair_bc(2) == (6, 17)
    assert pair_bc(4) == (204, 577)
    assert pair_bc(5) == (1189, 3363)


def test_pair_cobal_examples():
    assert pair_cobal(1) == (0, 1)
    assert pair_cobal(3) == (14, 41)
    assert pair_cobal(5) == (492, 1393)


def _long_bit_patterns():
    # All-ones, lone-one and one-past bit patterns up to 17 bits, plus
    # seeded random indices, so every doubling branch runs on long inputs.
    edges = {m + d for m in (1 << k for k in range(17)) for d in (-1, 0, 1)}
    rng = random.Random(20)
    return sorted(edges) + [rng.randint(1, 10**5) for _ in range(20)]


def test_doubling_matches_binet_on_long_bit_patterns():
    for n in _long_bit_patterns():
        assert pair_bc(n) == (term_binet(B, n), term_binet(C, n)), n
        if n >= 1:
            assert pair_cobal(n) == (term_binet(b, n), term_binet(c, n)), n


def test_method_agreement_up_to_300():
    for kind in SequenceKind:
        for n in range(kind.min_index, 301):
            assert term_recurrence(kind, n) == term_binet(kind, n) == term_doubling(kind, n)


def test_pell_invariants_up_to_500():
    bs = _reference(0, 1, 0, 501)
    cs = _reference(1, 3, 0, 501)
    for n in range(501):
        assert cs[n] ** 2 - 8 * bs[n] ** 2 == 1
    cobs = _reference(0, 2, 2, 500)
    lcobs = _reference(1, 7, 0, 500)
    for i in range(500):
        assert lcobs[i] ** 2 - 8 * cobs[i] ** 2 - 8 * cobs[i] == 1


def test_monotonicity():
    for kind in SequenceKind:
        values = list(stream(kind, kind.min_index, 300))
        assert all(x < y for x, y in zip(values, values[1:]))


def test_growth_ratio_between_5_and_6():
    bs = [term_recurrence(B, n) for n in range(102)]
    for n in range(2, 101):
        assert 5 * bs[n] < bs[n + 1] < 6 * bs[n]


def test_stream_examples():
    assert list(stream(B, 0, 4)) == [0, 1, 6, 35, 204]
    assert list(stream(b, 1, 4)) == [0, 2, 14, 84]
    assert list(stream(B, 3, 3)) == [35]


def test_stream_ranges_and_indices():
    assert dict(enumerate(stream(c, 3, 6), 3)) == {3: 41, 4: 239, 5: 1393, 6: 8119}
    with pytest.raises(DomainError):
        stream(B, 4, 2)
    with pytest.raises(DomainError):
        stream(b, 0, 5)


def test_stream_is_a_sized_view_that_iterates_afresh():
    seeds = {B: (0, 1, 0), C: (1, 3, 0), b: (0, 2, 2), c: (1, 7, 0)}  # two terms and add
    for kind in SequenceKind:
        lo = kind.min_index
        ref = _reference(*seeds[kind], 301)  # the terms lo..lo + 300
        for start, stop in ((lo, lo), (3, 9), (lo, 300)):
            view = stream(kind, start, stop)
            assert len(view) == stop - start + 1
            first = list(view)
            assert first == ref[start - lo:stop - lo + 1]
            assert list(view) == first  # each iter() walks again from the seeds
    view = stream(B, 0, 10**6)
    assert len(view) == 10**6 + 1  # sized without computing a term
    assert next(iter(view)) == 0


@pytest.mark.parametrize("kind", [b, c])
def test_cobalancing_domain_starts_at_1(kind):
    with pytest.raises(DomainError):
        term_recurrence(kind, 0)
    with pytest.raises(DomainError):
        term_binet(kind, 0)
    with pytest.raises(DomainError):
        term_doubling(kind, 0)
    with pytest.raises(DomainError):
        pair_cobal(0)


def test_negative_indices_rejected():
    with pytest.raises(DomainError):
        term_recurrence(B, -1)
    with pytest.raises(DomainError):
        term_doubling(C, -1)
    with pytest.raises(DomainError):
        pair_bc(-2)


def test_index_of_inverts_every_term_to_2000():
    for kind in SequenceKind:
        terms = dict(enumerate(stream(kind, kind.min_index, 2000), kind.min_index))
        members = set(terms.values())
        for n, value in terms.items():
            assert index_of(kind, value) == n, (kind, n)
            for d in (-3, -2, -1, 1, 2, 3):
                if value + d not in members:
                    assert index_of(kind, value + d) is None, (kind, n, d)


def test_index_of_zero_and_negative():
    assert index_of(B, 0) == 0
    assert index_of(b, 0) == 1
    assert index_of(C, 0) is None and index_of(c, 0) is None
    assert all(index_of(kind, -1) is None for kind in SequenceKind)


@pytest.mark.parametrize("k", [20000, 10**5 + 3])
def test_index_of_large_indices(k):
    for kind in SequenceKind:
        x = term_doubling(kind, k)
        assert index_of(kind, x) == k
        assert index_of(kind, x - 1) is None and index_of(kind, x + 1) is None


def test_parse_kind():
    assert parse_kind("B") is B
    assert parse_kind("b") is b
    assert parse_kind("C") is C
    assert parse_kind("c") is c
    assert parse_kind("balancing") is B
    assert parse_kind("Lucas-Balancing") is C
    assert parse_kind("cobalancing") is b
    assert parse_kind("lucas-cobalancing") is c
    with pytest.raises(DomainError):
        parse_kind("x")
    with pytest.raises(DomainError) as info:
        parse_kind("d")
    assert str(info.value) == (
        "unknown sequence kind 'd' (use B, C, b, c or balancing, "
        "lucas-balancing, cobalancing, lucas-cobalancing)")


@pytest.mark.parametrize("kind, name, short, min_index, prefix", [
    (B, "balancing", "B", 0, [0, 1, 6, 35]),
    (C, "lucas-balancing", "C", 0, [1, 3, 17, 99]),
    (b, "cobalancing", "b", 1, [0, 2, 14, 84]),
    (c, "lucas-cobalancing", "c", 1, [1, 7, 41, 239]),
], ids=repr)
def test_each_kind_carries_its_own_data(kind, name, short, min_index, prefix):
    # The value stays the long name, so lookup by value and pickling by it hold.
    assert kind.value == name and SequenceKind(name) is kind
    assert parse_kind(short) is kind and kind.short == short
    assert kind.min_index == min_index
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(kind, protocol)) is kind
    assert copy.deepcopy(kind) is kind
    # walk steps from the member's seeds by its add.
    assert kind.seeds == tuple(prefix[:2])
    assert 6 * prefix[1] - prefix[0] + kind.add == prefix[2]
    assert list(islice(sequences.walk(kind), 4)) == prefix


def test_term_source_matches_recurrence():
    src = TermSource()
    src.prefill({"B": 64, "C": 64, "b": 64, "c": 64})
    for n in range(0, 65):
        assert src.B[n] == term_recurrence(B, n)
        assert src.C[n] == term_recurrence(C, n)
    for n in range(1, 65):
        assert src.b[n] == term_recurrence(b, n)
        assert src.c[n] == term_recurrence(c, n)


def test_one_index_check_words_every_refusal():
    expected = {B: "balancing is defined for n >= 0, got n=-2",
                b: "cobalancing is defined for n >= 1, got n=0"}
    for read, kind in ((lambda: pair_bc(-2), B), (lambda: stream(B, -2, 0), B),
                       (lambda: pair_cobal(0), b), (lambda: term_binet(b, 0), b)):
        with pytest.raises(DomainError) as info:
            read()
        assert str(info.value) == expected[kind]


def test_term_source_read_outside_the_filled_range_is_a_key_error():
    src = TermSource()
    with pytest.raises(KeyError):
        src.c[1]  # nothing is filled until prefill()
    src.prefill({"B": 5, "c": 12})
    assert src.c[12] == _reference(1, 7, 0, 12)[-1]
    for table, i in ((src.B, 6), (src.B, -1), (src.c, 13), (src.c, 0), (src.C, 0), (src.b, 1)):
        with pytest.raises(KeyError):
            table[i]
    assert [type(t) for t in (src.B, src.C, src.b, src.c)] == [dict] * 4
    assert [len(src.B), len(src.C), len(src.b), len(src.c)] == [6, 0, 0, 12]


@pytest.mark.parametrize("prefill", [None, (40, 70)])
def test_term_source_reads_in_any_order(prefill):
    # prefill() extends a table and never shrinks it, whatever the order of
    # its tops, and the terms read back in any order.
    top = 120
    expected = {
        kind.short: dict(enumerate(stream(kind, kind.min_index, top), kind.min_index))
        for kind in (B, C, b, c)
    }
    reads = [(short, n) for short, values in expected.items() for n in values]
    random.Random(11).shuffle(reads)
    src = TermSource()
    if prefill:  # a partial fill first, which the full one extends
        src.prefill({"B": prefill[0], "C": prefill[0], "b": prefill[1], "c": prefill[1]})
    src.prefill({short: top for short in "BCbc"})
    for step, (short, n) in enumerate(reads):
        assert getattr(src, short)[n] == expected[short][n], (short, n)
        if step % 37 == 0:
            src.prefill({"B": step % 5, "C": step % 7, "b": step % 3, "c": 1})
            assert [len(src.B), len(src.C), len(src.b), len(src.c)] == [top + 1, top + 1, top, top]
    assert {k: getattr(src, k) for k in "BCbc"} == expected


def test_prefill_walks_each_named_kind_to_its_top(monkeypatch):
    stepped = []
    real_walk = sequences.walk

    def counting_walk(kind, one=1):
        for x in real_walk(kind, one):
            stepped.append(kind.short)
            yield x

    monkeypatch.setattr(sequences, "walk", counting_walk)
    fresh, src = TermSource(), TermSource()
    src.prefill({"B": 80, "c": 30, "b": -1})  # a top below min_index fills nothing
    assert (stepped.count("B"), stepped.count("c"), len(stepped)) == (81, 30, 111)
    assert src.B == dict(enumerate(stream(B, 0, 80)))
    # Each source fills only its own tables.
    assert [len(t) for t in (src.C, src.b, fresh.B, fresh.C, fresh.b, fresh.c)] == [0] * 6
