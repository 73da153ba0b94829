"""Sequence generation: the three routes against an independent reference."""

import random

import pytest

from balkit.sequences import (
    DomainError,
    SequenceKind,
    Term,
    TermSource,
    pair_bc,
    pair_cobal,
    parse_kind,
    stream,
    term_binet,
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
            rec = term_recurrence(kind, n)
            assert rec == term_binet(kind, n)
            if kind is B:
                assert rec == pair_bc(n)[0]
            elif kind is C:
                assert rec == pair_bc(n)[1]
            elif kind is b:
                assert rec == pair_cobal(n)[0]
            else:
                assert rec == pair_cobal(n)[1]


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
        values = [t.value for t in stream(kind, kind.min_index, 300)]
        assert all(x < y for x, y in zip(values, values[1:]))


def test_growth_ratio_between_5_and_6():
    bs = [term_recurrence(B, n) for n in range(102)]
    for n in range(2, 101):
        assert 5 * bs[n] < bs[n + 1] < 6 * bs[n]


def test_stream_examples():
    assert [t.value for t in stream(B, 0, 4)] == [0, 1, 6, 35, 204]
    assert [t.value for t in stream(b, 1, 4)] == [0, 2, 14, 84]
    only = stream(B, 3, 3)
    assert only == [Term(B, 3, 35)]


def test_stream_ranges_and_indices():
    terms = stream(c, 3, 6)
    assert [(t.n, t.value) for t in terms] == [(3, 41), (4, 239), (5, 1393), (6, 8119)]
    with pytest.raises(DomainError):
        stream(B, 4, 2)
    with pytest.raises(DomainError):
        stream(b, 0, 5)


@pytest.mark.parametrize("kind", [b, c])
def test_cobalancing_domain_starts_at_1(kind):
    with pytest.raises(DomainError):
        term_recurrence(kind, 0)
    with pytest.raises(DomainError):
        term_binet(kind, 0)
    with pytest.raises(DomainError):
        pair_cobal(0)


def test_negative_indices_rejected():
    with pytest.raises(DomainError):
        term_recurrence(B, -1)
    with pytest.raises(DomainError):
        pair_bc(-2)


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


def test_term_source_matches_recurrence():
    src = TermSource()
    src.prefill(64, 64)
    for n in range(0, 65):
        assert src.B(n) == term_recurrence(B, n)
        assert src.C(n) == term_recurrence(C, n)
    for n in range(1, 65):
        assert src.b(n) == term_recurrence(b, n)
        assert src.c(n) == term_recurrence(c, n)


def test_term_source_domains_and_lazy_growth():
    src = TermSource()
    with pytest.raises(DomainError):
        src.b(0)
    with pytest.raises(DomainError):
        src.B(-1)
    # No prefill: lookups beyond the current cache extend it transparently.
    assert src.c(12) == _reference(1, 7, 0, 12)[-1]
