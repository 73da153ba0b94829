"""First-principles oracle: square tests, witnesses and the brute-force scan."""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balkit import oracle, sequences
from balkit.oracle import (
    _BLOCK,
    _GROUPS,
    BalancerWitness,
    _is_square,
    _rows,
    _square_residues,
    balancer_of,
    cobalancer_of,
    is_balancing,
    is_cobalancing,
    is_triangular,
    isqrt,
    search_family,
)
from balkit.sequences import DomainError, SequenceKind, stream


def test_isqrt_boundaries():
    assert isqrt(0) == 0
    assert isqrt(1) == 1
    assert isqrt(2) == 1
    assert isqrt(3) == 1
    assert isqrt(4) == 2
    assert isqrt(289) == 17
    assert isqrt(288) == 16
    with pytest.raises(DomainError):
        isqrt(-1)


@given(st.integers(min_value=0, max_value=10**40))
def test_isqrt_matches_math_isqrt(x):
    assert isqrt(x) == math.isqrt(x)


@given(st.integers(min_value=0, max_value=10**20))
def test_isqrt_defining_inequality(k):
    # Exercise the exact-square boundary on both sides.
    assert isqrt(k * k) == k
    if k:
        assert isqrt(k * k - 1) == k - 1


def test_is_balancing():
    assert is_balancing(6)
    assert is_balancing(1)  # degenerate first member
    assert not is_balancing(2)  # 33 is not a perfect square
    assert not is_balancing(0)
    assert not is_balancing(-6)


def test_is_cobalancing():
    assert is_cobalancing(0)  # degenerate first member
    assert is_cobalancing(2)
    assert not is_cobalancing(3)  # 97 is not a perfect square
    assert not is_cobalancing(-2)


def test_is_triangular():
    assert is_triangular(10)
    assert is_triangular(36)  # square of a balancing number is triangular
    assert not is_triangular(2)
    assert is_triangular(0)
    assert is_triangular(1)
    assert not is_triangular(-3)


def test_balancer_witnesses():
    w = balancer_of(6)
    assert (w.r, w.left_sum, w.right_sum) == (2, 15, 15)
    w = balancer_of(35)
    assert (w.r, w.left_sum, w.right_sum) == (14, 595, 595)
    w = balancer_of(1)
    assert (w.r, w.left_sum, w.right_sum) == (0, 0, 0)
    with pytest.raises(DomainError):
        balancer_of(2)


def test_cobalancer_witnesses():
    w = cobalancer_of(2)
    assert (w.r, w.left_sum, w.right_sum) == (1, 3, 3)
    w = cobalancer_of(14)
    assert (w.r, w.left_sum, w.right_sum) == (6, 105, 105)
    w = cobalancer_of(0)
    assert (w.r, w.left_sum, w.right_sum) == (0, 0, 0)
    with pytest.raises(DomainError):
        cobalancer_of(3)


@pytest.mark.parametrize("witness, x, message", [
    (balancer_of, 5, "5 is not a balancing number"),
    (cobalancer_of, 3, "3 is not a cobalancing number"),
])
def test_a_non_member_error_names_the_value_and_family(witness, x, message):
    with pytest.raises(DomainError) as info:
        witness(x)
    assert str(info.value) == message


def test_witness_type_rejects_unbalanced_sums():
    with pytest.raises(AssertionError):
        BalancerWitness(n=6, r=2, left_sum=15, right_sum=16)
    with pytest.raises(AssertionError):
        BalancerWitness(n=6, r=-1, left_sum=0, right_sum=0)


def test_witness_sums_match_literal_loops():
    # Closed forms re-verified against literal summation for members <= 10^4.
    for x in search_family(SequenceKind.BALANCING, 10**4):
        w = balancer_of(x)
        assert w.left_sum == sum(range(1, x))
        assert w.right_sum == sum(range(x + 1, x + w.r + 1))
    for x in search_family(SequenceKind.COBALANCING, 10**4):
        w = cobalancer_of(x)
        assert w.left_sum == sum(range(1, x + 1))
        assert w.right_sum == sum(range(x + 1, x + w.r + 1))


def test_search_family_examples():
    assert search_family(SequenceKind.BALANCING, 300) == [1, 6, 35, 204]
    assert search_family(SequenceKind.COBALANCING, 100) == [0, 2, 14, 84]
    assert search_family(SequenceKind.BALANCING, 0) == []
    assert search_family(SequenceKind.COBALANCING, 0) == [0]
    with pytest.raises(DomainError):
        search_family(SequenceKind.LUCAS_BALANCING, 10)


def test_scan_agrees_with_generators_to_1e5():
    bal = search_family(SequenceKind.BALANCING, 10**5)
    gen_b = stream(SequenceKind.BALANCING, 1, 10)
    assert bal == [v for v in gen_b if v <= 10**5]
    cob = search_family(SequenceKind.COBALANCING, 10**5)
    gen_c = stream(SequenceKind.COBALANCING, 1, 10)
    assert cob == [v for v in gen_c if v <= 10**5]


def test_square_root_roundtrip_defines_companions():
    # The companions are the positive square roots of 8B^2+1 and 8b^2+8b+1.
    big_b = dict(enumerate(stream(SequenceKind.BALANCING, 0, 500)))
    big_c = dict(enumerate(stream(SequenceKind.LUCAS_BALANCING, 0, 500)))
    for n in range(501):
        assert isqrt(8 * big_b[n] ** 2 + 1) == big_c[n]
    small_b = dict(enumerate(stream(SequenceKind.COBALANCING, 1, 500), 1))
    small_c = dict(enumerate(stream(SequenceKind.LUCAS_COBALANCING, 1, 500), 1))
    for n in range(1, 501):
        assert isqrt(8 * small_b[n] ** 2 + 8 * small_b[n] + 1) == small_c[n]


def _sum_equation_walk(limit, cobalancing):
    """Members <= limit from the defining sum equation, with no square root.

    left is 1+...+(x-1) (1+...+x for cobalancing) and right is
    (x+1)+...+(x+r). The least r with right >= left never decreases as x
    grows, so one two-pointer pass over x and r finds every solution.
    """
    members = []
    left = right = r = 0
    for x in range(0 if cobalancing else 1, limit + 1):
        while right < left:
            r += 1
            right += x + r
        if right == left:
            members.append(x)
        left += x + 1 if cobalancing else x  # the next x's left side
        right += r  # each of the r right-hand terms moves up by one
    return members


def test_scan_agrees_with_sum_equation_walk():
    assert _sum_equation_walk(3000, False) == search_family(SequenceKind.BALANCING, 3000)
    assert _sum_equation_walk(3000, True) == search_family(SequenceKind.COBALANCING, 3000)
    assert _sum_equation_walk(3000, False) == [1, 6, 35, 204, 1189]
    assert _sum_equation_walk(3000, True) == [0, 2, 14, 84, 492, 2870]


def test_is_square_on_sequence_values():
    # The C(k)^2 - 1 check starts at k = 1: C(0)^2 - 1 = 0 is a square.
    for n, value in enumerate(stream(SequenceKind.LUCAS_BALANCING, 0, 4000)):
        sq = value * value
        assert _is_square(sq)
        assert not _is_square(sq + 1)
        assert n == 0 or not _is_square(sq - 1)
    for value in stream(SequenceKind.BALANCING, 0, 4000):
        assert _is_square(8 * value ** 2 + 1)
    for value in stream(SequenceKind.COBALANCING, 1, 4000):
        assert _is_square(8 * value ** 2 + 8 * value + 1)
    assert not _is_square(-1)


# The residue sieve in front of the scan's square test. a is the linear
# coefficient of the scanned polynomial 8*x**2 + a*x + 1.
_SIEVED = ((SequenceKind.BALANCING, 0, is_balancing), (SequenceKind.COBALANCING, 8, is_cobalancing))
_LONGEST_ROW = max(math.prod(group) for group in _GROUPS)


def test_square_residue_sets_are_brute_force():
    moduli = [p for group in _GROUPS for p in group]
    assert _LONGEST_ROW == 63 * 65 * 11 == 45045
    # The groups are pairwise coprime, and cover 63, 65, 11 and every prime
    # from 17 to 59 once.
    assert math.lcm(*moduli) == math.prod(moduli)
    assert sorted(moduli) == [11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 63, 65]
    for p in moduli:
        assert _square_residues(p) == {k * k % p for k in range(p)}
    # Counted by the Chinese remainder theorem: 63 = 9*7, 65 = 5*13; an odd
    # prime p has (p + 1) / 2 square residues, 0 included.
    assert [len(_square_residues(p)) for p in (63, 65, 11)] == [4 * 4, 3 * 7, 6]
    assert all(len(_square_residues(p)) == (p + 1) // 2 for p in moduli if p not in (63, 65))


@pytest.mark.parametrize("family,a,member", _SIEVED)
def test_sieve_admits_exactly_the_square_residue_classes(family, a, member):
    # Every x of a row is checked, the block it is extended by included, so a
    # square, which is a square residue mod each modulus, is never rejected,
    # and each rejection is a non-residue mod some modulus of the group.
    rows = _rows(a)
    assert len(rows) == len(_GROUPS)
    for group, (period, row) in zip(_GROUPS, rows):
        assert period == math.prod(group)
        size = period + _BLOCK
        assert 0 <= row < 1 << size
        residues = [{k * k % p for k in range(p)} for p in group]
        bits = bin(row)[2:].zfill(size)[::-1]  # bits[x] is bit x of row
        for x in range(size):
            f = 8 * x * x + a * x + 1
            expected = all(f % p in r for p, r in zip(group, residues))
            assert bits[x] == "01"[expected], (group, x)


@pytest.mark.parametrize("family,a,member", _SIEVED)
def test_sieve_admits_large_members(family, a, member):
    rows = _rows(a)
    for value in stream(family, 1, 300):
        assert member(value)
        assert all(row >> (value % period) & 1 for period, row in rows), value


@pytest.mark.parametrize("family,a,member", _SIEVED)
@pytest.mark.parametrize("limit", [
    0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7,
    _LONGEST_ROW - 1, _LONGEST_ROW, _LONGEST_ROW + 1, 2 * _LONGEST_ROW + 7,
])
def test_search_family_equals_plain_scan_at_block_edges(family, a, member, limit):
    start = 1 if family is SequenceKind.BALANCING else 0
    assert search_family(family, limit) == [x for x in range(start, limit + 1) if member(x)]


def test_search_needs_no_generator(monkeypatch):
    # The oracle is an independent check, so it must find the members with
    # every route of the sequences module out of reach.
    def refuse(*args, **kwargs):
        raise RuntimeError("the oracle called a generator")

    for name in ("walk", "pair_bc", "term_doubling"):
        monkeypatch.setattr(sequences, name, refuse)
    with pytest.raises(RuntimeError):
        sequences.term_doubling(SequenceKind.BALANCING, 5)
    assert search_family(SequenceKind.BALANCING, 10**5) == [1, 6, 35, 204, 1189, 6930, 40391]
    assert search_family(SequenceKind.COBALANCING, 10**5) == [0, 2, 14, 84, 492, 2870, 16730, 97512]


def test_sieve_tables_are_built_on_first_search_only():
    # classify and term never build the tables, about 1 ms per family.
    code = (
        "import contextlib, io\n"
        "from balkit import cli, oracle\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['classify', '35']) == 0\n"
        "    assert cli.main(['classify', '36']) == 0\n"
        "    assert cli.main(['term', 'B', '100']) == 0\n"
        "print(oracle._rows.cache_info().currsize)\n"
        "oracle.search_family(oracle.SequenceKind.BALANCING, 10)\n"
        "print(oracle._rows.cache_info().currsize)\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(oracle.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.split() == ["0", "1"]


@pytest.mark.parametrize("family", [SequenceKind.BALANCING, SequenceKind.COBALANCING])
def test_search_family_refuses_limit_above_cap(monkeypatch, family):
    scanned = []

    def record_scan(a, start, limit):
        scanned.append(limit)
        return []

    monkeypatch.setattr(oracle, "_scan", record_scan)
    with pytest.raises(DomainError, match="limit must be <= 1000000000"):
        search_family(family, oracle.SEARCH_LIMIT_MAX + 1)
    assert scanned == []
    # The cap itself is accepted (the stub stands in for a scan of about 1.5 s).
    assert search_family(family, oracle.SEARCH_LIMIT_MAX) == []
    assert scanned == [oracle.SEARCH_LIMIT_MAX]
