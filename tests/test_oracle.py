"""First-principles oracle: square tests, witnesses and the brute-force scan."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balkit.oracle import (
    BalancerWitness,
    _is_square,
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
    gen_b = [t.value for t in stream(SequenceKind.BALANCING, 1, 10)]
    assert bal == [v for v in gen_b if v <= 10**5]
    cob = search_family(SequenceKind.COBALANCING, 10**5)
    gen_c = [t.value for t in stream(SequenceKind.COBALANCING, 1, 10)]
    assert cob == [v for v in gen_c if v <= 10**5]


def test_square_root_roundtrip_defines_companions():
    # The companions are the positive square roots of 8B^2+1 and 8b^2+8b+1.
    big_b = {t.n: t.value for t in stream(SequenceKind.BALANCING, 0, 500)}
    big_c = {t.n: t.value for t in stream(SequenceKind.LUCAS_BALANCING, 0, 500)}
    for n in range(501):
        assert isqrt(8 * big_b[n] ** 2 + 1) == big_c[n]
    small_b = {t.n: t.value for t in stream(SequenceKind.COBALANCING, 1, 500)}
    small_c = {t.n: t.value for t in stream(SequenceKind.LUCAS_COBALANCING, 1, 500)}
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
    for t in stream(SequenceKind.LUCAS_BALANCING, 0, 4000):
        sq = t.value * t.value
        assert _is_square(sq)
        assert not _is_square(sq + 1)
        assert t.n == 0 or not _is_square(sq - 1)
    for t in stream(SequenceKind.BALANCING, 0, 4000):
        assert _is_square(8 * t.value ** 2 + 1)
    for t in stream(SequenceKind.COBALANCING, 1, 4000):
        assert _is_square(8 * t.value ** 2 + 8 * t.value + 1)
    assert not _is_square(-1)
