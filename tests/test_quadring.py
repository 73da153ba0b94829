"""Ring arithmetic: worked examples plus algebraic property tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from balkit.quadring import (
    ALPHA1,
    ALPHA2,
    LAMBDA1,
    LAMBDA2,
    ONE,
    QuadInt,
    qpow,
)

import pytest

coeffs = st.integers(min_value=-(10**6), max_value=10**6)
elements = st.builds(QuadInt, coeffs, coeffs)


def _pow_by_fold(x: QuadInt, k: int) -> QuadInt:
    """Independent reference: k-fold multiplication."""
    out = ONE
    for _ in range(k):
        out = out * x
    return out


def test_qmul_worked_examples():
    assert QuadInt(1, 1) * QuadInt(1, 1) == QuadInt(3, 2)  # alpha1^2 = lambda1
    assert QuadInt(3, 2) * QuadInt(3, -2) == QuadInt(1, 0)  # lambda1*lambda2 = 1
    assert QuadInt(3, 2) * QuadInt(3, 2) == QuadInt(17, 12)


def test_qmul_rational_part_matches_companion_sequence():
    # The rational part of lambda1^n must follow the companion recurrence
    # x(k+1) = 6x(k) - x(k-1) from 1, 3; checked here by independent iteration.
    x, y = 1, 3
    power = LAMBDA1
    for _ in range(2, 12):
        power = power * LAMBDA1
        x, y = y, 6 * y - x
        assert power.a == y


def test_qpow_worked_examples():
    assert qpow(LAMBDA1, 0) == QuadInt(1, 0)
    assert qpow(LAMBDA1, 2) == QuadInt(17, 12)
    assert qpow(ALPHA1, 3) == QuadInt(7, 5)


def test_qpow_alpha_cubed_rational_part_is_second_companion():
    # c(2) = 7 from the independent recurrence seeds 1, 7.
    assert qpow(ALPHA1, 3).a == 7


def test_qpow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        qpow(LAMBDA1, -1)


def test_qconj_worked_examples():
    assert QuadInt(3, 2).conj() == QuadInt(3, -2)
    assert QuadInt(1, 1).conj() == QuadInt(1, -1)
    assert qpow(LAMBDA1, 2).conj() == QuadInt(17, -12)
    assert LAMBDA1.conj() == LAMBDA2
    assert ALPHA1.conj() == ALPHA2


def test_str_writes_a_plus_b_sqrt2():
    assert str(QuadInt(3, 2)) == "3+2*sqrt(2)"
    assert str(QuadInt(1, -1)) == "1-1*sqrt(2)"


def test_qnorm_worked_examples():
    assert QuadInt(3, 2).norm() == 1
    assert QuadInt(1, 1).norm() == -1
    assert qpow(LAMBDA1, 5).norm() == 1


@given(elements, elements)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(elements, elements)
def test_conjugation_is_a_homomorphism(x, y):
    assert (x * y).conj() == x.conj() * y.conj()


@given(elements, elements, elements)
def test_ring_laws(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert (x + y) * z == x * z + y * z
    assert x - y == x + (-y)


@settings(max_examples=60)
@given(elements, st.integers(min_value=0, max_value=64))
def test_qpow_agrees_with_folded_qmul(x, k):
    assert qpow(x, k) == _pow_by_fold(x, k)


def test_unit_norms_up_to_1000():
    # lambda1 has norm 1 and alpha1 norm -1, so every power's norm is forced.
    lam_pow = ONE
    alp_pow = ONE
    for n in range(1001):
        assert lam_pow.norm() == 1
        assert alp_pow.norm() == (-1) ** n
        # The sqrt(2) coefficient of lambda1^n is twice a balancing number.
        assert lam_pow.b % 2 == 0
        lam_pow = lam_pow * LAMBDA1
        alp_pow = alp_pow * ALPHA1


def test_qpow_spot_checks_against_running_product():
    running = ONE
    for n in range(1, 80):
        running = running * LAMBDA1
        if n in (1, 2, 7, 31, 64, 79):
            assert qpow(LAMBDA1, n) == running


def _pow_right_to_left(x: QuadInt, k: int) -> QuadInt:
    """Reference: square the base on every bit from the bottom."""
    out, base = ONE, x
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


@pytest.mark.parametrize("base", [LAMBDA1, ALPHA1, QuadInt(5, -3)])
def test_pow_left_to_right_matches_right_to_left(base):
    exponents = set(range(301))
    for j in range(13):
        exponents.update((2**j - 1, 2**j, 2**j + 1))
    for k in sorted(exponents):
        assert base ** k == _pow_right_to_left(base, k), k
