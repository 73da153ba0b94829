"""The closed form's ring power: sequences.qpow on coefficient pairs.

qpow(x, y, k) returns the pair (a, b) with a + b*sqrt(2) = (x + y*sqrt(2))**k.
It is checked on worked powers, against independent recurrences and unit
norms, and against two reference powers built on the multiply below.
"""

import decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from balkit.sequences import exact_context, qpow

import pytest

coeffs = st.integers(min_value=-(10**6), max_value=10**6)
elements = st.tuples(coeffs, coeffs)

LAMBDA1 = (3, 2)  # 3 + 2*sqrt(2), norm 1
ALPHA1 = (1, 1)  # 1 + sqrt(2), norm -1


def _mul(u, v):
    """Reference product in Z[sqrt(2)]: (a1 + b1*s)(a2 + b2*s) with s^2 = 2."""
    return u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _pow_by_fold(x, k):
    """Independent reference: k-fold multiplication."""
    out = (1, 0)
    for _ in range(k):
        out = _mul(out, x)
    return out


def test_qmul_rational_part_matches_companion_sequence():
    # The rational part of lambda1^n must follow the companion recurrence
    # x(k+1) = 6x(k) - x(k-1) from 1, 3; checked here by independent iteration.
    x, y = 1, 3
    for n in range(2, 12):
        x, y = y, 6 * y - x
        assert qpow(*LAMBDA1, n)[0] == y


def test_qpow_worked_examples():
    assert qpow(*LAMBDA1, 0) == (1, 0)
    assert qpow(*LAMBDA1, 1) == (3, 2)
    assert qpow(*LAMBDA1, 2) == (17, 12)
    assert qpow(*ALPHA1, 3) == (7, 5)
    assert qpow(3, -2, 2) == (17, -12)


def test_qpow_alpha_cubed_rational_part_is_second_companion():
    # c(2) = 7 from the independent recurrence seeds 1, 7.
    assert qpow(*ALPHA1, 3)[0] == 7


def test_qpow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        qpow(*LAMBDA1, -1)


@settings(max_examples=60)
@given(elements, st.integers(min_value=0, max_value=64))
def test_qpow_agrees_with_folded_qmul(x, k):
    assert qpow(*x, k) == _pow_by_fold(x, k)


def test_unit_norms_up_to_1000():
    # lambda1 has norm 1 and alpha1 norm -1, so every power's norm is forced.
    for n in range(1001):
        a, b = qpow(*LAMBDA1, n)
        assert a * a - 2 * (b * b) == 1
        # The sqrt(2) coefficient of lambda1^n is twice a balancing number.
        assert b % 2 == 0
        a, b = qpow(*ALPHA1, n)
        assert a * a - 2 * (b * b) == (-1) ** n


def test_qpow_spot_checks_against_running_product():
    running = (1, 0)
    for n in range(1, 80):
        running = _mul(running, LAMBDA1)
        if n in (1, 2, 7, 31, 64, 79):
            assert qpow(*LAMBDA1, n) == running


def _pow_right_to_left(x, k):
    """Reference: square the base on every bit from the bottom."""
    out, base = (1, 0), x
    while k:
        if k & 1:
            out = _mul(out, base)
        base = _mul(base, base)
        k >>= 1
    return out


@pytest.mark.parametrize("base", [LAMBDA1, ALPHA1, (5, -3)])
def test_pow_left_to_right_matches_right_to_left(base):
    exponents = set(range(301))
    for j in range(13):
        exponents.update((2**j - 1, 2**j, 2**j + 1))
    for k in sorted(exponents):
        assert qpow(*base, k) == _pow_right_to_left(base, k), k


@pytest.mark.parametrize("base", [LAMBDA1, ALPHA1])
def test_qpow_keeps_its_bases_number_type(base):
    # term_binet's Decimal route relies on it, the identity at k = 0 included.
    with exact_context() as ctx:
        x, y = map(ctx.create_decimal, base)
        for k in range(301):
            pair = qpow(x, y, k)
            assert all(isinstance(v, decimal.Decimal) for v in pair), k
            assert pair == qpow(*base, k), k
        assert [str(v) for v in qpow(x, y, 0)] == ["1", "0"]
