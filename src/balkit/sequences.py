"""The four balancing-family sequences, each computable three independent ways.

B(n) are the balancing numbers (0, 1, 6, 35, 204, ...), C(n) their Pell
companions (1, 3, 17, 99, 577, ...), b(n) the cobalancing numbers
(0, 2, 14, 84, ...) and c(n) their companions (1, 7, 41, 239, ...).
B and C are indexed from 0, b and c from 1; requests outside those domains
are errors, not extrapolations.

Every term can be produced by linear recurrence iteration, by an exact
closed form in Z[sqrt(2)], or by logarithmic-time fast doubling. The three
routes are algebraically equal, and the verification harness checks that
this implementation keeps them equal.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

from .quadring import ALPHA1, LAMBDA1, qpow


class DomainError(ValueError):
    """An index or argument outside the defined domain of a sequence."""


class SequenceKind(Enum):
    BALANCING = "balancing"
    LUCAS_BALANCING = "lucas-balancing"
    COBALANCING = "cobalancing"
    LUCAS_COBALANCING = "lucas-cobalancing"

    @property
    def min_index(self) -> int:
        """Smallest defined index: 0 for B and C, 1 for b and c."""
        if self in (SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING):
            return 0
        return 1

    @property
    def short(self) -> str:
        """Single-letter conventional symbol (case-significant)."""
        return _SHORT[self]


_SHORT = {
    SequenceKind.BALANCING: "B",
    SequenceKind.LUCAS_BALANCING: "C",
    SequenceKind.COBALANCING: "b",
    SequenceKind.LUCAS_COBALANCING: "c",
}

_BY_SHORT = {v: k for k, v in _SHORT.items()}

# Seed pair (value at min_index, value at min_index + 1) for each kind.
_SEEDS = {
    SequenceKind.BALANCING: (0, 1),
    SequenceKind.LUCAS_BALANCING: (1, 3),
    SequenceKind.COBALANCING: (0, 2),
    SequenceKind.LUCAS_COBALANCING: (1, 7),
}


def parse_kind(text: str) -> SequenceKind:
    """Resolve a kind from its short symbol (case-sensitive) or long name."""
    if text in _BY_SHORT:
        return _BY_SHORT[text]
    low = text.lower()
    for kind in SequenceKind:
        if low == kind.value:
            return kind
    raise DomainError(
        "unknown sequence kind %r (use B, C, b, c or balancing, "
        "lucas-balancing, cobalancing, lucas-cobalancing)" % text
    )


@dataclass(frozen=True)
class Term:
    """One sequence member: (kind, index, exact value)."""

    kind: SequenceKind
    n: int
    value: int


def _check_index(kind: SequenceKind, n: int) -> None:
    if n < kind.min_index:
        raise DomainError(
            "%s is defined for n >= %d, got n=%d" % (kind.value, kind.min_index, n)
        )


def _step_add(kind: SequenceKind) -> int:
    # Only the cobalancing recurrence is inhomogeneous: b(n+1) = 6b(n) - b(n-1) + 2.
    return 2 if kind is SequenceKind.COBALANCING else 0


def term_recurrence(kind: SequenceKind, n: int) -> int:
    """n-th term by iterating x(k+1) = 6*x(k) - x(k-1) (+2 for cobalancing).

    O(n) big-integer operations; the reference route the other evaluators
    are compared against.
    """
    _check_index(kind, n)
    lo = kind.min_index
    x, y = _SEEDS[kind]
    if n == lo:
        return x
    add = _step_add(kind)
    for _ in range(n - lo - 1):
        x, y = y, 6 * y - x + add
    return y


def term_binet(kind: SequenceKind, n: int) -> int:
    """n-th term from the closed form, expanded exactly in Z[sqrt(2)].

    With (3 + 2*sqrt(2))**n = a + b*sqrt(2) the conjugate power is
    a - b*sqrt(2), so the closed forms collapse to C(n) = a and B(n) = b/2.
    With (1 + sqrt(2))**(2n-1) = p + q*sqrt(2) they give c(n) = p and
    b(n) = (q - 1)/2. The divisibility of the extracted coefficients is
    forced algebraically; it is checked rather than assumed, also under
    python -O, and a violation raises AssertionError.
    """
    _check_index(kind, n)
    if kind is SequenceKind.BALANCING or kind is SequenceKind.LUCAS_BALANCING:
        u = qpow(LAMBDA1, n)
        if kind is SequenceKind.LUCAS_BALANCING:
            return u.a
        if u.b % 2:
            raise AssertionError("sqrt(2) coefficient of (3+2*sqrt(2))^n must be even")
        return u.b // 2
    u = qpow(ALPHA1, 2 * n - 1)
    if kind is SequenceKind.LUCAS_COBALANCING:
        return u.a
    if u.b % 2 != 1:
        raise AssertionError("sqrt(2) coefficient of (1+sqrt(2))^(2n-1) must be odd")
    return (u.b - 1) // 2


def pair_bc(n: int) -> tuple[int, int]:
    """(B(n), C(n)) by fast doubling, two big products per bit of n.

    Scans the bits of n from the top, carrying only (B(k), C(k)). Each bit
    doubles the index with
        B(2k) = 2*B(k)*C(k)
        C(2k) = 2*C(k)**2 - 1
    and a set bit then steps it by one with the addition law for index 1,
        B(k+1) = 3*B(k) + C(k)
        C(k+1) = 8*B(k) + 3*C(k)
    which costs only small multiples. Each bit therefore costs two big
    products, B*C and C**2, where carrying the pairs at k and k+1 would cost
    eight (Takahashi's fast-doubling scheme, Inf. Proc. Letters 75, 2000).
    """
    if n < 0:
        raise DomainError("index must be nonnegative, got %d" % n)
    bn, cn = 0, 1  # index k = 0
    for i in range(n.bit_length() - 1, -1, -1):
        bn, cn = 2 * bn * cn, 2 * cn * cn - 1
        if (n >> i) & 1:
            bn, cn = 3 * bn + cn, 8 * bn + 3 * cn
    return bn, cn


def pair_cobal(n: int) -> tuple[int, int]:
    """(b(n), c(n)) for n >= 1, derived from (B(n), C(n)) in O(log n).

    The linear bridge b(n) = (C(n) - 2*B(n) - 1)/2 and c(n) = 4*B(n) - C(n)
    follows from the closed forms via (1+sqrt(2))**2 = 3+2*sqrt(2); it is
    cross-checked against the recurrence route in the test suite before
    being trusted here.
    """
    if n < 1:
        raise DomainError("cobalancing pair is defined for n >= 1, got n=%d" % n)
    big_b, big_c = pair_bc(n)
    diff = big_c - 2 * big_b - 1
    if diff % 2:
        raise AssertionError("C(n) - 2*B(n) - 1 must be even")
    return (diff // 2, 4 * big_b - big_c)


def stream(kind: SequenceKind, start: int, stop: int) -> list[Term]:
    """Consecutive terms start..stop (inclusive) from one recurrence pass."""
    _check_index(kind, start)
    _check_index(kind, stop)
    if start > stop:
        raise DomainError("range is descending: start=%d > stop=%d" % (start, stop))
    lo = kind.min_index
    add = _step_add(kind)
    x, y = _SEEDS[kind]
    out: list[Term] = []
    for idx in range(lo, stop + 1):
        if idx >= start:
            out.append(Term(kind, idx, x))
        x, y = y, 6 * y - x + add
    return out


class TermSource:
    """List-cached terms of all four sequences for repeated exact lookups.

    The caches grow by ascending recurrence passes. Growth is serialized by
    a lock and appends only, so once a prefix is filled, concurrent readers
    of that prefix need no synchronization; callers that share a source
    across workers should prefill() the range they will touch first.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._B = [0, 1]
        self._C = [1, 3]
        self._b = [0, 2]  # position j holds b(j+1)
        self._c = [1, 7]  # position j holds c(j+1)

    def prefill(self, bc_max: int, cobal_max: int) -> None:
        """Fill B,C up to index bc_max and b,c up to index cobal_max."""
        if bc_max >= len(self._B):
            self._grow_bc(bc_max)
        if cobal_max > len(self._b):
            self._grow_cobal(cobal_max)

    def B(self, i: int) -> int:
        if i < 0:
            raise DomainError("B is defined for n >= 0, got n=%d" % i)
        if i >= len(self._B):
            self._grow_bc(i)
        return self._B[i]

    def C(self, i: int) -> int:
        if i < 0:
            raise DomainError("C is defined for n >= 0, got n=%d" % i)
        if i >= len(self._C):
            self._grow_bc(i)
        return self._C[i]

    def b(self, i: int) -> int:
        if i < 1:
            raise DomainError("b is defined for n >= 1, got n=%d" % i)
        if i > len(self._b):
            self._grow_cobal(i)
        return self._b[i - 1]

    def c(self, i: int) -> int:
        if i < 1:
            raise DomainError("c is defined for n >= 1, got n=%d" % i)
        if i > len(self._c):
            self._grow_cobal(i)
        return self._c[i - 1]

    def _grow_bc(self, i: int) -> None:
        with self._lock:
            bs, cs = self._B, self._C
            while len(bs) <= i:
                bs.append(6 * bs[-1] - bs[-2])
                cs.append(6 * cs[-1] - cs[-2])

    def _grow_cobal(self, i: int) -> None:
        with self._lock:
            bs, cs = self._b, self._c
            while len(bs) < i:
                bs.append(6 * bs[-1] - bs[-2] + 2)
                cs.append(6 * cs[-1] - cs[-2])
