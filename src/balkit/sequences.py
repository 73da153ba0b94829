"""The four balancing-family sequences, each computable three independent ways.

B(n) are the balancing numbers (0, 1, 6, 35, 204, ...), C(n) their Pell
companions (1, 3, 17, 99, 577, ...), b(n) the cobalancing numbers
(0, 2, 14, 84, ...) and c(n) their companions (1, 7, 41, 239, ...).
B and C are indexed from 0, b and c from 1; requests outside those domains
are errors, not extrapolations.

Every term can be produced by linear recurrence iteration, by an exact
closed form in Z[sqrt(2)], or by logarithmic-time fast doubling. The three
routes are algebraically equal, and the verification harness checks that
this implementation keeps them equal. decimal_str renders the (possibly
huge) values for the CLI and the harness reports.

All four sequences satisfy x(n+1) = 6*x(n) - x(n-1) + add, from their own
seed pair. _KINDS holds each kind's short symbol, min_index, seeds and add,
and walk() is the one place that steps the recurrence: stream(), the
TermSource caches and the harness's generator search all read its terms.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from itertools import islice
from typing import Iterator, Optional

from .quadring import ALPHA1, LAMBDA1, qpow


class DomainError(ValueError):
    """An index or argument outside the defined domain of a sequence."""


class UnknownIdentityError(LookupError):
    """Requested identity id is not in the catalog.

    Defined here rather than in identities so that the CLI can catch it
    without loading the catalog; identities re-exports it.
    """


class SequenceKind(Enum):
    BALANCING = "balancing"
    LUCAS_BALANCING = "lucas-balancing"
    COBALANCING = "cobalancing"
    LUCAS_COBALANCING = "lucas-cobalancing"

    @property
    def min_index(self) -> int:
        """Smallest defined index: 0 for B and C, 1 for b and c."""
        return _KINDS[self][1]

    @property
    def short(self) -> str:
        """Single-letter conventional symbol (case-significant)."""
        return _KINDS[self][0]


# kind -> (short symbol, min_index, values at min_index and min_index + 1,
#          add in the recurrence x(n+1) = 6*x(n) - x(n-1) + add)
_KINDS = {
    SequenceKind.BALANCING: ("B", 0, (0, 1), 0),
    SequenceKind.LUCAS_BALANCING: ("C", 0, (1, 3), 0),
    SequenceKind.COBALANCING: ("b", 1, (0, 2), 2),
    SequenceKind.LUCAS_COBALANCING: ("c", 1, (1, 7), 0),
}


def parse_kind(text: str) -> SequenceKind:
    """Resolve a kind from its short symbol (case-sensitive) or long name."""
    low = text.lower()
    for kind, (short, *_) in _KINDS.items():
        if text == short or low == kind.value:
            return kind
    raise DomainError(
        "unknown sequence kind %r (use B, C, b, c or balancing, "
        "lucas-balancing, cobalancing, lucas-cobalancing)" % text
    )


class Term:
    """One sequence member: (kind, index, exact value)."""

    __slots__ = ("kind", "n", "value")

    def __init__(self, kind: SequenceKind, n: int, value: int) -> None:
        self.kind = kind
        self.n = n
        self.value = value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.n, self.value) == (other.kind, other.n, other.value)

    def __hash__(self) -> int:
        return hash((self.kind, self.n, self.value))

    def __repr__(self) -> str:
        return "Term(kind=%r, n=%r, value=%r)" % (self.kind, self.n, self.value)


def _check_index(kind: SequenceKind, n: int) -> None:
    if n < kind.min_index:
        raise DomainError(
            "%s is defined for n >= %d, got n=%d" % (kind.value, kind.min_index, n)
        )


def term_recurrence(kind: SequenceKind, n: int) -> int:
    """n-th term by iterating x(k+1) = 6*x(k) - x(k-1) (+2 for cobalancing).

    O(n) big-integer operations; the reference route the other evaluators
    are compared against. It is the one-term case of stream().
    """
    return stream(kind, n, n)[0].value


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


def term_doubling(kind: SequenceKind, n: int) -> int:
    """n-th term by fast doubling: kind's member of pair_bc(n) or pair_cobal(n)."""
    _check_index(kind, n)
    if kind is SequenceKind.BALANCING:
        return pair_bc(n)[0]
    if kind is SequenceKind.LUCAS_BALANCING:
        return pair_bc(n)[1]
    pair = pair_cobal(n)
    return pair[0] if kind is SequenceKind.COBALANCING else pair[1]


_LOG2_LAMBDA = math.log2(3 + 2 * math.sqrt(2))


def index_of(kind: SequenceKind, x: int) -> Optional[int]:
    """Index k with kind's k-th term equal to x, or None if x is no term.

    The terms grow by a factor near 3+2*sqrt(2) per index, so x's bit length
    pins k to within one (in double precision, for k below about 10**14).
    One doubling evaluation checks the estimate exactly and at most one more
    tries its neighbour, so the cost is O(log k) big-integer operations.
    """
    if x < 0:
        return None
    # By the leading terms of the closed forms, round(bits / log2(3+2*sqrt(2)))
    # of the k-th term is k for C and k - 1 for B, b and c; for c only just
    # (bits/log2 lambda < k - 1/2 by a margin that can get tiny), which the
    # neighbour step absorbs.
    k = round(x.bit_length() / _LOG2_LAMBDA)
    if kind is not SequenceKind.LUCAS_BALANCING:
        k += 1
    value = term_doubling(kind, k)
    if value != x:
        k += 1 if value < x else -1
        if k < kind.min_index or term_doubling(kind, k) != x:
            return None
    return k


def walk(kind: SequenceKind) -> Iterator[int]:
    """kind's terms from index min_index upward, without end, by recurrence
    from its seed pair in _KINDS."""
    _, _, (x, y), add = _KINDS[kind]
    while True:
        yield x
        x, y = y, 6 * y - x + add


def stream(kind: SequenceKind, start: int, stop: int) -> list[Term]:
    """Consecutive terms start..stop (inclusive) from one recurrence pass."""
    _check_index(kind, start)
    _check_index(kind, stop)
    if start > stop:
        raise DomainError("range is descending: start=%d > stop=%d" % (start, stop))
    lo = kind.min_index
    values = islice(walk(kind), start - lo, stop - lo + 1)
    return [Term(kind, idx, x) for idx, x in enumerate(values, start)]


class _Terms(dict):
    """One kind's terms keyed by index, grown from its walk() on a miss.

    The keys are always min_index, min_index + 1, ... with no gap, so a
    read above the top extends the run up to it, and a read below
    min_index raises DomainError.
    """

    __slots__ = ("_kind", "_walk")

    def __init__(self, kind: SequenceKind) -> None:
        super().__init__()
        self._kind = kind
        self._walk = enumerate(walk(kind), kind.min_index)

    def fill(self, top: int) -> None:
        """Hold every index from min_index through top."""
        missing = top + 1 - self._kind.min_index - len(self)
        if missing > 0:
            self.update(islice(self._walk, missing))

    def __missing__(self, i: int) -> int:
        lo = self._kind.min_index
        if i < lo:
            raise DomainError("%s is defined for n >= %d, got n=%d" % (self._kind.short, lo, i))
        self.fill(i)
        return self[i]


class TermTables:
    """The four term tables an evaluator reads, as t.B[i], t.C[i], t.b[i], t.c[i]."""

    __slots__ = ("B", "C", "b", "c")

    def __init__(self, B: dict, C: dict, b: dict, c: dict) -> None:
        self.B, self.C, self.b, self.c = B, C, b, c


class TermSource:
    """Cached terms of all four sequences for repeated exact lookups.

    Each kind's cache is a dict from index to term that grows from its own
    walk() and never drops an entry. B(i) ... c(i) read one term; tables()
    hands the four caches to the catalog evaluators, which subscript them
    directly and grow them on the same terms. A source is not synchronized:
    give each thread its own, and prefill() the range a run will touch up
    front.
    """

    def __init__(self) -> None:
        self._B = _Terms(SequenceKind.BALANCING)
        self._C = _Terms(SequenceKind.LUCAS_BALANCING)
        self._b = _Terms(SequenceKind.COBALANCING)
        self._c = _Terms(SequenceKind.LUCAS_COBALANCING)

    def prefill(self, bc_max: int, cobal_max: int) -> None:
        """Fill B,C up to index bc_max and b,c up to index cobal_max."""
        self._B.fill(bc_max)
        self._C.fill(bc_max)
        self._b.fill(cobal_max)
        self._c.fill(cobal_max)

    def tables(self) -> TermTables:
        """The four growing caches, for evaluators that read t.B[i]."""
        return TermTables(self._B, self._C, self._b, self._c)

    def B(self, i: int) -> int:
        return self._B[i]

    def C(self, i: int) -> int:
        return self._C[i]

    def b(self, i: int) -> int:
        return self._b[i]

    def c(self, i: int) -> int:
        return self._c[i]


_LOG10_2 = math.log10(2)


def decimal_digits(x: int) -> int:
    """Exact decimal digit count without converting x to a string."""
    if x == 0:
        return 1
    x = abs(x)
    est = int((x.bit_length() - 1) * _LOG10_2)  # never overshoots log10(x)
    while 10 ** (est + 1) <= x:
        est += 1
    return est + 1


# Values up to this many bits are rendered by str(). Above it, CPython's
# quadratic int -> str (before 3.12) loses to the Decimal conversion below,
# import of decimal included (crossover measured near 2^15 bits with
# CPython 3.11 on x86-64).
_STR_MAX_BITS = 1 << 15
_LEAF_BITS = 1024  # at or below this, Decimal(int) converts directly
# No int/str digit limit applies below str_digits_check_threshold (640)
# digits, so str() takes values up to 3 bits per digit of it unchecked.
_ALWAYS_STR_BITS = 3 * getattr(sys.int_info, "str_digits_check_threshold", 0)


def decimal_str(x: int) -> str:
    """str(x), in subquadratic time for large x.

    Every decimal value the CLI prints and the harness reports serialize
    goes through here. A large x is split recursively at powers of two,
    x = hi * 2**h + lo, and rebuilt as a decimal.Decimal, whose libmpdec
    multiply is subquadratic. The context is unbounded and traps Inexact and
    Rounded, so the result is exact or the conversion raises.

    str() also refuses values above the process-wide int/str digit limit
    (4300 digits by default; cli.main lifts it), so it is used only while
    bits <= 3 * limit: a decimal digit carries log2(10) > 3 bits.
    """
    bits = x.bit_length()
    if bits <= _ALWAYS_STR_BITS:
        return str(x)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if bits <= _STR_MAX_BITS and (limit == 0 or bits <= 3 * limit):
        return str(x)
    import decimal

    dec = decimal.Decimal
    powers: dict = {}

    def pow2(w: int):
        p = powers.get(w)
        if p is None:
            if w <= _LEAF_BITS:
                p = dec(1 << w)
            elif w - 1 in powers:
                p = 2 * powers[w - 1]
            else:
                p = pow2(w >> 1) * pow2(w - (w >> 1))
            powers[w] = p
        return p

    def convert(v: int, w: int):  # |v| < 2**w; the split is exact for either sign
        if w <= _LEAF_BITS:
            return dec(v)
        h = w >> 1
        hi = v >> h
        return convert(v - (hi << h), h) + convert(hi, w - h) * pow2(h)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        ctx.traps[decimal.Rounded] = True
        return str(convert(x, bits))
