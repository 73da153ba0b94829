"""The four balancing-family sequences, each computable three independent ways.

B(n) are the balancing numbers (0, 1, 6, 35, 204, ...), C(n) their Pell
companions (1, 3, 17, 99, 577, ...), b(n) the cobalancing numbers
(0, 2, 14, 84, ...) and c(n) their companions (1, 7, 41, 239, ...).
B and C are indexed from 0, b and c from 1; requests outside those domains
are errors, not extrapolations.

Every term can be produced by linear recurrence iteration (walk, stream),
by an exact closed form in Z[sqrt(2)] (term_binet, whose ring power is
qpow on the coefficient pair of a + b*sqrt(2)), or by logarithmic-time
fast doubling (_pair_bc), each in the number type of its seed, 1 or
Decimal(1). The three routes are algebraically equal, and the verification
harness checks that this implementation keeps them equal. decimal_str
renders the (possibly huge) values for the CLI and the harness reports.

The int route serves the library, TermSource, the harness and classify.
The CLI's term (by doubling or the closed form) and seq compute large
values as exact Decimals under exact_context() and print them with str(),
which is linear, where str() of an int is quadratic before CPython 3.12:
term once the term's estimated bit length passes _STR_MAX_BITS (index
12886), seq once its last term's passes _ALWAYS_STR_BITS (index 755).
Smaller requests stay on int and never import decimal.

All four sequences satisfy x(n+1) = 6*x(n) - x(n-1) + add, from their own
seed pair. Each SequenceKind member carries its short symbol, min_index,
seeds and add, and walk() is the one place that steps the recurrence:
stream() (a sized view that walks afresh on each iteration, as seq writes),
generator_prefix() (the generator search) and the TermSource tables all read
its terms. A TermSource is four plain dicts that prefill() fills from walk()
up to a top index per kind; nothing grows on a read.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from itertools import islice, takewhile
from typing import Iterator, Optional


class DomainError(ValueError):
    """An index or argument outside the defined domain of a sequence."""


class UnknownIdentityError(LookupError):
    """Requested identity id is not in the catalog.

    Defined here rather than in identities so that the CLI can catch it
    without loading the catalog; identities re-exports it.
    """


class WorkerError(RuntimeError):
    """A verify worker process exited without a result. Defined here, as
    UnknownIdentityError is, so that the CLI can catch it without loading
    the harness."""


class SequenceKind(Enum):
    """Each member carries its short symbol (case-significant), min_index,
    seeds (its values at min_index and min_index + 1) and add, the constant
    of its recurrence x(n+1) = 6*x(n) - x(n-1) + add; its value is its long name."""

    BALANCING = ("balancing", "B", 0, (0, 1), 0)
    LUCAS_BALANCING = ("lucas-balancing", "C", 0, (1, 3), 0)
    COBALANCING = ("cobalancing", "b", 1, (0, 2), 2)
    LUCAS_COBALANCING = ("lucas-cobalancing", "c", 1, (1, 7), 0)

    def __new__(cls, name: str, short: str, min_index: int, seeds: tuple, add: int):
        kind = object.__new__(cls)
        kind._value_ = name
        kind.short, kind.min_index, kind.seeds, kind.add = short, min_index, seeds, add
        return kind


def parse_kind(text: str) -> SequenceKind:
    """Resolve a kind from its short symbol (case-sensitive) or long name."""
    low = text.lower()
    for kind in SequenceKind:
        if text == kind.short or low == kind.value:
            return kind
    raise DomainError("unknown sequence kind %r (use %s or %s)" % (
        text, ", ".join(k.short for k in SequenceKind), ", ".join(k.value for k in SequenceKind)))


def _check_index(kind: SequenceKind, n: int) -> None:
    if n < kind.min_index:
        raise DomainError(
            "%s is defined for n >= %d, got n=%d" % (kind.value, kind.min_index, n)
        )


def check_range(kind: SequenceKind, start: int, stop: int) -> None:
    """Raise DomainError unless start..stop is an ascending range of kind's indices."""
    _check_index(kind, start)
    _check_index(kind, stop)
    if start > stop:
        raise DomainError("range is descending: start=%d > stop=%d" % (start, stop))


def _check_exact(one) -> None:
    """Refuse a Decimal seed outside a context that traps Inexact, where
    decimal's default 28-digit precision would round terms silently."""
    if one.__class__ is not int:
        import decimal

        if not decimal.getcontext().traps[decimal.Inexact]:
            raise DomainError("Decimal terms must be computed under exact_context()")


def term_recurrence(kind: SequenceKind, n: int) -> int:
    """n-th term by iterating x(k+1) = 6*x(k) - x(k-1) (+2 for cobalancing).

    O(n) big-integer operations; the reference route the other evaluators
    are compared against. It is the one-term case of stream().
    """
    return next(iter(stream(kind, n, n)))


def qpow(x, y, k: int):
    """The pair (a, b) with a + b*sqrt(2) = (x + y*sqrt(2))**k, k >= 0, in the
    number type of x and y; k = 0 gives the identity (1, 0).

    Left to right over the bits of k: square with two squares and a product,
    (a + b*s)**2 = (a**2 + 2*b**2) + 2ab*s, and on a set bit multiply by the
    base. For a small base such as a Pell unit that multiply is linear time,
    so each bit costs about one squaring in Z[sqrt(2)].
    """
    if k < 0:
        raise ValueError("exponent must be nonnegative, got %d" % k)
    a, b = x - x + 1, y - y  # the identity, in the number type of the base
    for i in range(k.bit_length() - 1, -1, -1):
        a, b = a * a + 2 * (b * b), 2 * (a * b)
        if (k >> i) & 1:
            a, b = a * x + 2 * b * y, a * y + b * x
    return a, b


def term_binet(kind: SequenceKind, n: int, one=1):
    """n-th term from the closed form, expanded exactly in Z[sqrt(2)].

    With (3 + 2*sqrt(2))**n = a + b*sqrt(2) the conjugate power is
    a - b*sqrt(2), so the closed forms collapse to C(n) = a and B(n) = b/2.
    With (1 + sqrt(2))**(2n-1) = p + q*sqrt(2) they give c(n) = p and
    b(n) = (q - 1)/2, in the number type of one: ints, or with one=Decimal(1)
    exact Decimals under exact_context(). The divisibility of the extracted
    coefficients is forced algebraically; it is checked rather than assumed,
    also under python -O, and a violation raises AssertionError.
    """
    _check_index(kind, n)
    _check_exact(one)
    if kind is SequenceKind.BALANCING or kind is SequenceKind.LUCAS_BALANCING:
        a, b = qpow(3 * one, 2 * one, n)
        if kind is SequenceKind.LUCAS_BALANCING:
            return a
        if b % 2:
            raise AssertionError("sqrt(2) coefficient of (3+2*sqrt(2))^n must be even")
        return b // 2
    p, q = qpow(one, one, 2 * n - 1)
    if kind is SequenceKind.LUCAS_COBALANCING:
        return p
    if q % 2 != 1:
        raise AssertionError("sqrt(2) coefficient of (1+sqrt(2))^(2n-1) must be odd")
    return (q - 1) // 2


def _pair_bc(n: int, one):
    """(B(n), C(n)) by fast doubling, in the number type of one.

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
    bn, cn = 0 * one, one  # index k = 0
    for i in range(n.bit_length() - 1, -1, -1):
        bn, cn = 2 * (bn * cn), 2 * (cn * cn) - 1
        if (n >> i) & 1:
            bn, cn = 3 * bn + cn, 8 * bn + 3 * cn
    return bn, cn


def pair_bc(n: int) -> tuple[int, int]:
    """(B(n), C(n)) as ints by fast doubling, two big products per bit of n."""
    _check_index(SequenceKind.BALANCING, n)
    return _pair_bc(n, 1)


def _cobal(big_b, big_c):
    """(b(n), c(n)) from (B(n), C(n)), n >= 1, in their number type.

    The linear bridge b(n) = (C(n) - 2*B(n) - 1)/2 and c(n) = 4*B(n) - C(n)
    follows from the closed forms via (1+sqrt(2))**2 = 3+2*sqrt(2); it is
    cross-checked against the recurrence route in the test suite before
    being trusted here.
    """
    diff = big_c - 2 * big_b - 1
    if diff % 2:
        raise AssertionError("C(n) - 2*B(n) - 1 must be even")
    return (diff // 2, 4 * big_b - big_c)


def pair_cobal(n: int) -> tuple[int, int]:
    """(b(n), c(n)) for n >= 1, derived from pair_bc(n) in O(log n)."""
    _check_index(SequenceKind.COBALANCING, n)
    return _cobal(*pair_bc(n))


def term_of_pair(kind: SequenceKind, big_b, big_c):
    """kind's term at n from (B(n), C(n)), n >= kind.min_index, in their
    number type: B(n) and C(n) themselves, b(n) and c(n) through _cobal."""
    if kind is SequenceKind.BALANCING:
        return big_b
    if kind is SequenceKind.LUCAS_BALANCING:
        return big_c
    small_b, small_c = _cobal(big_b, big_c)
    return small_b if kind is SequenceKind.COBALANCING else small_c


def term_doubling(kind: SequenceKind, n: int, one=1):
    """n-th term by fast doubling: kind's member of (B(n), C(n)) or its bridge.

    With one=1 the term is an int from pair_bc(n). With one=Decimal(1) it is
    an exact Decimal, computed by the same kernel under exact_context().
    """
    _check_index(kind, n)
    _check_exact(one)
    return term_of_pair(kind, *(pair_bc(n) if one.__class__ is int else _pair_bc(n, one)))


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


def walk(kind: SequenceKind, one=1) -> Iterator:
    """kind's terms from index min_index upward, without end, by recurrence
    from its seeds, in the number type of one (1 or Decimal(1))."""
    (x, y), add = kind.seeds, kind.add
    x, y = x * one, y * one
    while True:
        yield x
        x, y = y, 6 * y - x + add if add else 6 * y - x  # + 0 would copy a big int


class Terms:
    """kind's terms start..stop (inclusive) as a sized, re-iterable view, as
    range is of its indices. Each iter() runs one fresh recurrence pass, so
    no list of the terms is ever held; len() is the number of terms."""

    __slots__ = ("kind", "start", "stop", "one")

    def __init__(self, kind: SequenceKind, start: int, stop: int, one) -> None:
        self.kind, self.start, self.stop, self.one = kind, start, stop, one

    def __len__(self) -> int:
        return self.stop - self.start + 1

    def __iter__(self) -> Iterator:
        _check_exact(self.one)  # again: the view may outlive the context it was made in
        lo = self.kind.min_index
        return islice(walk(self.kind, self.one), self.start - lo, self.stop - lo + 1)


def stream(kind: SequenceKind, start: int, stop: int, one=1) -> Terms:
    """The values of kind's terms start..stop (inclusive), in index order,
    one recurrence pass per iteration: ints, or with one=Decimal(1) exact
    Decimals, iterated under exact_context(). list(stream(...)) holds them."""
    check_range(kind, start, stop)
    _check_exact(one)
    return Terms(kind, start, stop, one)


def generator_prefix(kind: SequenceKind, limit: int) -> list[int]:
    """Sequence values <= limit, from index 1 upward (B(0)=0 is excluded:
    the family proper starts at 1 for balancing, 0=b(1) for cobalancing).
    The terms increase, so the recurrence walk stops at the first above limit."""
    terms = islice(walk(kind), 1 - kind.min_index, None)
    return list(takewhile(lambda value: value <= limit, terms))


class TermSource:
    """The four term tables the catalog evaluators read, as t.B[i], t.C[i],
    t.b[i] and t.c[i]: plain dicts from index to term. prefill() fills them
    from min_index up with no gap, for a grid; identities.evaluate() sets
    just the terms its one point reads. A read outside them, below
    min_index included, is a plain KeyError. harness.run_suite() prefills
    one source before it forks any worker, and the workers only read it;
    identities.evaluate() builds its own.
    """

    __slots__ = ("B", "C", "b", "c")

    def __init__(self) -> None:
        self.B, self.C, self.b, self.c = {}, {}, {}, {}

    def prefill(self, tops: dict[str, int]) -> None:
        """Fill each table named in tops (by short symbol) from min_index to
        its top index, from a fresh walk()."""
        for short, top in tops.items():
            kind = parse_kind(short)
            values = islice(walk(kind), max(top + 1 - kind.min_index, 0))
            getattr(self, short).update(enumerate(values, kind.min_index))


_LOG10_2 = math.log10(2)


def decimal_digits(x: int) -> int:
    """Exact decimal digit count without converting x to a string."""
    if x == 0:
        return 1
    x = abs(x)
    est = int((x.bit_length() - 1) * _LOG10_2)  # never overshoots log10(x)
    # 10**e <= x iff 5**e <= x >> e, as 10**e = 5**e * 2**e: exact, and
    # 5**e has about 0.7 of the bits of 10**e.
    while 5 ** (est + 1) <= x >> (est + 1):
        est += 1
    return est + 1


def digits_bound(start: int, stop: int) -> int:
    """Upper bound on the decimal digits of the terms start..stop of any kind.

    Every term at index k is at most C(k) < (3+2*sqrt(2))**k, so it has at
    most k*log10(3+2*sqrt(2)) + 1 digits, and 0.7656 > log10(3+2*sqrt(2)).
    Integer arithmetic, so any size of index is safe to pass.
    """
    count = stop - start + 1
    return (start + stop) * count * 3828 // 10000 + count


# Values up to this many bits are rendered by str(). Above it, CPython's
# quadratic int -> str (before 3.12) loses to the Decimal conversion below,
# import of decimal included (crossover measured near 2^15 bits with
# CPython 3.11 on x86-64).
_STR_MAX_BITS = 1 << 15
_LEAF_BITS = 1024  # at or below this, Decimal(int) converts directly
# No int/str digit limit applies below str_digits_check_threshold (640)
# digits, so str() takes values up to 3 bits per digit of it unchecked.
_ALWAYS_STR_BITS = 3 * getattr(sys.int_info, "str_digits_check_threshold", 0)


def exact_context():
    """A decimal.localcontext in which integer arithmetic is exact or raises.

    Precision and exponent range are unbounded and Inexact and Rounded are
    trapped. decimal_str and the CLI's Decimal terms compute under it;
    entering it returns the context, whose create_decimal(1) seeds them.
    """
    import decimal

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    ctx.traps[decimal.Inexact] = True
    ctx.traps[decimal.Rounded] = True
    return decimal.localcontext(ctx)


def decimal_str(x: int) -> str:
    """str(x), in subquadratic time for large x.

    Every int the CLI prints (but seq's under 640 digits, by str() alike) and
    the harness reports serialize goes through here. A large x is split
    recursively at powers of two, x = hi * 2**h + lo, and rebuilt as a
    decimal.Decimal, whose libmpdec multiply is subquadratic, under
    exact_context(), so the result is exact or the conversion raises.

    str() also refuses values above the process-wide int/str digit limit
    (4300 digits by default; cli.main lifts it while it runs and then puts
    it back), so it is used only while bits <= 3 * limit: a decimal digit
    carries log2(10) > 3 bits.
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

    with exact_context():
        return str(convert(x, bits))
