"""Ground truth from the defining equations, independent of the generators.

A positive integer x is balancing when 1 + 2 + ... + (x-1) equals
(x+1) + ... + (x+r) for some r >= 0, equivalently when 8*x**2 + 1 is a
perfect square (1 is accepted as the degenerate first member). A
nonnegative x is cobalancing when 1 + 2 + ... + x = (x+1) + ... + (x+r),
equivalently when 8*x**2 + 8*x + 1 is a perfect square (0 is accepted as
the first member).

Everything here works by perfect-square tests and explicit summation
witnesses, never by recurrences or closed forms, so these routines can act
as an independent check on the sequences module. The search still gives
every candidate a verdict, in order. It walks the candidates in blocks,
one bit per candidate, and ANDs per block residue rows built from the
squares mod 63, 65 and 11 and mod each prime from 17 to 59. A candidate
rejected by a row is a non-square mod one of those moduli. Each survivor
is confirmed by square_root. This is the table-driven square test
of H. Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
1993, section 1.7, applied to a block at a time.

square_root is the one exact square test: the scan's survivors, the
witnesses and is_lucas (the Lucas-balancing and Lucas-cobalancing root
conditions, which classify uses) all call it.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from .sequences import DomainError, SequenceKind


class BalancerWitness:
    """A solved instance of the defining sum equation.

    n is the balancing (or cobalancing) number, r its balancer (cobalancer),
    and left_sum/right_sum the two sides of the equation, kept so callers
    can re-verify the balance independently. r == 0 appears only for the
    degenerate members (balancing 1, cobalancing 0).
    """

    __slots__ = ("n", "r", "left_sum", "right_sum")

    def __init__(self, n: int, r: int, left_sum: int, right_sum: int) -> None:
        self.n = n
        self.r = r
        self.left_sum = left_sum
        self.right_sum = right_sum
        # Explicit raises, not asserts: the check must hold under python -O.
        if self.r < 0:
            raise AssertionError("balancer must be nonnegative")
        if self.left_sum != self.right_sum:
            raise AssertionError(
                "witness sums differ for n=%d, r=%d: %d != %d"
                % (self.n, self.r, self.left_sum, self.right_sum)
            )

    def _key(self) -> tuple:
        return (self.n, self.r, self.left_sum, self.right_sum)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "BalancerWitness(n=%r, r=%r, left_sum=%r, right_sum=%r)" % self._key()


class _NotMember(DomainError):
    # Formatted only when shown: classify catches one for every non-member,
    # and rendering a huge x costs time and trips the int/str digit limit.
    def __str__(self) -> str:
        return "%d is not a %s number" % self.args


def isqrt(x: int) -> int:
    """Floor square root: the r with r**2 <= x < (r+1)**2.

    math.isqrt with a DomainError for negative x. Every square root the
    oracle takes goes through here, by way of square_root.
    """
    if x < 0:
        raise DomainError("square root of negative number %d" % x)
    return math.isqrt(x)


def square_root(t: int) -> Optional[int]:
    """The root r of t if t = r**2 is a perfect square, else None.

    The one square test of balkit, through the module global isqrt, so a
    negative t raises DomainError.
    """
    r = isqrt(t)
    return r if r * r == t else None


# Each family the oracle decides: a in its witness polynomial 8*x**2 + a*x + 1,
# and its least member.
_FAMILIES = {SequenceKind.BALANCING: (0, 1), SequenceKind.COBALANCING: (8, 0)}


def _witness(x: int, kind: SequenceKind) -> BalancerWitness:
    """The witness r for x in kind's family, whose members are the x >= lo
    with 8*x**2 + a*x + 1 a perfect square, (a, lo) its row of _FAMILIES.

    Balancing numbers have left sum 1+...+(x-1), cobalancing numbers
    1+...+x. Summing both sides gives r = (-(2x+1) + sqrt(8x^2+ax+1)) / 2,
    so the one square root both decides membership and gives r. Because
    the formula is derived, the witness re-checks the sum equality with the
    closed forms of both sums and fails loudly on mismatch.
    """
    a, lo = _FAMILIES[kind]
    root = square_root(8 * x * x + a * x + 1)  # the polynomial is >= 1 for every integer x
    if x < lo or root is None:
        raise _NotMember(x, kind.value)
    r = (-(2 * x + 1) + root) // 2
    return BalancerWitness(
        n=x,
        r=r,
        left_sum=x * (x - 1 if a == 0 else x + 1) // 2,
        right_sum=r * x + r * (r + 1) // 2,
    )


def balancer_of(x: int) -> BalancerWitness:
    """Witness for a balancing number: r with 1+...+(x-1) = (x+1)+...+(x+r)."""
    return _witness(x, SequenceKind.BALANCING)


def cobalancer_of(x: int) -> BalancerWitness:
    """Witness for a cobalancing number: r with 1+...+x = (x+1)+...+(x+r)."""
    return _witness(x, SequenceKind.COBALANCING)


# The Lucas families' root conditions, as (d, q): an odd x > 0 is a term of
# the family iff (x**2 - d)/q is a square. x = C(k) iff (x**2 - 1)/8 is one,
# as every solution of x**2 - 8*y**2 = 1 is (C(k), B(k)); x = c(k) iff
# (x**2 + 1)/2 is one, as then x**2 = 8*b**2 + 8*b + 1 with 2b + 1 its root.
_LUCAS = {SequenceKind.LUCAS_BALANCING: (1, 8), SequenceKind.LUCAS_COBALANCING: (-1, 2)}


def is_lucas(kind: SequenceKind, x: int) -> bool:
    """Whether x is a term of kind, LUCAS_BALANCING or LUCAS_COBALANCING,
    by its root condition in _LUCAS: one square root for an odd x > 0, and
    none for any other x, as every term of both is odd and positive."""
    d, q = _LUCAS[kind]
    return x > 0 and x % 2 == 1 and square_root((x * x - d) // q) is not None


# A square is a square residue modulo every modulus. Each group's product is
# the period of one row of the sieve: bit x is 1 iff 8*x**2 + a*x + 1 is a
# square residue mod every modulus of the group. The first group is the
# table of Cohen (GTM 138, section 1.7); the primes 17..59 after it leave 41
# balancing and 59 cobalancing survivors in the first 10**6 candidates. Mod
# 64 would reject none: the scanned values are all 1 mod 8, and each such
# value is a square residue mod 64.
_GROUPS = ((63, 65, 11), (17, 19, 23), (29, 31), (37, 41), (43, 47), (53, 59))
_BLOCK = 8192  # candidates per block; a block's window never wraps its row


def _square_residues(p: int) -> set[int]:
    return {k * k % p for k in range(p)}


@functools.cache
def _rows(a: int) -> tuple[tuple[int, int], ...]:
    """(period, row) per group of _GROUPS for 8*x**2 + a*x + 1.

    Bit x of row is 1 iff the polynomial at x is a square residue mod every
    modulus of the group, for x below period + _BLOCK: one period, extended
    by a block, so one shift gives the window of any block. Each modulus
    gives a bit string of length p, repeated to that length, and the
    strings are ANDed as ints. Built on the first search of each family,
    not at import.
    """
    rows = []
    for group in _GROUPS:
        period = math.prod(group)
        size = period + _BLOCK
        acc = -1
        for p in group:
            squares = _square_residues(p)
            # Most significant bit first, so the last character is x = 0.
            bits = "".join("01"[(8 * x * x + a * x + 1) % p in squares] for x in reversed(range(p)))
            acc &= int((bits * (size // p + 1))[-size:], 2)
        rows.append((period, acc))
    return tuple(rows)


def _scan(a: int, start: int, limit: int) -> list[int]:
    # x in start..limit with 8*x**2 + a*x + 1 a perfect square, in order.
    # Bit i of live stands for x = lo + i and stays set only if every row
    # admits x; only those x get the exact square test.
    rows = _rows(a)
    out = []
    for lo in range(start, limit + 1, _BLOCK):
        live = (1 << min(_BLOCK, limit + 1 - lo)) - 1
        for period, row in rows:
            live &= row >> (lo % period)
        while live:
            low = live & -live
            live ^= low
            x = lo + low.bit_length() - 1
            if square_root(8 * x * x + a * x + 1) is not None:
                out.append(x)
    return out


# Largest limit search_family accepts. A scan to 10**8 took 0.12-0.15 s,
# about 1.4 ns per candidate (2-core x86-64 VM, CPython 3.11), so the cap
# is about 1.5 s of scanning; that figure for 10**9 is extrapolated, not
# measured. The fast generators have no cap.
SEARCH_LIMIT_MAX = 10**9


def search_family(family: SequenceKind, limit: int) -> list[int]:
    """All balancing or cobalancing numbers <= limit by brute-force scan.

    Deliberately O(limit): this is the trusted slow oracle the fast
    generators are compared against, so every candidate is looked at, in
    order. The residue rows reject each candidate whose polynomial is a
    non-square mod one of their moduli. Of the first 10**6 candidates, 41
    balancing and 59 cobalancing ones survive, the members among them, and
    only the survivors get square_root. A limit above
    SEARCH_LIMIT_MAX raises DomainError before anything is scanned.
    """
    if limit > SEARCH_LIMIT_MAX:
        raise DomainError(
            "oracle search limit must be <= %d, got %d" % (SEARCH_LIMIT_MAX, limit)
        )
    if family not in _FAMILIES:
        raise DomainError("search_family handles balancing or cobalancing, got %s" % family.value)
    return _scan(*_FAMILIES[family], limit)
