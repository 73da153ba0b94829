"""Ground truth from the defining equations, independent of the generators.

A positive integer x is balancing when 1 + 2 + ... + (x-1) equals
(x+1) + ... + (x+r) for some r >= 0, equivalently when 8*x**2 + 1 is a
perfect square (1 is accepted as the degenerate first member). A
nonnegative x is cobalancing when 1 + 2 + ... + x = (x+1) + ... + (x+r),
equivalently when 8*x**2 + 8*x + 1 is a perfect square (0 is accepted as
the first member).

Everything here works by perfect-square tests and explicit summation
witnesses, never by recurrences or closed forms, so these routines can act
as a slow independent check on the sequences module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sequences import DomainError, SequenceKind


@dataclass(frozen=True)
class BalancerWitness:
    """A solved instance of the defining sum equation.

    n is the balancing (or cobalancing) number, r its balancer (cobalancer),
    and left_sum/right_sum the two sides of the equation, kept so callers
    can re-verify the balance independently. r == 0 appears only for the
    degenerate members (balancing 1, cobalancing 0).
    """

    n: int
    r: int
    left_sum: int
    right_sum: int

    def __post_init__(self) -> None:
        # Explicit raises, not asserts: the check must hold under python -O.
        if self.r < 0:
            raise AssertionError("balancer must be nonnegative")
        if self.left_sum != self.right_sum:
            raise AssertionError(
                "witness sums differ for n=%d, r=%d: %d != %d"
                % (self.n, self.r, self.left_sum, self.right_sum)
            )


def isqrt(x: int) -> int:
    """Floor square root by integer-only Newton iteration.

    Starts from a power of two just above sqrt(x) (via the bit length) and
    iterates x -> (x + n//x)//2, which decreases monotonically once above
    the root; a final correction enforces the defining inequality
    result**2 <= x < (result+1)**2.
    """
    if x < 0:
        raise DomainError("square root of negative number %d" % x)
    if x < 2:
        return x
    r = 1 << (x.bit_length() + 1) // 2
    while True:
        nxt = (r + x // r) // 2
        if nxt >= r:
            break
        r = nxt
    while r * r > x:  # at most one step; kept as a loop for safety
        r -= 1
    return r


def _is_square(x: int) -> bool:
    if x < 0:
        return False
    r = isqrt(x)
    return r * r == x


def is_balancing(x: int) -> bool:
    """True iff x >= 1 and 8*x**2 + 1 is a perfect square."""
    return x >= 1 and _is_square(8 * x * x + 1)


def is_cobalancing(x: int) -> bool:
    """True iff x >= 0 and 8*x**2 + 8*x + 1 is a perfect square."""
    return x >= 0 and _is_square(8 * x * x + 8 * x + 1)


def is_triangular(x: int) -> bool:
    """True iff x = k*(k+1)/2 for some k >= 0, i.e. 8*x + 1 is a square."""
    return x >= 0 and _is_square(8 * x + 1)


def balancer_of(x: int) -> BalancerWitness:
    """Witness for a balancing number: r with 1+...+(x-1) = (x+1)+...+(x+r).

    Summing both sides gives r = (-(2x+1) + sqrt(8x^2+1)) / 2. Because that
    formula is derived, the witness re-checks the sum equality with the
    closed forms x(x-1)/2 and r*x + r(r+1)/2 and fails loudly on mismatch.
    """
    if not is_balancing(x):
        raise DomainError("%d is not a balancing number" % x)
    root = isqrt(8 * x * x + 1)
    r = (-(2 * x + 1) + root) // 2
    return BalancerWitness(
        n=x,
        r=r,
        left_sum=x * (x - 1) // 2,
        right_sum=r * x + r * (r + 1) // 2,
    )


def cobalancer_of(x: int) -> BalancerWitness:
    """Witness for a cobalancing number: r with 1+...+x = (x+1)+...+(x+r)."""
    if not is_cobalancing(x):
        raise DomainError("%d is not a cobalancing number" % x)
    root = isqrt(8 * x * x + 8 * x + 1)
    r = (-(2 * x + 1) + root) // 2
    return BalancerWitness(
        n=x,
        r=r,
        left_sum=x * (x + 1) // 2,
        right_sum=r * x + r * (r + 1) // 2,
    )


def search_family(family: SequenceKind, limit: int) -> list[int]:
    """All balancing or cobalancing numbers <= limit by brute-force scan.

    Deliberately O(limit) with a per-candidate square test: this is the
    trusted slow oracle the fast generators are compared against, so it
    must stay naive.
    """
    if family is SequenceKind.BALANCING:
        return [x for x in range(1, limit + 1) if is_balancing(x)]
    if family is SequenceKind.COBALANCING:
        return [x for x in range(0, limit + 1) if is_cobalancing(x)]
    raise DomainError(
        "search_family handles balancing or cobalancing, got %s" % family.value
    )
