"""Exact arithmetic in the quadratic integer ring Z[sqrt(2)].

A value is a pair (a, b) of unbounded integers standing for a + b*sqrt(2).
Powers of the Pell units 3 + 2*sqrt(2) and 1 + sqrt(2) therefore expand
exactly at any exponent, which is what lets the closed forms for the
balancing-family sequences be evaluated without any floating point.
"""

from __future__ import annotations


class QuadInt:
    """Element a + b*sqrt(2) of Z[sqrt(2)].

    The (a, b) representation is canonical: two elements are equal iff both
    components are equal.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return "QuadInt(a=%r, b=%r)" % (self.a, self.b)

    def __add__(self, other: QuadInt) -> QuadInt:
        return QuadInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: QuadInt) -> QuadInt:
        return QuadInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> QuadInt:
        return QuadInt(-self.a, -self.b)

    def __mul__(self, other: QuadInt) -> QuadInt:
        # (a1 + b1*s)(a2 + b2*s) with s^2 = 2
        return QuadInt(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __pow__(self, k: int) -> QuadInt:
        # Left to right over the bits of k: square with three products,
        # (a + b*s)^2 = (a^2 + 2b^2) + 2ab*s, and on a set bit multiply by
        # self. For a small base such as a Pell unit that multiply is linear
        # time, so each bit costs about one big squaring.
        if k < 0:
            raise ValueError("exponent must be nonnegative, got %d" % k)
        x, y = self.a, self.b
        a, b = 1, 0
        for i in range(k.bit_length() - 1, -1, -1):
            a, b = a * a + 2 * b * b, 2 * a * b
            if (k >> i) & 1:
                a, b = a * x + 2 * b * y, a * y + b * x
        return QuadInt(a, b)

    def conj(self) -> QuadInt:
        """Conjugate a + b*sqrt(2) -> a - b*sqrt(2); a ring homomorphism."""
        return QuadInt(self.a, -self.b)

    def norm(self) -> int:
        """Field norm a^2 - 2*b^2; multiplicative over products."""
        return self.a * self.a - 2 * self.b * self.b

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}*sqrt(2)"


ONE = QuadInt(1, 0)

# Fundamental solution of x^2 - 8*y^2 = 1 and its conjugate: norm 1 units.
LAMBDA1 = QuadInt(3, 2)
LAMBDA2 = QuadInt(3, -2)

# Fundamental unit of Z[sqrt(2)] and its conjugate: norm -1.
ALPHA1 = QuadInt(1, 1)
ALPHA2 = QuadInt(1, -1)


def qpow(x: QuadInt, k: int) -> QuadInt:
    """x**k for k >= 0 by square-and-multiply; qpow(x, 0) is the identity."""
    return x ** k
