"""Catalog of equational and congruence statements over the four sequences.

Identities are data, not code paths: each entry bundles a domain predicate
and exact left/right evaluators, and one generic routine evaluates any of
them at given indices. Adding an entry means adding a table row.

Equational entries compare two unbounded integers for equality. Congruence
entries compare residues: the left evaluator returns the actual residue of
the quantity modulo the entry's modulus, the right evaluator the expected
residue (negative expectations are normalized into 0..modulus-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .sequences import DomainError, TermSource

Evaluator = Callable[[TermSource, int, Optional[int]], int]
DomainPredicate = Callable[[int, Optional[int]], bool]

EQUATION = "equation"
CONGRUENCE = "congruence"


class UnknownIdentityError(LookupError):
    """Requested identity id is not in the catalog."""


@dataclass(frozen=True)
class IdentityDescriptor:
    """One verifiable statement about the sequences.

    ident is the stable id used by the CLI and report formats. statement and
    domain_desc are display strings; domain, lhs and rhs are the executable
    forms. modulus is set on congruence entries only. note records a known
    discrepancy between this entry's implemented reading and an alternative
    printed form, where one exists.
    """

    ident: str
    arity: int
    kind: str
    statement: str
    domain_desc: str
    domain: DomainPredicate = field(repr=False)
    lhs: Evaluator = field(repr=False)
    rhs: Evaluator = field(repr=False)
    modulus: Optional[int] = None
    note: Optional[str] = None


@dataclass(frozen=True)
class EvalResult:
    """Outcome of one identity evaluation; holds iff lhs == rhs."""

    ident: str
    n: int
    m: Optional[int]
    lhs: int
    rhs: int
    holds: bool


def _pair(n: int, m: Optional[int]) -> bool:
    return n >= 0 and m >= 0


def _ordered(n: int, m: Optional[int]) -> bool:
    return 0 <= m <= n


def _ordered_parity(n: int, m: Optional[int]) -> bool:
    return 0 <= m <= n and (n - m) % 2 == 0


def _ordered1(n: int, m: Optional[int]) -> bool:
    return 1 <= m <= n


def _strict1(n: int, m: Optional[int]) -> bool:
    return m >= 1 and n > m


def _swapped1(n: int, m: Optional[int]) -> bool:
    return 1 <= n <= m


def _n0(n: int, m: Optional[int]) -> bool:
    return n >= 0


def _n1(n: int, m: Optional[int]) -> bool:
    return n >= 1


_CATALOG: list[IdentityDescriptor] = [
    # --- addition laws and their consequences for B and C -------------------
    IdentityDescriptor(
        "B_ADD", 2, EQUATION,
        "B(n+m) = B(n)*C(m) + B(m)*C(n)",
        "n >= 0, m >= 0",
        _pair,
        lambda t, n, m: t.B(n + m),
        lambda t, n, m: t.B(n) * t.C(m) + t.B(m) * t.C(n),
    ),
    IdentityDescriptor(
        "B_SUB", 2, EQUATION,
        "B(n-m) = B(n)*C(m) - B(m)*C(n)",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: t.B(n - m),
        lambda t, n, m: t.B(n) * t.C(m) - t.B(m) * t.C(n),
    ),
    IdentityDescriptor(
        "B_DIFF_HALF", 2, EQUATION,
        "B(n) - B(m) = 2*B((n-m)/2)*C((n+m)/2)",
        "n >= m >= 0, n and m of the same parity",
        _ordered_parity,
        lambda t, n, m: t.B(n) - t.B(m),
        lambda t, n, m: 2 * t.B((n - m) // 2) * t.C((n + m) // 2),
    ),
    IdentityDescriptor(
        "B_DIFF_EVEN", 2, EQUATION,
        "B(2n) - B(2m) = 2*B(n-m)*C(n+m)",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: t.B(2 * n) - t.B(2 * m),
        lambda t, n, m: 2 * t.B(n - m) * t.C(n + m),
    ),
    IdentityDescriptor(
        "B_2N_MINUS6", 1, EQUATION,
        "B(2n) - 6 = 2*B(n-1)*C(n+1)",
        "n >= 1",
        _n1,
        lambda t, n, m: t.B(2 * n) - 6,
        lambda t, n, m: 2 * t.B(n - 1) * t.C(n + 1),
    ),
    IdentityDescriptor(
        "B_2N_SPLIT", 2, EQUATION,
        "B(2n) = 2*(B(n-m)*C(n+m) + B(m)*C(m))",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: t.B(2 * n),
        lambda t, n, m: 2 * (t.B(n - m) * t.C(n + m) + t.B(m) * t.C(m)),
    ),
    IdentityDescriptor(
        "B_SUM_HALF", 2, EQUATION,
        "B(n) + B(m) = 2*B((n+m)/2)*C((n-m)/2)",
        "n >= m >= 0, n and m of the same parity",
        _ordered_parity,
        lambda t, n, m: t.B(n) + t.B(m),
        lambda t, n, m: 2 * t.B((n + m) // 2) * t.C((n - m) // 2),
    ),
    IdentityDescriptor(
        "B_SUM_EVEN", 2, EQUATION,
        "B(2n) + B(2m) = 2*B(n+m)*C(n-m)",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: t.B(2 * n) + t.B(2 * m),
        lambda t, n, m: 2 * t.B(n + m) * t.C(n - m),
    ),
    IdentityDescriptor(
        "B_SHIFT_ADD", 2, EQUATION,
        "B(n-m)*C(n) + B(n)*C(n-m) = B(2n-m)",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: t.B(n - m) * t.C(n) + t.B(n) * t.C(n - m),
        lambda t, n, m: t.B(2 * n - m),
    ),
    IdentityDescriptor(
        "B_SHIFT_SUB", 2, EQUATION,
        "B(n)*C(n-m) - B(n-m)*C(n) = B(m)",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: t.B(n) * t.C(n - m) - t.B(n - m) * t.C(n),
        lambda t, n, m: t.B(m),
    ),
    # --- half-index and doubled-index laws for C ----------------------------
    IdentityDescriptor(
        "C_SUM_HALF", 2, EQUATION,
        "C(n) + C(m) = 2*C((n+m)/2)*C((n-m)/2)",
        "n >= m >= 0, n and m of the same parity",
        _ordered_parity,
        lambda t, n, m: t.C(n) + t.C(m),
        lambda t, n, m: 2 * t.C((n + m) // 2) * t.C((n - m) // 2),
    ),
    IdentityDescriptor(
        "C_DIFF_HALF", 2, EQUATION,
        "C(n) - C(m) = 16*B((n+m)/2)*B((n-m)/2)",
        "n >= m >= 0, n and m of the same parity",
        _ordered_parity,
        lambda t, n, m: t.C(n) - t.C(m),
        lambda t, n, m: 16 * t.B((n + m) // 2) * t.B((n - m) // 2),
    ),
    IdentityDescriptor(
        "C_SUM_EVEN", 2, EQUATION,
        "C(2n) + C(2m) = 2*C(n+m)*C(n-m)",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: t.C(2 * n) + t.C(2 * m),
        lambda t, n, m: 2 * t.C(n + m) * t.C(n - m),
    ),
    IdentityDescriptor(
        "C_DIFF_EVEN", 2, EQUATION,
        "C(2n) - C(2m) = 16*B(n+m)*B(n-m)",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: t.C(2 * n) - t.C(2 * m),
        lambda t, n, m: 16 * t.B(n + m) * t.B(n - m),
    ),
    IdentityDescriptor(
        "C_ADD", 2, EQUATION,
        "C(n)*C(n-m) + 8*B(n)*B(n-m) = C(2n-m)",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: t.C(n) * t.C(n - m) + 8 * t.B(n) * t.B(n - m),
        lambda t, n, m: t.C(2 * n - m),
    ),
    IdentityDescriptor(
        "C_SUB", 2, EQUATION,
        "C(n)*C(n-m) - 8*B(n)*B(n-m) = C(m)",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: t.C(n) * t.C(n - m) - 8 * t.B(n) * t.B(n - m),
        lambda t, n, m: t.C(m),
    ),
    # --- mixed weighted products ---------------------------------------------
    IdentityDescriptor(
        "CB_MIX_MINUS", 2, EQUATION,
        "16*(C(n)*C(m) - B(n)*B(m)) = 7*C(n+m) + 9*C(n-m)",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: 16 * (t.C(n) * t.C(m) - t.B(n) * t.B(m)),
        lambda t, n, m: 7 * t.C(n + m) + 9 * t.C(n - m),
    ),
    IdentityDescriptor(
        "CB_MIX_PLUS", 2, EQUATION,
        "16*(C(n)*C(m) + B(n)*B(m)) = 9*C(n+m) + 7*C(n-m)",
        "n >= m >= 0",
        _ordered,
        lambda t, n, m: 16 * (t.C(n) * t.C(m) + t.B(n) * t.B(m)),
        lambda t, n, m: 9 * t.C(n + m) + 7 * t.C(n - m),
    ),
    # --- products tying C to the cobalancing pair ----------------------------
    IdentityDescriptor(
        "LC_PROD", 2, EQUATION,
        "C(n+m-1) - C(n-m) = 2*c(n)*c(m)",
        "n >= m >= 1",
        _ordered1,
        lambda t, n, m: t.C(n + m - 1) - t.C(n - m),
        lambda t, n, m: 2 * t.c(n) * t.c(m),
    ),
    IdentityDescriptor(
        "COB_PROD", 2, EQUATION,
        "C(n+m-1) + C(n-m) = 16*b(n)*b(m) + 8*(b(n) + b(m)) + 4",
        "n >= m >= 1",
        _ordered1,
        lambda t, n, m: t.C(n + m - 1) + t.C(n - m),
        lambda t, n, m: 16 * t.b(n) * t.b(m) + 8 * (t.b(n) + t.b(m)) + 4,
    ),
    # --- shift laws for the cobalancing pair ---------------------------------
    IdentityDescriptor(
        "B_COB_DIFF_GT", 2, EQUATION,
        "b(n+m) - b(n-m) = 2*c(n)*B(m)",
        "n > m >= 1",
        _strict1,
        lambda t, n, m: t.b(n + m) - t.b(n - m),
        lambda t, n, m: 2 * t.c(n) * t.B(m),
    ),
    IdentityDescriptor(
        "B_COB_DIFF_LE", 2, EQUATION,
        "b(n+m) - b(m-n+1) = 2*c(n)*B(m)",
        "1 <= n <= m",
        _swapped1,
        lambda t, n, m: t.b(n + m) - t.b(m - n + 1),
        lambda t, n, m: 2 * t.c(n) * t.B(m),
    ),
    IdentityDescriptor(
        "B_COB_SUM_GT", 2, EQUATION,
        "b(n+m) + b(n-m) = 2*b(n)*C(m) + C(m) - 1",
        "n > m >= 1",
        _strict1,
        lambda t, n, m: t.b(n + m) + t.b(n - m),
        lambda t, n, m: 2 * t.b(n) * t.C(m) + t.C(m) - 1,
    ),
    IdentityDescriptor(
        "B_COB_SUM_LE", 2, EQUATION,
        "b(n+m) + b(m-n+1) = 2*b(n)*C(m) + C(m) - 1",
        "1 <= n <= m",
        _swapped1,
        lambda t, n, m: t.b(n + m) + t.b(m - n + 1),
        lambda t, n, m: 2 * t.b(n) * t.C(m) + t.C(m) - 1,
        note=(
            "This law is sometimes printed with a minus on the left, "
            "b(n+m) - b(m-n+1), but the underlying derivation and direct "
            "numeric evaluation (n=1, m=2: 14 + 2 = 2*0*17 + 17 - 1) both "
            "require the plus implemented here; the minus reading fails "
            "already at that point."
        ),
    ),
    IdentityDescriptor(
        "LC_SUM_GT", 2, EQUATION,
        "c(n+m) + c(n-m) = 2*c(n)*C(m)",
        "n > m >= 1",
        _strict1,
        lambda t, n, m: t.c(n + m) + t.c(n - m),
        lambda t, n, m: 2 * t.c(n) * t.C(m),
    ),
    IdentityDescriptor(
        "LC_SUM_LE", 2, EQUATION,
        "c(n+m) - c(m-n+1) = 2*c(n)*C(m)",
        "1 <= n <= m",
        _swapped1,
        lambda t, n, m: t.c(n + m) - t.c(m - n + 1),
        lambda t, n, m: 2 * t.c(n) * t.C(m),
    ),
    IdentityDescriptor(
        "C2N_PLUS1", 1, EQUATION,
        "c(2n) + 1 = 8*(2*b(n) + 1)*B(n)",
        "n >= 1",
        _n1,
        lambda t, n, m: t.c(2 * n) + 1,
        lambda t, n, m: 8 * (2 * t.b(n) + 1) * t.B(n),
    ),
    # --- parity and divisibility ----------------------------------------------
    IdentityDescriptor(
        "PARITY_B", 1, CONGRUENCE,
        "B(n) == n (mod 2)",
        "n >= 0",
        _n0,
        lambda t, n, m: t.B(n) % 2,
        lambda t, n, m: n % 2,
        modulus=2,
    ),
    IdentityDescriptor(
        "ODD_C", 1, CONGRUENCE,
        "C(n) == 1 (mod 2)",
        "n >= 0",
        _n0,
        lambda t, n, m: t.C(n) % 2,
        lambda t, n, m: 1,
        modulus=2,
    ),
    IdentityDescriptor(
        "MOD16_C", 2, CONGRUENCE,
        "C(n) - C(m) == 0 (mod 16)",
        "n >= m >= 0, n and m of the same parity",
        _ordered_parity,
        lambda t, n, m: (t.C(n) - t.C(m)) % 16,
        lambda t, n, m: 0,
        modulus=16,
    ),
    IdentityDescriptor(
        "MOD4_CSUM", 1, CONGRUENCE,
        "C(n-1) + C(n) == 0 (mod 4)",
        "n >= 1",
        _n1,
        lambda t, n, m: (t.C(n - 1) + t.C(n)) % 4,
        lambda t, n, m: 0,
        modulus=4,
    ),
    IdentityDescriptor(
        "EVEN_b", 1, CONGRUENCE,
        "b(n) == 0 (mod 2)",
        "n >= 1",
        _n1,
        lambda t, n, m: t.b(n) % 2,
        lambda t, n, m: 0,
        modulus=2,
    ),
    IdentityDescriptor(
        "MOD4_bDIFF", 1, CONGRUENCE,
        "b(2n+1) - b(2n) == 0 (mod 4)",
        "n >= 1",
        _n1,
        lambda t, n, m: (t.b(2 * n + 1) - t.b(2 * n)) % 4,
        lambda t, n, m: 0,
        modulus=4,
    ),
    IdentityDescriptor(
        "ODD_c", 1, CONGRUENCE,
        "c(n) == 1 (mod 2)",
        "n >= 1",
        _n1,
        lambda t, n, m: t.c(n) % 2,
        lambda t, n, m: 1,
        modulus=2,
    ),
    IdentityDescriptor(
        "MOD8_c", 1, CONGRUENCE,
        "c(2n) == -1 (mod 8)",
        "n >= 1",
        _n1,
        lambda t, n, m: t.c(2 * n) % 8,
        lambda t, n, m: -1 % 8,
        modulus=8,
    ),
    IdentityDescriptor(
        "MOD16_c", 1, CONGRUENCE,
        "c(4n) == -1 (mod 16)",
        "n >= 1",
        _n1,
        lambda t, n, m: t.c(4 * n) % 16,
        lambda t, n, m: -1 % 16,
        modulus=16,
    ),
]

_BY_ID = {d.ident: d for d in _CATALOG}
if len(_BY_ID) != len(_CATALOG):
    raise AssertionError("identity ids must be unique")

# Shared default cache for one-off evaluations; harness runs build their own.
_DEFAULT_TERMS = TermSource()


def list_identities() -> list[IdentityDescriptor]:
    """All catalog entries in stable order (equations first, then congruences)."""
    return list(_CATALOG)


def lookup(ident: str) -> IdentityDescriptor:
    try:
        return _BY_ID[ident]
    except KeyError:
        raise UnknownIdentityError("unknown identity id %r" % ident) from None


def _check_arity(desc: IdentityDescriptor, m: Optional[int]) -> None:
    if desc.arity == 2 and m is None:
        raise DomainError("%s takes two indices (n, m)" % desc.ident)
    if desc.arity == 1 and m is not None:
        raise DomainError("%s takes a single index n" % desc.ident)


def domain_check(ident: str, n: int, m: Optional[int] = None) -> bool:
    """True iff (n, m) satisfies the identity's domain predicate."""
    desc = lookup(ident)
    _check_arity(desc, m)
    return desc.domain(n, m)


def evaluate(
    ident: str,
    n: int,
    m: Optional[int] = None,
    terms: Optional[TermSource] = None,
) -> EvalResult:
    """Evaluate both sides exactly at (n, m); out-of-domain inputs are errors.

    Refusing out-of-domain inputs (instead of skipping them quietly) lets
    callers distinguish "skipped by domain" from "evaluated and failed".
    """
    desc = lookup(ident)
    _check_arity(desc, m)
    if not desc.domain(n, m):
        raise DomainError(
            "(n=%s, m=%s) is outside the domain of %s (%s)"
            % (n, m, ident, desc.domain_desc)
        )
    src = terms if terms is not None else _DEFAULT_TERMS
    lhs = desc.lhs(src, n, m)
    rhs = desc.rhs(src, n, m)
    return EvalResult(ident, n, m, lhs, rhs, lhs == rhs)
