"""Catalog of equational and congruence statements over the four sequences.

Identities are data, not code paths: an entry is its printed statement plus
its printed domain. The exact left/right evaluators are compiled from the
statement when this module is imported, and the domain's arity and index
ranges come from one table of domains, so what is printed is what gets
checked. An evaluator reads its terms by subscript from the four plain dict
tables of a TermSource, t.B[i], t.C[i], t.b[i] and t.c[i], and calls
nothing; evaluate() and the harness prefill them to the tops term_tops()
gives for the kinds their entries read. One generic routine evaluates any
entry at given indices. Adding an entry means adding a table row.

Equational entries ("L = R") compare two unbounded integers for equality.
Congruence entries ("L == R (mod k)") compare residues: the left evaluator
returns the actual residue of L modulo k, the right evaluator the expected
residue (negative expectations are normalized into 0..k-1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .sequences import DomainError, SequenceKind, TermSource, UnknownIdentityError, digits_bound

Evaluator = Callable[[TermSource, int, Optional[int]], int]
DomainRange = Callable[[int, int], Sequence[Optional[int]]]

EQUATION = "equation"
CONGRUENCE = "congruence"


@dataclass(frozen=True)
class IdentityDescriptor:
    """One verifiable statement about the sequences.

    ident is the stable id used by the CLI and report formats. statement and
    domain_desc are the printed forms an entry is written as; every other
    field is derived from them. lhs and rhs are compiled from statement,
    arity and indices are looked up from domain_desc, and domain(n, m) is
    the membership test read off indices. reads holds the symbols of the
    kinds the statement reads, in "BCbc" order. kind and modulus come from
    the statement's form; modulus is set on congruence entries only. note
    records a known discrepancy between this entry's implemented reading
    and an alternative printed form, where one exists.
    """

    ident: str
    arity: int
    kind: str
    statement: str
    domain_desc: str
    indices: DomainRange = field(repr=False)
    lhs: Evaluator = field(repr=False)
    rhs: Evaluator = field(repr=False)
    reads: str
    modulus: Optional[int] = None
    note: Optional[str] = None

    def domain(self, n: int, m: Optional[int]) -> bool:
        # Any hi that reaches the tested index gives the same answer.
        return m in self.indices(n, max(n, m or 0, 0))


@dataclass(frozen=True, slots=True)
class EvalResult:
    """Outcome of one evaluated case.

    evaluate() and the harness grid set holds iff lhs == rhs. For congruence
    entries lhs is the actual residue and rhs the expected one. The harness
    also records failed method and oracle comparisons as holds=False cases.
    """

    ident: str
    n: int
    m: Optional[int]
    lhs: int
    rhs: int
    holds: bool


_PARITY = "n >= m >= 0, n and m of the same parity"

# Printed domain -> (arity, in-domain m of row n). Every entry takes (n, hi)
# for 0 <= n <= hi. A binary entry gives the m in 0..hi with (n, m) in the
# domain; a unary entry gives (None,) if n is in the domain, else ().
_DOMAINS: dict[str, tuple[int, DomainRange]] = {
    "n >= 0, m >= 0": (2, lambda n, hi: range(hi + 1 if n >= 0 else 0)),
    "n >= m >= 0": (2, lambda n, hi: range(min(n, hi) + 1)),
    _PARITY: (2, lambda n, hi: range(n % 2, min(n, hi) + 1, 2)),
    "n >= m >= 1": (2, lambda n, hi: range(1, min(n, hi) + 1)),
    "n > m >= 1": (2, lambda n, hi: range(1, min(n, hi + 1))),
    "1 <= n <= m": (2, lambda n, hi: range(n, hi + 1) if n >= 1 else range(0)),
    "n >= 0": (1, lambda n, hi: (None,) if n >= 0 else ()),
    "n >= 1": (1, lambda n, hi: (None,) if n >= 1 else ()),
}

_CONGRUENCE_FORM = re.compile(r"(.+) == (.+) \(mod ([1-9][0-9]*)\)")
# A side alternates operands and the binary operators + - * /. An operand is
# one atom (an integer, n, m, or an integer times n or m written as 2n) after
# any run of "(", "-", "B(", "C(", "b(" and "c(" and before any run of ")";
# compile() then checks that the parentheses pair up.
_OPERAND = r"(?:[-(]|[BCbc]\()*(?:[0-9]+[nm]?|[nm])\)*"
_SIDE = re.compile(r"{0}(?: *[-+*/] *{0})*".format(_OPERAND))


def _subscripts(src: str) -> str:
    """src with the parentheses of each B( ... ) made brackets, B[ ... ].

    Parentheses pair up by nesting; an unpaired ")" is left for compile()
    to refuse.
    """
    out, reads = [], []
    for prev, ch in zip(" " + src, src):
        if ch == "(":
            reads.append(prev in "BCbc")
            ch = "[" if reads[-1] else ch
        elif ch == ")" and reads:
            ch = "]" if reads.pop() else ch
        out.append(ch)
    return "".join(out)


def _evaluator(ident: str, side: str, modulus: Optional[int]) -> Evaluator:
    """Compile one printed side into lambda t, n, m over a TermSource t.

    2n becomes 2*n, (n-m)/2 becomes (n-m)//2 and B(i) becomes the subscript
    t.B[i], so evaluating a side calls nothing; a congruence side is reduced
    modulo its modulus. A side outside the grammar raises ValueError. The
    lambda sees no builtins.
    """
    if _SIDE.fullmatch(side):
        src = re.sub(r"([0-9])([nm])", r"\1*\2", side).replace("/", "//")
        src = re.sub(r"([BCbc])\[", r"t.\1[", _subscripts(src))
        if modulus is not None:
            src = "(%s) %% %d" % (src, modulus)
        try:
            code = compile("lambda t, n, m: " + src, "<identity %s>" % ident, "eval")
        except SyntaxError:
            pass
        else:
            return eval(code, {"__builtins__": {}})
    raise ValueError("%s: %r is outside the statement grammar" % (ident, side))


def _entry(
    ident: str, statement: str, domain: str, note: Optional[str] = None
) -> IdentityDescriptor:
    """Build a catalog entry from its printed statement and printed domain."""
    arity, indices = _DOMAINS[domain]
    congruence = _CONGRUENCE_FORM.fullmatch(statement)
    if congruence:
        lhs, rhs, k = congruence.groups()
        kind, modulus = CONGRUENCE, int(k)
    else:
        sides = statement.split(" = ")
        if len(sides) != 2:
            raise ValueError(
                "%s: %r is neither 'L = R' nor 'L == R (mod k)'" % (ident, statement))
        (lhs, rhs), kind, modulus = sides, EQUATION, None
    return IdentityDescriptor(
        ident, arity, kind, statement, domain, indices,
        _evaluator(ident, lhs, modulus), _evaluator(ident, rhs, modulus),
        "".join(k for k in "BCbc" if k + "(" in statement), modulus, note,
    )


_CATALOG: list[IdentityDescriptor] = [
    # --- addition laws and their consequences for B and C -------------------
    _entry("B_ADD", "B(n+m) = B(n)*C(m) + B(m)*C(n)", "n >= 0, m >= 0"),
    _entry("B_SUB", "B(n-m) = B(n)*C(m) - B(m)*C(n)", "n >= m >= 0"),
    _entry("B_DIFF_HALF", "B(n) - B(m) = 2*B((n-m)/2)*C((n+m)/2)", _PARITY),
    _entry("B_DIFF_EVEN", "B(2n) - B(2m) = 2*B(n-m)*C(n+m)", "n >= m >= 0"),
    _entry("B_2N_MINUS6", "B(2n) - 6 = 2*B(n-1)*C(n+1)", "n >= 1"),
    _entry("B_2N_SPLIT", "B(2n) = 2*(B(n-m)*C(n+m) + B(m)*C(m))", "n >= m >= 0"),
    _entry("B_SUM_HALF", "B(n) + B(m) = 2*B((n+m)/2)*C((n-m)/2)", _PARITY),
    _entry("B_SUM_EVEN", "B(2n) + B(2m) = 2*B(n+m)*C(n-m)", "n >= m >= 0"),
    _entry("B_SHIFT_ADD", "B(n-m)*C(n) + B(n)*C(n-m) = B(2n-m)", "n >= m >= 0"),
    _entry("B_SHIFT_SUB", "B(n)*C(n-m) - B(n-m)*C(n) = B(m)", "n >= m >= 0"),
    # --- half-index and doubled-index laws for C ----------------------------
    _entry("C_SUM_HALF", "C(n) + C(m) = 2*C((n+m)/2)*C((n-m)/2)", _PARITY),
    _entry("C_DIFF_HALF", "C(n) - C(m) = 16*B((n+m)/2)*B((n-m)/2)", _PARITY),
    _entry("C_SUM_EVEN", "C(2n) + C(2m) = 2*C(n+m)*C(n-m)", "n >= m >= 0"),
    _entry("C_DIFF_EVEN", "C(2n) - C(2m) = 16*B(n+m)*B(n-m)", "n >= m >= 0"),
    _entry("C_ADD", "C(n)*C(n-m) + 8*B(n)*B(n-m) = C(2n-m)", "n >= m >= 0"),
    _entry("C_SUB", "C(n)*C(n-m) - 8*B(n)*B(n-m) = C(m)", "n >= m >= 0"),
    # --- mixed weighted products ---------------------------------------------
    _entry("CB_MIX_MINUS", "16*(C(n)*C(m) - B(n)*B(m)) = 7*C(n+m) + 9*C(n-m)", "n >= m >= 0"),
    _entry("CB_MIX_PLUS", "16*(C(n)*C(m) + B(n)*B(m)) = 9*C(n+m) + 7*C(n-m)", "n >= m >= 0"),
    # --- products tying C to the cobalancing pair ----------------------------
    _entry("LC_PROD", "C(n+m-1) - C(n-m) = 2*c(n)*c(m)", "n >= m >= 1"),
    _entry("COB_PROD", "C(n+m-1) + C(n-m) = 16*b(n)*b(m) + 8*(b(n) + b(m)) + 4", "n >= m >= 1"),
    # --- shift laws for the cobalancing pair ---------------------------------
    _entry("B_COB_DIFF_GT", "b(n+m) - b(n-m) = 2*c(n)*B(m)", "n > m >= 1"),
    _entry("B_COB_DIFF_LE", "b(n+m) - b(m-n+1) = 2*c(n)*B(m)", "1 <= n <= m"),
    _entry("B_COB_SUM_GT", "b(n+m) + b(n-m) = 2*b(n)*C(m) + C(m) - 1", "n > m >= 1"),
    _entry(
        "B_COB_SUM_LE", "b(n+m) + b(m-n+1) = 2*b(n)*C(m) + C(m) - 1", "1 <= n <= m",
        note=(
            "This law is sometimes printed with a minus on the left, "
            "b(n+m) - b(m-n+1), but the underlying derivation and direct "
            "numeric evaluation (n=1, m=2: 14 + 2 = 2*0*17 + 17 - 1) both "
            "require the plus implemented here; the minus reading fails "
            "already at that point."
        ),
    ),
    _entry("LC_SUM_GT", "c(n+m) + c(n-m) = 2*c(n)*C(m)", "n > m >= 1"),
    _entry("LC_SUM_LE", "c(n+m) - c(m-n+1) = 2*c(n)*C(m)", "1 <= n <= m"),
    _entry("C2N_PLUS1", "c(2n) + 1 = 8*(2*b(n) + 1)*B(n)", "n >= 1"),
    # --- parity and divisibility ----------------------------------------------
    _entry("PARITY_B", "B(n) == n (mod 2)", "n >= 0"),
    _entry("ODD_C", "C(n) == 1 (mod 2)", "n >= 0"),
    _entry("MOD16_C", "C(n) - C(m) == 0 (mod 16)", _PARITY),
    _entry("MOD4_CSUM", "C(n-1) + C(n) == 0 (mod 4)", "n >= 1"),
    _entry("EVEN_b", "b(n) == 0 (mod 2)", "n >= 1"),
    _entry("MOD4_bDIFF", "b(2n+1) - b(2n) == 0 (mod 4)", "n >= 1"),
    _entry("ODD_c", "c(n) == 1 (mod 2)", "n >= 1"),
    _entry("MOD8_c", "c(2n) == -1 (mod 8)", "n >= 1"),
    _entry("MOD16_c", "c(4n) == -1 (mod 16)", "n >= 1"),
]

_BY_ID = {d.ident: d for d in _CATALOG}
if len(_BY_ID) != len(_CATALOG):
    raise AssertionError("identity ids must be unique")


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
    """True iff (n, m) lies in the identity's domain."""
    desc = lookup(ident)
    _check_arity(desc, m)
    return desc.domain(n, m)


# term_tops refuses terms of more than this many digits in all (about 12 MB
# of ints): the full catalog at max_n 1239, the largest the harness's cell
# cap allows, has 2.4e7, and PARITY_B alone reaches it near max_n 4400.
TERM_DIGITS_MAX = 3 * 10**7


def term_tops(entries: Iterable[IdentityDescriptor], max_n: int) -> dict[str, int]:
    """Top index to prefill per kind the entries read, on the grid 0..max_n:
    2*max_n + 2 for B and C, 4*max_n + 2 for b and c (c(4n) is read). Raises
    DomainError if those terms have more than TERM_DIGITS_MAX digits in all."""
    reads = "".join(d.reads for d in entries)
    kinds = [k for k in SequenceKind if k.short in reads]
    tops = {k.short: (2 if k.short in "BC" else 4) * max_n + 2 for k in kinds}
    digits = sum(digits_bound(k.min_index, tops[k.short]) for k in kinds)
    if digits > TERM_DIGITS_MAX:
        raise DomainError("max_n=%d reads terms of up to %d digits in all, above the limit of %d"
                          % (max_n, digits, TERM_DIGITS_MAX))
    return tops


def read_error(desc: IdentityDescriptor, n: int, m: Optional[int], index, max_n: int):
    """The DomainError for an evaluator's read of index outside the prefill."""
    return DomainError("%s at (n=%s, m=%s) reads index %s, outside the terms prefilled for "
                       "max_n=%d" % (desc.ident, n, m, index, max_n))


def evaluate(ident: str, n: int, m: Optional[int] = None) -> EvalResult:
    """Evaluate both sides exactly at (n, m); out-of-domain inputs are errors.

    Refusing out-of-domain inputs (instead of skipping them quietly) lets
    callers distinguish "skipped by domain" from "evaluated and failed".
    The terms come from a fresh TermSource, prefilled to term_tops() for
    max_n = max(n, m), which serves this call alone and is freed when it
    returns.
    """
    desc = lookup(ident)
    _check_arity(desc, m)
    if not desc.domain(n, m):
        raise DomainError(
            "(n=%s, m=%s) is outside the domain of %s (%s)"
            % (n, m, ident, desc.domain_desc)
        )
    max_n = n if m is None else max(n, m)
    tops = term_tops([desc], max_n)
    terms = TermSource()
    terms.prefill(tops)
    try:
        lhs = desc.lhs(terms, n, m)
        rhs = desc.rhs(terms, n, m)
    except KeyError as exc:
        raise read_error(desc, n, m, exc.args[0], max_n) from None
    return EvalResult(ident, n, m, lhs, rhs, lhs == rhs)
