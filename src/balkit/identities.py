"""Catalog of equational and congruence statements over the four sequences.

Identities are data, not code paths: an entry is its printed statement plus
its printed domain. The exact left/right evaluators are compiled from the
statement when this module is imported, and the domain's arity, index
ranges and coordinates come from one table of domains, so what is printed
is what gets checked. An evaluator reads its terms by subscript from the
four plain dict tables of a TermSource, t.B[i], t.C[i], t.b[i] and t.c[i],
and calls nothing. Each domain maps k, j >= 0 onto its cells (the parity
domain is n = 2k+j, m = j); run once on k and j as symbols, an entry's two
evaluators record each subscript as a form a*k + b*j + c, and _entry
refuses any other subscript, and any with a < 0, b < 0 or c below the
kind's first index. term_tops() takes each kind's highest index on a grid
from the forms at the grid's corners, which the harness prefills, and
evaluate() computes by fast doubling only the terms its one point reads.
Adding an entry means adding a table row.

Equational entries ("L = R") compare two unbounded integers for equality.
Congruence entries ("L == R (mod k)") compare residues: the left evaluator
returns the actual residue of L modulo k, the right evaluator the expected
residue (negative expectations are normalized into 0..k-1).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from . import sequences
from .sequences import DomainError, SequenceKind, TermSource, UnknownIdentityError
from .sequences import digits_bound

Evaluator = Callable[[TermSource, int, Optional[int]], int]

EQUATION = "equation"
CONGRUENCE = "congruence"


@dataclass(frozen=True)
class IdentityDescriptor:
    """One verifiable statement about the sequences.

    ident is the stable id used by the CLI and report formats. statement and
    domain_desc are the printed forms an entry is written as; every other
    field is derived from them. lhs and rhs are compiled from statement,
    arity and indices are looked up from domain_desc, and domain(n, m) is
    the membership test read off indices. kind and modulus come from the
    statement's form; modulus is set on congruence entries only. note
    records a known discrepancy between this entry's implemented reading
    and an alternative printed form, where one exists.
    """

    ident: str
    arity: int
    kind: str
    statement: str
    domain_desc: str
    indices: Callable[[int, int], Sequence[Optional[int]]] = field(repr=False)
    lhs: Evaluator = field(repr=False)
    rhs: Evaluator = field(repr=False)
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

# Printed domain -> (arity, rows, cell, corners). rows(n, hi), 0 <= n <= hi,
# gives the m in 0..hi with (n, m) in the domain, or for a unary entry (None,)
# if n is in it, else (). cell(k, j) maps k, j >= 0 one to one onto the
# domain (a unary one ignores j and has m None). Every a*k + b*j + c with
# a, b >= 0 takes its largest value on the grid n, m <= N at a corners(N).
_DOMAINS: dict[str, tuple] = {
    "n >= 0, m >= 0": (2, lambda n, hi: range(hi + 1 if n >= 0 else 0),
                       lambda k, j: (k, j), lambda N: [(N, N)]),
    "n >= m >= 0": (2, lambda n, hi: range(min(n, hi) + 1),
                    lambda k, j: (k + j, j), lambda N: [(N, 0), (0, N)]),
    _PARITY: (2, lambda n, hi: range(n % 2, min(n, hi) + 1, 2),
              lambda k, j: (2 * k + j, j), lambda N: [(N // 2, N % 2), (0, N)]),
    "n >= m >= 1": (2, lambda n, hi: range(1, min(n, hi) + 1),
                    lambda k, j: (k + j + 1, j + 1), lambda N: [(N - 1, 0), (0, N - 1)]),
    "n > m >= 1": (2, lambda n, hi: range(1, min(n, hi + 1)),
                   lambda k, j: (k + j + 2, j + 1), lambda N: [(N - 2, 0), (0, N - 2)]),
    "1 <= n <= m": (2, lambda n, hi: range(n, hi + 1) if n >= 1 else range(0),
                    lambda k, j: (k + 1, k + j + 1), lambda N: [(N - 1, 0), (0, N - 1)]),
    "n >= 0": (1, lambda n, hi: (None,) if n >= 0 else (),
               lambda k, j: (k, None), lambda N: [(N, 0)]),
    "n >= 1": (1, lambda n, hi: (None,) if n >= 1 else (),
               lambda k, j: (k + 1, None), lambda N: [(N - 1, 0)]),
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


def _term(self, other=0):
    """_TERM, or NotImplemented for an operand that is no int, form or term
    (m, None in an entry of one index), so that Python raises TypeError."""
    return _TERM if other.__class__ in (int, _Form, _Term) else NotImplemented


class _Form:
    """The index a*k + b*j + c that a subscript evaluates to when
    _subscript_forms runs a compiled side on the coordinates k and j.

    Sums and differences of forms and ints, multiples by an int and floor
    divisions by an int d >= 1 that divides a and b (flooring only c, which
    is exact) stay forms. Any other arithmetic (a product of two forms, an
    inexact division such as k/2, a residue) gives _TERM, which a table
    refuses as a subscript.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        self.a, self.b, self.c = a, b, c

    def __str__(self) -> str:
        """The form as a subscript is printed, like 2k+j-1."""
        text = re.sub(r"[+-]0[kj]|\+0$", "", "%+dk%+dj%+d" % (self.a, self.b, self.c))
        return re.sub(r"([+-])1([kj])", r"\1\2", text).lstrip("+") or "0"

    def __add__(self, other):
        if other.__class__ is int:
            other = _Form(0, 0, other)
        if other.__class__ is _Form:
            return _Form(self.a + other.a, self.b + other.b, self.c + other.c)
        return _term(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if other.__class__ is int:
            return _Form(self.a * other, self.b * other, self.c * other)
        return _term(self, other)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        if other.__class__ is int and other >= 1 and self.a % other == self.b % other == 0:
            return _Form(self.a // other, self.b // other, self.c // other)
        return _term(self, other)

    __rfloordiv__ = __mod__ = __rmod__ = _term


class _Term(int):
    """What a symbolic read returns: a term, or any arithmetic on one or
    on forms that is no index. It is the int 0, so that code wrapped
    around an evaluator that measures its result (the benchmark's tracer
    takes abs(result).bit_length()) runs on symbols too; arithmetic keeps
    it a _Term, and a table refuses it as a subscript."""

    __slots__ = ()
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _term
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = _term
    __neg__ = __pos__ = __abs__ = _term


_TERM = _Term()
_MIN_INDEX = {k.short: k.min_index for k in SequenceKind}


class _Table:
    """One table of a recording TermSource: t.B[i] records ("B", a, b, c)
    for the form of i (an integer i, of any int type, is the form c = i)
    and returns _TERM; any other i, _TERM included, raises TypeError."""

    __slots__ = ("short", "forms")

    def __init__(self, short: str, forms: list) -> None:
        self.short, self.forms = short, forms

    def __getitem__(self, index):
        if index.__class__ is not _Form:
            if index.__class__ is _Term:
                raise TypeError
            index = _Form(0, 0, operator.index(index))
        self.forms.append((self.short, index.a, index.b, index.c))
        return _TERM


def _read_forms(desc: IdentityDescriptor, n, m) -> tuple:
    """Every distinct read desc.lhs and desc.rhs make at (n, m), as (short,
    a, b, c) in the order first read; TypeError if a subscript is no form."""
    forms: list = []
    t = TermSource()
    t.B, t.C, t.b, t.c = (_Table(short, forms) for short in "BCbc")
    desc.lhs(t, n, m)
    desc.rhs(t, n, m)
    return tuple(dict.fromkeys(forms))


def _subscript_forms(desc: IdentityDescriptor) -> tuple:
    """_read_forms at the symbols k and j of desc's domain cell(k, j), in
    about 12 us. ValueError for a subscript that is no form, or has a < 0,
    b < 0 or c below min_index; so no in-domain cell reads below min_index.
    An entry built with other lhs or rhs (by dataclasses.replace, say) is
    bounded and checked by what those read."""
    n, m = _DOMAINS[desc.domain_desc][2](_Form(1, 0, 0), _Form(0, 1, 0))
    try:
        forms = _read_forms(desc, n, m)
    except TypeError:
        raise ValueError(
            "%s: a subscript is not an integer form a*k + b*j + c at (n, m) = (%s, %s), k, j "
            ">= 0 (a nested read, a product of n and m, an inexact division, or m where the "
            "domain takes n alone)" % (desc.ident, n, m)) from None
    for short, a, b, c in forms:
        if a < 0 or b < 0 or c < _MIN_INDEX[short]:
            raise ValueError("%s: reads %s(%s) at (n, m) = (%s, %s), k, j >= 0, below the first "
                             "index of %s" % (desc.ident, short, _Form(a, b, c), n, m, short))
    return forms


def _entry(
    ident: str, statement: str, domain: str, note: Optional[str] = None
) -> IdentityDescriptor:
    """Build a catalog entry from its printed statement and printed domain.

    A statement outside the grammar, or one with a subscript that is not an
    integer form a*k + b*j + c in the domain's coordinates, or that can
    read below its kind's first index, is refused with ValueError naming
    the entry and the form (see _subscript_forms).
    """
    arity, indices = _DOMAINS[domain][:2]
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
    desc = IdentityDescriptor(
        ident, arity, kind, statement, domain, indices,
        _evaluator(ident, lhs, modulus), _evaluator(ident, rhs, modulus), modulus, note,
    )
    _subscript_forms(desc)
    return desc


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


# The cap on the digits of the terms a caller holds, about 12 MB of ints.
# term_tops() bounds a grid's tables, each kind from min_index to its top:
# the full catalog at max_n 1239, the largest the harness's cell cap allows,
# holds 1.6e7 digits, and PARITY_B alone reaches the cap near max_n 8850.
# evaluate() checks the distinct terms its one point reads against it
# first; below EVAL_INDEX_MAX no catalog point reaches it (CB_MIX reads six
# terms), so that index cap is what bounds a point.
TERM_DIGITS_MAX = 3 * 10**7

# The cap on the largest index an evaluate() point reads: each distinct
# index costs one pair_bc(), about 3x slower per doubling of the index. The
# slowest catalog points run two pairs near their top index and two products
# of such terms: at the cap, C_SUB at (5e6, 2) took 38.8 and 41.1 s, B_SUB at
# (5e6, 5e6 - 2) and B_SHIFT_SUB at (5e6, 2) 37.5 s, at 40 MB peak RSS (2-vCPU
# Xeon VM, CPython 3.11.7). PARITY_B at 39e6, under the digit cap, took 266 s.
EVAL_INDEX_MAX = 5 * 10**6


def _check_digits(digits: int, max_n: int) -> None:
    """Raise DomainError if digits, a bound on terms to hold, is above TERM_DIGITS_MAX."""
    if digits > TERM_DIGITS_MAX:
        raise DomainError("max_n=%d reads terms of up to %d digits in all, above the limit of %d"
                          % (max_n, digits, TERM_DIGITS_MAX))


def term_tops(entries: Iterable[IdentityDescriptor], max_n: int) -> dict[str, int]:
    """Top index to prefill per kind the entries read on the grid 0..max_n:
    the highest index any of their in-domain cells reads (c(4n) reads c up
    to 4*max_n, PARITY_B reads B only up to max_n). Each is the largest
    value a subscript form of an entry's own lhs and rhs takes at the
    corners of its domain in the grid. A kind no cell reads gets no top.
    Raises DomainError if the tops hold more than TERM_DIGITS_MAX digits in
    all; ValueError for an entry whose evaluators read a subscript that is
    no integer form or can fall below min_index."""
    # Sorted, each kind's highest index comes last, and the kinds in "BCbc" order.
    tops = dict(sorted((short, a * k + b * j + c) for d in entries
                       for short, a, b, c in _subscript_forms(d)
                       for k, j in _DOMAINS[d.domain_desc][3](max_n) if k >= 0 and j >= 0))
    _check_digits(sum(digits_bound(_MIN_INDEX[k], top) for k, top in tops.items()), max_n)
    return tops


def read_error(desc: IdentityDescriptor, n: int, m: Optional[int], index, max_n: int):
    """The DomainError for an evaluator's read of index outside the prefill."""
    return DomainError("%s at (n=%s, m=%s) reads index %s, outside the terms prefilled for "
                       "max_n=%d" % (desc.ident, n, m, index, max_n))


def evaluate(ident: str, n: int, m: Optional[int] = None) -> EvalResult:
    """Evaluate both sides exactly at (n, m); out-of-domain inputs are errors.

    Refusing out-of-domain inputs (instead of skipping them quietly) lets
    callers distinguish "skipped by domain" from "evaluated and failed".
    A pass of the evaluators at n and m records the terms they read. Their
    digits are checked against TERM_DIGITS_MAX, then their largest index
    against EVAL_INDEX_MAX, both before any term is computed. A fresh
    TermSource, freed on return, holds just those terms: one pair_bc() call
    per distinct index gives B and C, and b and c are bridged from it as
    term_doubling() does. A read below min_index is left out, so it raises
    read_error() as any read outside the table does.
    """
    desc = lookup(ident)
    _check_arity(desc, m)
    if not desc.domain(n, m):
        raise DomainError(
            "(n=%s, m=%s) is outside the domain of %s (%s)"
            % (n, m, ident, desc.domain_desc)
        )
    max_n = n if m is None else max(n, m)
    reads = [(short, index) for short, _, _, index in _read_forms(desc, n, m)
             if index >= _MIN_INDEX[short]]
    _check_digits(sum(digits_bound(index, index) for _, index in reads), max_n)
    indices = dict.fromkeys(index for _, index in reads)
    top = max(indices, default=0)
    if top > EVAL_INDEX_MAX:
        raise DomainError("%s at (n=%s, m=%s) reads index %d, above the limit of %d"
                          % (ident, n, m, top, EVAL_INDEX_MAX))
    # pair_bc is looked up on sequences, where perfbench's tracer wraps it.
    pairs = {index: sequences.pair_bc(index) for index in indices}
    terms = TermSource()
    for short, index in reads:
        pair = pairs[index] if short in "BC" else sequences._cobal(*pairs[index])
        getattr(terms, short)[index] = pair[0] if short in "Bb" else pair[1]
    try:
        lhs = desc.lhs(terms, n, m)
        rhs = desc.rhs(terms, n, m)
    except KeyError as exc:
        # A read below min_index, or one that depends on the terms' values,
        # which are all 0 in the recording pass, gets here.
        raise read_error(desc, n, m, exc.args[0], max_n) from None
    return EvalResult(ident, n, m, lhs, rhs, lhs == rhs)
