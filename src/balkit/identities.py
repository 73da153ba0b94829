"""Catalog of equational and congruence statements over the four sequences.

Identities are data, not code paths: an entry is its printed statement plus
its printed domain. The exact left/right evaluators are compiled from the
statement when this module is imported, and the domain's arity and index
ranges come from one table of domains, so what is printed is what gets
checked. An evaluator reads its terms by subscript from the four plain dict
tables of a TermSource, t.B[i], t.C[i], t.b[i] and t.c[i], and calls
nothing. Run once on symbols for n and m, an entry's two evaluators
record every subscript they read as an affine form in n and m, at most
divided as a whole, like (n-m)/2; _entry refuses a statement with any
other subscript. From the forms of the evaluators an entry holds,
term_tops() takes, per kind, the highest index the entries read on a
grid, which the harness prefills, and evaluate() keeps only the terms its
one point reads. One generic routine evaluates any entry at given indices.
Adding an entry means adding a table row.

Equational entries ("L = R") compare two unbounded integers for equality.
Congruence entries ("L == R (mod k)") compare residues: the left evaluator
returns the actual residue of L modulo k, the right evaluator the expected
residue (negative expectations are normalized into 0..k-1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    indices: DomainRange = field(repr=False)
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


def _term(self, other=0):
    """_TERM, or NotImplemented for an operand that is no int, form or term
    (m, None in an entry of one index), so that Python raises TypeError."""
    return _TERM if other.__class__ in (int, _Form, _Term) else NotImplemented


class _Form:
    """The index (a*n + b*m + c) // d that a subscript evaluates to when
    _subscript_forms runs a compiled side on symbols for n and m.

    Sums and differences of undivided forms and ints, multiples by an int
    and one final floor division by a positive int stay forms. Any other
    arithmetic (a product of two forms, a form divided twice, a residue)
    gives _TERM, which a table refuses as a subscript.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int = 1) -> None:
        self.a, self.b, self.c, self.d = a, b, c, d

    def __add__(self, other):
        if other.__class__ is int:
            other = _Form(0, 0, other)
        if other.__class__ is _Form and self.d == other.d == 1:
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
        if other.__class__ is int and self.d == 1:
            return _Form(self.a * other, self.b * other, self.c * other)
        return _term(self, other)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        if other.__class__ is int and other >= 1 and self.d == 1:
            return _Form(self.a, self.b, self.c, other)
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


class _Table:
    """One table of the symbolic TermSource: t.B[i] records ("B", a, b, c, d)
    for the form of i and returns _TERM; any other i raises TypeError."""

    __slots__ = ("short", "forms")

    def __init__(self, short: str, forms: list) -> None:
        self.short, self.forms = short, forms

    def __getitem__(self, index):
        if index.__class__ is int:
            index = _Form(0, 0, index)
        if index.__class__ is not _Form:
            raise TypeError
        self.forms.append((self.short, index.a, index.b, index.c, index.d))
        return _TERM


def _subscript_forms(desc: IdentityDescriptor) -> tuple:
    """Every distinct read desc.lhs and desc.rhs make, as (short, a, b, c, d)
    for a read of kind short at (a*n + b*m + c) // d, in the order first
    read. Each side runs once on symbols for n and m (about 12 us); a
    subscript of any other shape raises ValueError. The forms come from the
    evaluators themselves, so an entry built with other lhs or rhs (by
    dataclasses.replace, say) is bounded by what it reads."""
    forms: list = []
    t = TermSource()
    t.B, t.C, t.b, t.c = (_Table(short, forms) for short in "BCbc")
    n, m = _Form(1, 0, 0), (_Form(0, 1, 0) if desc.arity == 2 else None)
    try:
        desc.lhs(t, n, m)
        desc.rhs(t, n, m)
    except TypeError:
        raise ValueError(
            "%s: a subscript is not an affine form in n and m, at most divided as a whole "
            "(a nested read, a product of n and m, or m where the domain takes n alone)"
            % desc.ident) from None
    return tuple(dict.fromkeys(forms))


def _entry(
    ident: str, statement: str, domain: str, note: Optional[str] = None
) -> IdentityDescriptor:
    """Build a catalog entry from its printed statement and printed domain.

    A statement outside the grammar, or one with a subscript that is not an
    affine form in n and m (at most divided as a whole, like (n-m)/2), is
    refused with ValueError: term_tops could not bound its reads.
    """
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


# term_tops refuses terms of more than this many digits in all (about 12 MB
# of ints): the full catalog at max_n 1239, the largest the harness's cell
# cap allows, has 1.6e7, and PARITY_B alone reaches it near max_n 8850.
TERM_DIGITS_MAX = 3 * 10**7

_MIN_INDEX = {k.short: k.min_index for k in SequenceKind}


def _corner_cells(desc: IdentityDescriptor, max_n: int) -> Iterator[tuple[int, Optional[int]]]:
    """The cells of the grid 0..max_n where each read of desc takes its
    least and its greatest index: the first and last m of the first two and
    the last two rows that have in-domain cells.

    Along a row a read's index is affine in m, and a floor division keeps
    its order, so its extremes lie at the row's first and last m. Those
    are affine in n over the rows of one parity, for every domain in
    _DOMAINS, so over the rows the extremes lie at the first and last rows
    of each parity.
    """
    rows: list[int] = []
    for order in (range(max_n + 1), range(max_n, -1, -1)):
        rows += islice((n for n in order if desc.indices(n, max_n)), 2)
    for n in sorted(set(rows)):
        ms = desc.indices(n, max_n)
        yield n, ms[0]
        yield n, ms[-1]


def _reads(desc: IdentityDescriptor, cells: Iterable[tuple[int, Optional[int]]]):
    """(desc, n, m, short, index) for each read of desc at each cell."""
    forms = _subscript_forms(desc)
    for n, m in cells:
        for short, a, b, c, d in forms:
            yield desc, n, m, short, (a * n + (b * m if b else 0) + c) // d


def _tops(reads, max_n: int) -> dict[str, int]:
    """The highest index per kind among reads, in "BCbc" order. Raises
    DomainError for a read below its kind's min_index, naming the entry,
    the cell and the index, and if terms min_index..top hold more than
    TERM_DIGITS_MAX digits in all."""
    tops: dict[str, int] = {}
    for desc, n, m, short, index in reads:
        if index < _MIN_INDEX[short]:
            raise read_error(desc, n, m, index, max_n)
        if index > tops.get(short, -1):
            tops[short] = index
    tops = {k: tops[k] for k in "BCbc" if k in tops}
    digits = sum(digits_bound(_MIN_INDEX[k], top) for k, top in tops.items())
    if digits > TERM_DIGITS_MAX:
        raise DomainError("max_n=%d reads terms of up to %d digits in all, above the limit of %d"
                          % (max_n, digits, TERM_DIGITS_MAX))
    return tops


def term_tops(entries: Iterable[IdentityDescriptor], max_n: int) -> dict[str, int]:
    """Top index to prefill per kind the entries read on the grid 0..max_n:
    the highest index any of their in-domain cells reads (c(4n) reads c up
    to 4*max_n, PARITY_B reads B only up to max_n), taken from the
    subscript forms of each entry's own lhs and rhs. A kind no cell reads
    gets no top. Raises DomainError for a read below min_index, and if the
    tops hold more than TERM_DIGITS_MAX digits in all; ValueError for an
    entry whose evaluators read a subscript that is no affine form."""
    return _tops((r for d in entries for r in _reads(d, _corner_cells(d, max_n))), max_n)


def read_error(desc: IdentityDescriptor, n: int, m: Optional[int], index, max_n: int):
    """The DomainError for an evaluator's read of index outside the prefill."""
    return DomainError("%s at (n=%s, m=%s) reads index %s, outside the terms prefilled for "
                       "max_n=%d" % (desc.ident, n, m, index, max_n))


def evaluate(ident: str, n: int, m: Optional[int] = None) -> EvalResult:
    """Evaluate both sides exactly at (n, m); out-of-domain inputs are errors.

    Refusing out-of-domain inputs (instead of skipping them quietly) lets
    callers distinguish "skipped by domain" from "evaluated and failed".
    The terms come from a fresh TermSource that holds only the terms this
    one point reads, walked up to the highest, under the digit cap of
    term_tops(); it serves this call alone and is freed when it returns.
    """
    desc = lookup(ident)
    _check_arity(desc, m)
    if not desc.domain(n, m):
        raise DomainError(
            "(n=%s, m=%s) is outside the domain of %s (%s)"
            % (n, m, ident, desc.domain_desc)
        )
    max_n = n if m is None else max(n, m)
    reads = list(_reads(desc, [(n, m)]))
    tops = _tops(reads, max_n)
    terms = TermSource()
    terms.prefill(tops, keep={(short, index) for *_, short, index in reads})
    try:
        lhs = desc.lhs(terms, n, m)
        rhs = desc.rhs(terms, n, m)
    except KeyError as exc:
        # Only an evaluator that reads other indices on ints than on the
        # symbols _subscript_forms runs it on gets here.
        raise read_error(desc, n, m, exc.args[0], max_n) from None
    return EvalResult(ident, n, m, lhs, rhs, lhs == rhs)
