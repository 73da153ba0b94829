"""Catalog of equational and congruence statements over the four sequences.

Identities are data, not code paths: an entry is its printed statement plus
its printed domain. The exact left/right evaluators are compiled from the
statement when this module is imported, and the domain's arity, index
ranges and coordinates come from one table of domains, so what is printed
is what gets checked. An evaluator reads its terms by subscript from the
four plain dict tables of a TermSource, t.B[i], t.C[i], t.b[i] and t.c[i],
and calls nothing. Each domain maps k, j >= 0 onto its cells (the parity
domain is n = 2k+j, m = j). One pass over the syntax tree of each printed
side checks the grammar, gives the evaluator's source and folds each
subscript into its form a*k + b*j + c; _entry refuses any other
subscript, and any with a < 0, b < 0 or c below the kind's first index,
and keeps the forms as the entry's reads. term_reads() turns each read
into a progression of indices on a grid, from c to the read's highest
value at the grid's corners in steps of gcd(a, b), which the harness
prefills; term_tops() is each kind's highest index. evaluate() computes by
fast doubling only the terms its one point reads, at its (k, j). Adding an
entry means adding a table row.

Equational entries ("L = R") compare two unbounded integers for equality.
Congruence entries ("L == R (mod k)") compare residues: the left evaluator
returns the actual residue of L modulo k, the right evaluator the expected
residue (negative expectations are normalized into 0..k-1).
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from . import sequences
from .sequences import DomainError, SequenceKind, TermSource, UnknownIdentityError
from .sequences import digits_bound, parse_kind, term_of_pair

Evaluator = Callable[[TermSource, int, Optional[int]], int]


@dataclass(frozen=True)
class IdentityDescriptor:
    """One verifiable statement about the sequences.

    ident is the stable id used by the CLI and report formats. statement and
    domain_desc are the printed forms an entry is written as; every other
    field is derived from them. lhs and rhs are compiled from statement,
    and reads lists the terms statement reads, in the order first read, as
    (short, a, b, c) for the index a*k + b*j + c at the domain's cell of k
    and j; term_reads() gives a grid's prefill from them. arity and indices
    are looked up from domain_desc, and domain(n, m) is the membership test
    read off indices. modulus marks a congruence: it is the k of a
    statement "L == R (mod k)", and None on an equation. note records a known
    discrepancy between this entry's implemented reading and an alternative
    printed form, where one exists.

    An entry a caller builds with other lhs or rhs (by dataclasses.replace,
    say) keeps the reads of its statement, so a grid is prefilled for
    those; a read outside them raises read_error()'s DomainError.
    """

    ident: str
    arity: int
    statement: str
    domain_desc: str
    indices: Callable[[int, int], Sequence[Optional[int]]] = field(repr=False)
    lhs: Evaluator = field(repr=False)
    rhs: Evaluator = field(repr=False)
    reads: tuple[tuple[str, int, int, int], ...] = field(repr=False)
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
# if n is in it, else (). cell gives n and m as forms (a, b, c), that is
# a*k + b*j + c, which map k, j >= 0 one to one onto the domain (a unary one
# has no j and m None). Every a*k + b*j + c with a, b >= 0 takes its largest
# value on the grid n, m <= N at a corners(N).
_DOMAINS: dict[str, tuple] = {
    "n >= 0, m >= 0": (2, lambda n, hi: range(hi + 1 if n >= 0 else 0),
                       ((1, 0, 0), (0, 1, 0)), lambda N: [(N, N)]),
    "n >= m >= 0": (2, lambda n, hi: range(min(n, hi) + 1),
                    ((1, 1, 0), (0, 1, 0)), lambda N: [(N, 0), (0, N)]),
    _PARITY: (2, lambda n, hi: range(n % 2, min(n, hi) + 1, 2),
              ((2, 1, 0), (0, 1, 0)), lambda N: [(N // 2, N % 2), (0, N)]),
    "n >= m >= 1": (2, lambda n, hi: range(1, min(n, hi) + 1),
                    ((1, 1, 1), (0, 1, 1)), lambda N: [(N - 1, 0), (0, N - 1)]),
    "n > m >= 1": (2, lambda n, hi: range(1, min(n, hi + 1)),
                   ((1, 1, 2), (0, 1, 1)), lambda N: [(N - 2, 0), (0, N - 2)]),
    "1 <= n <= m": (2, lambda n, hi: range(n, hi + 1) if n >= 1 else range(0),
                    ((1, 0, 1), (1, 1, 1)), lambda N: [(N - 1, 0), (0, N - 1)]),
    "n >= 0": (1, lambda n, hi: (None,) if n >= 0 else (),
               ((1, 0, 0), None), lambda N: [(N, 0)]),
    "n >= 1": (1, lambda n, hi: (None,) if n >= 1 else (),
               ((1, 0, 1), None), lambda N: [(N - 1, 0)]),
}

# The longest statement _entry takes, about nine times the catalog's longest
# (54 characters). Longer sides can nest past the interpreter's recursion
# limit: 5000 unary minus signs, or a sum of 2000 reads, raised
# RecursionError from the parse, the fold over its tree or the compile. At
# the cap, the deepest unary nesting and the deepest sum both still build
# with 450 frames of the caller's stack in use (CPython 3.11.7).
STATEMENT_LEN_MAX = 500

_CONGRUENCE_FORM = re.compile(r"(.+) == (.+) \(mod ([1-9][0-9]*)\)")
# The characters a side may use; its syntax tree decides the rest.
_ALPHABET = frozenset("0123456789nmBCbc+-*/() ")
_MIN_INDEX = {k.short: k.min_index for k in SequenceKind}


def _form(form: Optional[tuple]) -> str:
    """The form (a, b, c) as a subscript is printed, like 2k+j-1."""
    if form is None:
        return "None"
    text = re.sub(r"[+-]0[kj]|\+0$", "", "%+dk%+dj%+d" % form)
    return re.sub(r"([+-])1([kj])", r"\1\2", text).lstrip("+") or "0"


def _side(ident: str, side: str, cell: tuple, reads: list) -> str:
    """One printed side as the Python source of its evaluator.

    2n becomes 2*n, each read B(i) the subscript t.B[i] and / becomes //,
    so the evaluator calls nothing. One pass over the side's syntax tree
    admits only the grammar: integer literals, n, m, B, C, b and c read at
    one index, unary -, the binary operators + - * / and parentheses, with
    spaces only next to a binary operator; any other side raises
    ValueError. The same pass folds each value into a form (a, b, c) at
    the domain's cell, where it is one: a sum or difference of forms, a
    form times an integer, or a form floor-divided by an integer d that
    divides a and b. It appends each read's (short, a, b, c) to reads, and
    None for a subscript that is no form or an m the domain does not have.
    """
    src = re.sub(r"([0-9])([nm])", r"\1*\2", side)
    grammar = "%s: %r is outside the statement grammar" % (ident, side)
    if not _ALPHABET.issuperset(src):
        raise ValueError(grammar)
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError:
        raise ValueError(grammar) from None
    out = list(src)
    spaces = 0

    def fold(node) -> Optional[tuple]:
        """node's value as a form (a, b, c), or None where it is no form."""
        nonlocal spaces
        kind = type(node)
        if (kind is ast.Call and type(node.func) is ast.Name and node.func.id in _MIN_INDEX
                and len(node.args) == 1 and not node.keywords
                and node.col_offset == node.func.col_offset
                and src[node.func.end_col_offset] == "("):
            x = fold(node.args[0])
            reads.append(x and (node.func.id, *x))
            out[node.col_offset] = "t." + node.func.id
            out[node.func.end_col_offset] = "["
            out[node.end_col_offset - 1] = "]"
            return None
        if kind is ast.Name and node.id in ("n", "m"):
            if cell[node.id == "m"] is None:
                reads.append(None)
            return cell[node.id == "m"]
        if kind is ast.BinOp and type(node.op) in (ast.Add, ast.Sub, ast.Mult, ast.Div):
            operation = type(node.op)
            x, y = fold(node.left), fold(node.right)
            # Between the operands: their parentheses, the operator and
            # the spaces next to it.
            op = src[node.left.end_col_offset:node.right.col_offset].lstrip(")").rstrip("(")
            if len(op.strip(" ")) != 1:
                raise ValueError(grammar)
            spaces += op.count(" ")
            if x is None or y is None:
                return None
            if operation is ast.Add:
                return x[0] + y[0], x[1] + y[1], x[2] + y[2]
            if operation is ast.Sub:
                return x[0] - y[0], x[1] - y[1], x[2] - y[2]
            if operation is ast.Mult:
                if x[:2] == (0, 0):
                    x, y = y, x
                return (x[0] * y[2], x[1] * y[2], x[2] * y[2]) if y[:2] == (0, 0) else None
            d = y[2] if y[:2] == (0, 0) else 0
            return (x[0] // d, x[1] // d, x[2] // d) if d and x[0] % d == x[1] % d == 0 else None
        if kind is ast.Constant and src[node.col_offset:node.end_col_offset].isdigit():
            return 0, 0, node.value
        if kind is ast.UnaryOp and type(node.op) is ast.USub:
            x = fold(node.operand)
            return None if x is None else (-x[0], -x[1], -x[2])
        raise ValueError(grammar)

    fold(tree.body)
    if spaces != src.count(" "):
        raise ValueError(grammar)
    return "".join(out).replace("/", "//")


def _evaluator(ident: str, source: str) -> Evaluator:
    """Compile source, an expression over t, n and m, into lambda t, n, m;
    the lambda sees no builtins."""
    return eval(compile("lambda t, n, m: " + source, "<identity %s>" % ident, "eval"),
                {"__builtins__": {}})


def _entry(
    ident: str, statement: str, domain: str, note: Optional[str] = None
) -> IdentityDescriptor:
    """Build a catalog entry from its printed statement and printed domain.

    A statement longer than STATEMENT_LEN_MAX characters or outside the
    grammar, or one with a subscript that is not an integer form
    a*k + b*j + c in the domain's coordinates, or that can read below its
    kind's first index, is refused with ValueError naming the entry and the
    form (see _side). Any other form is at least c on the whole domain, so
    no in-domain cell reads below a first index.
    """
    if len(statement) > STATEMENT_LEN_MAX:
        raise ValueError("%s: %r is outside the statement grammar" % (ident, statement))
    arity, indices, cell = _DOMAINS[domain][:3]
    congruence = _CONGRUENCE_FORM.fullmatch(statement)
    if congruence:
        lhs, rhs, k = congruence.groups()
        modulus = int(k)
    else:
        sides = statement.split(" = ")
        if len(sides) != 2:
            raise ValueError(
                "%s: %r is neither 'L = R' nor 'L == R (mod k)'" % (ident, statement))
        (lhs, rhs), modulus = sides, None
    reads: list = []
    lhs, rhs = _side(ident, lhs, cell, reads), _side(ident, rhs, cell, reads)
    if None in reads:
        raise ValueError(
            "%s: a subscript is not an integer form a*k + b*j + c at (n, m) = (%s, %s), k, j "
            ">= 0 (a nested read, a product of n and m, an inexact division, or m where the "
            "domain takes n alone)" % (ident, _form(cell[0]), _form(cell[1])))
    for short, a, b, c in reads:
        if a < 0 or b < 0 or c < _MIN_INDEX[short]:
            raise ValueError("%s: reads %s(%s) at (n, m) = (%s, %s), k, j >= 0, below the first "
                             "index of %s" % (ident, short, _form((a, b, c)), _form(cell[0]),
                                              _form(cell[1]), short))
    if modulus is not None:
        lhs, rhs = ("(%s) %% %d" % (side, modulus) for side in (lhs, rhs))
    return IdentityDescriptor(
        ident, arity, statement, domain, indices, _evaluator(ident, lhs),
        _evaluator(ident, rhs), tuple(dict.fromkeys(reads)), modulus, note,
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


# The cap on the digits of the terms a grid's prefill walks, about 12 MB
# of ints. term_reads() counts each kind from min_index to its top, since
# the walk computes every one of those terms, although the tables keep only
# the indices the statements read: the full catalog at max_n 1239, the
# largest the harness's cell cap allows, walks 1.6e7 digits, and PARITY_B
# alone reaches the cap near max_n 8850. evaluate() checks the distinct
# terms its one point reads against it first; below EVAL_INDEX_MAX no
# catalog point reaches it (CB_MIX reads six terms), so that index cap is
# what bounds a point.
TERM_DIGITS_MAX = 3 * 10**7

# The cap on the largest index an evaluate() point reads: each distinct
# index costs one pair_bc(), about 3x slower per doubling of the index. The
# slowest catalog points run two pairs near their top index and two products
# of such terms: at the cap, C_SUB at (5e6, 2) took 38.8 and 41.1 s, B_SUB at
# (5e6, 5e6 - 2) and B_SHIFT_SUB at (5e6, 2) 37.5 s, at 40 MB peak RSS (2-vCPU
# Xeon VM, CPython 3.11.7). PARITY_B at 39e6, under the digit cap, took 266 s.
EVAL_INDEX_MAX = 5 * 10**6


def term_reads(entries: Iterable[IdentityDescriptor], max_n: int) -> dict[str, list[range]]:
    """The indices to prefill per kind the entries read on the grid 0..max_n,
    as progressions: each read (short, a, b, c) gives range(c, top + 1,
    gcd(a, b) or 1), top being the largest value the read takes at the
    corners of its entry's domain in the grid. Every in-domain cell reads
    a*k + b*j + c, which lies in [c, top] and is c modulo gcd(a, b), so
    the ranges cover every index read (c(4n) reads c(4), c(8), ..., c(4*max_n),
    C(2n) - C(2m) only the even C). A read no cell takes gives no range,
    and a kind no cell reads no entry; the kinds come in "BCbc" order.
    Raises DomainError if the terms of each kind from min_index to its
    top, all of which a prefill walks, hold more than TERM_DIGITS_MAX
    digits in all."""
    reads: dict[str, dict[range, None]] = {}
    for d in entries:
        corners = [(k, j) for k, j in _DOMAINS[d.domain_desc][3](max_n) if k >= 0 and j >= 0]
        for short, a, b, c in d.reads if corners else ():
            top = max(a * k + b * j + c for k, j in corners)
            reads.setdefault(short, {})[range(c, top + 1, math.gcd(a, b) or 1)] = None
    # The top of a progression is its last index: top - c = a*k + b*j.
    digits = sum(digits_bound(_MIN_INDEX[k], max(r[-1] for r in rs)) for k, rs in reads.items())
    if digits > TERM_DIGITS_MAX:
        raise DomainError("max_n=%d reads terms of up to %d digits in all, above the limit of %d"
                          % (max_n, digits, TERM_DIGITS_MAX))
    return {short: list(reads[short]) for short in sorted(reads)}


def term_tops(entries: Iterable[IdentityDescriptor], max_n: int) -> dict[str, int]:
    """Top index per kind the entries read on the grid 0..max_n: the
    highest index any of their in-domain cells reads (c(4n) reads c up to
    4*max_n, PARITY_B reads B only up to max_n), the last of term_reads()'
    progressions. A kind no cell reads gets no top. Refused as
    term_reads() refuses."""
    return {short: max(r[-1] for r in rs) for short, rs in term_reads(entries, max_n).items()}


def read_error(desc: IdentityDescriptor, n: int, m: Optional[int], index, max_n: int):
    """The DomainError for an evaluator's read of index outside the prefill."""
    return DomainError("%s at (n=%s, m=%s) reads index %s, outside the terms prefilled for "
                       "max_n=%d" % (desc.ident, n, m, index, max_n))


def _coordinates(cell: tuple, n: int, m: Optional[int]) -> tuple[int, int]:
    """The (k, j) at which a domain's cell forms give its point (n, m), by
    Cramer's rule; a unary domain, which has no m, takes m = j = 0."""
    (a, b, c), (d, e, f), m = cell[0], cell[1] or (0, 1, 0), m or 0
    det = a * e - b * d
    return ((n - c) * e - b * (m - f)) // det, (a * (m - f) - d * (n - c)) // det


def evaluate(ident: str, n: int, m: Optional[int] = None) -> EvalResult:
    """Evaluate both sides exactly at (n, m); out-of-domain inputs are errors.

    Refusing out-of-domain inputs (instead of skipping them quietly) lets
    callers distinguish "skipped by domain" from "evaluated and failed".
    The point's coordinates (k, j) in its domain give the index of each of
    the entry's reads, a*k + b*j + c. Those terms' digits are checked
    against TERM_DIGITS_MAX, then their largest index against
    EVAL_INDEX_MAX, both before any term is computed. A fresh
    TermSource, freed on return, holds just those terms: one pair_bc() call
    per distinct index gives B and C, and term_of_pair() takes each read's
    term from them, as term_doubling() does. An evaluator that reads outside
    its statement's reads raises read_error()'s DomainError, as in the harness.
    """
    desc = lookup(ident)
    if desc.arity == 2 and m is None:
        raise DomainError("%s takes two indices (n, m)" % ident)
    if desc.arity == 1 and m is not None:
        raise DomainError("%s takes a single index n" % ident)
    if not desc.domain(n, m):
        raise DomainError(
            "(n=%s, m=%s) is outside the domain of %s (%s)"
            % (n, m, ident, desc.domain_desc)
        )
    k, j = _coordinates(_DOMAINS[desc.domain_desc][2], n, m)
    reads = dict.fromkeys((short, a * k + b * j + c) for short, a, b, c in desc.reads)
    point = "%s at (n=%s, m=%s) reads" % (ident, n, m)
    digits = sum(digits_bound(index, index) for _, index in reads)
    if digits > TERM_DIGITS_MAX:
        raise DomainError("%s terms of up to %d digits, above the limit of %d"
                          % (point, digits, TERM_DIGITS_MAX))
    indices = dict.fromkeys(index for _, index in reads)
    top = max(indices, default=0)
    if top > EVAL_INDEX_MAX:
        raise DomainError("%s index %d, above the limit of %d" % (point, top, EVAL_INDEX_MAX))
    # pair_bc is looked up on sequences, where perfbench's tracer wraps it.
    pairs = {index: sequences.pair_bc(index) for index in indices}
    terms = TermSource()
    for short, index in reads:
        getattr(terms, short)[index] = term_of_pair(parse_kind(short), *pairs[index])
    try:
        lhs = desc.lhs(terms, n, m)
        rhs = desc.rhs(terms, n, m)
    except KeyError as exc:
        raise read_error(desc, n, m, exc.args[0], n if m is None else max(n, m)) from None
    return EvalResult(ident, n, m, lhs, rhs, lhs == rhs)
