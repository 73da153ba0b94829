"""Independent checks of balkit CLI output.

Nothing here imports balkit. Every check uses exact int arithmetic,
math.isqrt and this file's own term routines, which come from powers of
1 + sqrt(2) in Z[sqrt(2)] (H + P*sqrt(2)) and from the plain recurrence,
neither of which is the route balkit takes for the value it prints:

    B(n) = P(2n)/2    C(n) = H(2n)    b(n) = (P(2n-1) - 1)/2    c(n) = H(2n-1)

check(spec, stdout) returns (ok, reason, cases, digits); self_test() feeds
check() corrupted outputs and reports which ones it failed to reject.
"""

from __future__ import annotations

import json
import math

KINDS = ("B", "C", "b", "c")
MIN_INDEX = {"B": 0, "C": 0, "b": 1, "c": 1}

# Identity ids of the catalog with their arity, in catalog order. A report
# must list exactly these (or the requested subset) and account for every
# point of the (max_n+1)^arity grid as checked or skipped.
CATALOG = (
    ("B_ADD", 2), ("B_SUB", 2), ("B_DIFF_HALF", 2), ("B_DIFF_EVEN", 2),
    ("B_2N_MINUS6", 1), ("B_2N_SPLIT", 2), ("B_SUM_HALF", 2), ("B_SUM_EVEN", 2),
    ("B_SHIFT_ADD", 2), ("B_SHIFT_SUB", 2), ("C_SUM_HALF", 2), ("C_DIFF_HALF", 2),
    ("C_SUM_EVEN", 2), ("C_DIFF_EVEN", 2), ("C_ADD", 2), ("C_SUB", 2),
    ("CB_MIX_MINUS", 2), ("CB_MIX_PLUS", 2), ("LC_PROD", 2), ("COB_PROD", 2),
    ("B_COB_DIFF_GT", 2), ("B_COB_DIFF_LE", 2), ("B_COB_SUM_GT", 2),
    ("B_COB_SUM_LE", 2), ("LC_SUM_GT", 2), ("LC_SUM_LE", 2), ("C2N_PLUS1", 1),
    ("PARITY_B", 1), ("ODD_C", 1), ("MOD16_C", 2), ("MOD4_CSUM", 1), ("EVEN_b", 1),
    ("MOD4_bDIFF", 1), ("ODD_c", 1), ("MOD8_c", 1), ("MOD16_c", 1),
)
ARITY = dict(CATALOG)

# log2 of K(n) is n*LOG2_LAMBDA + OFFSET[K] up to a term below 2^-n, with
# lambda = 3 + 2*sqrt(2). Neighbouring terms differ by about 2.54 bits, so a
# bit length leaves room for at most one index.
LOG2_LAMBDA = math.log2(3 + 2 * math.sqrt(2))
_LOG2_ALPHA = math.log2(1 + math.sqrt(2))
OFFSET = {"B": -2.5, "C": -1.0, "b": -2.5 - _LOG2_ALPHA, "c": -1.0 - _LOG2_ALPHA}


class CheckError(Exception):
    """An output that does not match what the request must produce."""


def unit_power(k: int) -> tuple[int, int]:
    """(H, P) with (1 + sqrt(2))**k = H + P*sqrt(2), by square-and-multiply."""
    h, p = 1, 0
    for bit in bin(k)[2:]:
        h, p = h * h + 2 * p * p, 2 * h * p
        if bit == "1":
            h, p = h + 2 * p, h + p
    return h, p


def term_with_root(kind: str, n: int) -> tuple[int, int]:
    """(K(n), w) where w certifies membership of K(n) in its family:
    8B^2+1 = C^2, C^2-1 = 8B^2, 8b^2+8b+1 = c^2, c^2-1 = 8b(b+1)."""
    if kind in ("B", "C"):
        h, p = unit_power(2 * n)
        big_b, big_c = p // 2, h
        return (big_b, big_c) if kind == "B" else (big_c, big_b)
    h, p = unit_power(2 * n - 1)
    small_b, small_c = (p - 1) // 2, h
    return (small_b, small_c) if kind == "b" else (small_c, small_b)


def term(kind: str, n: int) -> int:
    return term_with_root(kind, n)[0]


def is_member_with(kind: str, x: int, w: int) -> bool:
    """Exact membership relation of x in family `kind`, with w as the root."""
    if kind == "B":
        return 8 * x * x + 1 == w * w
    if kind == "C":
        return x * x - 1 == 8 * w * w
    if kind == "b":
        return 8 * x * x + 8 * x + 1 == w * w
    return x * x - 1 == 8 * w * (w + 1)


def index_window(kind: str, x: int) -> tuple[float, float]:
    """Interval [lo, hi) that holds the index of x if x is a large K-term."""
    bits = x.bit_length()
    return (bits - 1 - OFFSET[kind]) / LOG2_LAMBDA, (bits - OFFSET[kind]) / LOG2_LAMBDA


def pinned_index(kind: str, x: int) -> int:
    """The only index whose K-term can have x's bit length (x >= 2^20)."""
    lo, hi = index_window(kind, x)
    return math.ceil(lo - 1e-9)


def index_of(kind: str, x: int):
    """Index n with K(n) == x, or None. Exact; the bit length only proposes n."""
    if x.bit_length() > 20:
        n = pinned_index(kind, x)
        return n if n >= MIN_INDEX[kind] and term(kind, n) == x else None
    n = MIN_INDEX[kind]
    while True:
        v = term(kind, n)
        if v == x:
            return n
        if v > x:
            return None
        n += 1


def members_upto(family: str, limit: int) -> list[int]:
    """Balancing (B(1), B(2), ...) or cobalancing (b(1), ...) numbers <= limit,
    by the recurrence x' = 6x - x_prev (+2 for cobalancing)."""
    if family == "balancing":
        x, y, add = 1, 6, 0
    else:
        x, y, add = 0, 2, 2
    out = []
    while x <= limit:
        out.append(x)
        x, y = y, 6 * y - x + add
    return out


def parse_decimal(text: str) -> int:
    """Exact int from a string of decimal digits, in subquadratic time.

    CPython before 3.12 converts decimal strings in quadratic time; splitting
    in halves lets the big multiplications (Karatsuba) carry the work.
    """
    if not text or not text.isdigit() or not text.isascii():
        raise CheckError("not a nonnegative decimal integer: %r" % text[:40])
    pows: dict[int, int] = {}

    def rec(a: int, b: int) -> int:
        if b - a <= 2000:
            return int(text[a:b])
        k = (b - a) // 2
        if k not in pows:
            pows[k] = 10 ** k
        return rec(a, b - k) * pows[k] + rec(b - k, b)

    return rec(0, len(text))


def digit_count(out: bytes) -> int:
    return len(out) - len(out.translate(None, b"0123456789"))


def _lines(out: bytes) -> list[str]:
    text = out.decode("ascii")
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline")
    return text[:-1].split("\n")


def _expect(cond: bool, why: str) -> None:
    if not cond:
        raise CheckError(why)


def check_term_value(kind: str, n: int, x: int) -> None:
    lo, hi = index_window(kind, x)
    _expect(lo - 1e-9 <= n < hi + 1e-9,
            "bit length %d does not fit %s(%d)" % (x.bit_length(), kind, n))
    expected, root = term_with_root(kind, n)
    _expect(is_member_with(kind, x, root), "value is not a member of %s" % kind)
    _expect(x == expected, "value differs from %s(%d)" % (kind, n))


def _check_term(spec: dict, out: bytes) -> int:
    lines = _lines(out)
    _expect(len(lines) == 1, "term printed %d lines" % len(lines))
    check_term_value(spec["kind"], spec["n"], parse_decimal(lines[0]))
    return 1


def _check_seq(spec: dict, out: bytes) -> int:
    kind, start, stop = spec["kind"], spec["start"], spec["stop"]
    if spec["format"] == "json":
        doc = json.loads(out)
        _expect(doc.get("start") == start and doc.get("stop") == stop, "seq range differs")
        texts = doc["values"]
    else:
        texts = _lines(out)
    _expect(len(texts) == stop - start + 1, "seq printed %d terms" % len(texts))
    values = [parse_decimal(t) for t in texts]
    add = 2 if kind == "b" else 0
    _expect(values[0] == term(kind, start), "first term differs")
    if len(values) > 1:
        _expect(values[1] == term(kind, start + 1), "second term differs")
    for i in range(2, len(values)):
        _expect(values[i] == 6 * values[i - 1] - values[i - 2] + add,
                "recurrence broken at index %d" % (start + i))
    return len(values)


def _grid(ident: str, max_n: int) -> int:
    return (max_n + 1) ** ARITY[ident]


def _check_verify_json(spec: dict, out: bytes) -> int:
    doc = json.loads(out)
    ids = spec["ids"] or [i for i, _ in CATALOG]
    _expect(doc.get("suite") == "identity-catalog", "wrong suite")
    _expect(doc.get("max_n") == spec["max_n"], "max_n differs (capped?)")
    _expect(doc.get("pass") is True, "report does not pass")
    records = doc["identities"]
    _expect([r["id"] for r in records] == ids, "report lists %d records, expected %d"
            % (len(records), len(ids)))
    cases = 0
    for r in records:
        _expect(r["failures"] == [], "%s reports failures" % r["id"])
        _expect(r["checked"] > 0 and r["skipped"] >= 0, "%s has bad counts" % r["id"])
        _expect(r["checked"] + r["skipped"] == _grid(r["id"], spec["max_n"]),
                "%s: checked + skipped != grid size" % r["id"])
        cases += r["checked"]
    return cases


def _check_verify_csv(spec: dict, out: bytes) -> int:
    lines = _lines(out)
    _expect(lines[0] == "id,n,m,lhs,rhs,holds", "bad csv header")
    max_n = spec["max_n"]
    per_id: dict[str, int] = {}
    for row in lines[1:]:
        ident, n, m, lhs, rhs, holds = row.split(",")
        _expect(ident in ARITY, "unknown id %s" % ident)
        _expect(holds == "true" and lhs == rhs, "%s fails at n=%s m=%s" % (ident, n, m))
        _expect(0 <= int(n) <= max_n, "n out of range")
        _expect((m == "") == (ARITY[ident] == 1), "m column does not match arity")
        _expect(m == "" or 0 <= int(m) <= max_n, "m out of range")
        per_id[ident] = per_id.get(ident, 0) + 1
    _expect(sorted(per_id) == sorted(ARITY), "csv covers %d of %d ids" % (len(per_id), len(ARITY)))
    for ident, count in per_id.items():
        _expect(count <= _grid(ident, max_n), "%s has more rows than grid points" % ident)
    return len(lines) - 1


def _check_search(spec: dict, out: bytes) -> int:
    expected = members_upto(spec["family"], spec["limit"])
    got = [parse_decimal(t) for t in _lines(out)] if out else []
    _expect(got == expected, "search listed %d members, expected %d" % (len(got), len(expected)))
    return len(got)


def classify_lines(x: int) -> list[str]:
    """Expected plain `classify x` output, from square tests and own terms."""
    lines = []
    s = 8 * x * x + 1
    r = math.isqrt(s)
    if x >= 1 and r * r == s:
        lines.append("balancing: yes (index %d, balancer %d)"
                     % (index_of("B", x), (r - (2 * x + 1)) // 2))
    else:
        lines.append("balancing: no")
    s = 8 * x * x + 8 * x + 1
    r = math.isqrt(s)
    if r * r == s:
        lines.append("cobalancing: yes (index %d, cobalancer %d)"
                     % (index_of("b", x), (r - (2 * x + 1)) // 2))
    else:
        lines.append("cobalancing: no")
    odd = x >= 1 and x % 2 == 1
    t = (x * x - 1) // 8
    y = math.isqrt(t) if odd else -1
    if odd and y * y == t:
        lines.append("lucas-balancing: yes (index %d)" % index_of("B", y))
    else:
        lines.append("lucas-balancing: no")
    y = (math.isqrt(4 * t + 1) - 1) // 2 if odd else -1
    if odd and y * (y + 1) == t:
        lines.append("lucas-cobalancing: yes (index %d)" % index_of("b", y))
    else:
        lines.append("lucas-cobalancing: no")
    return lines


_FAMILY_LINE = {"B": 0, "b": 1, "C": 2, "c": 3}


def _check_classify(spec: dict, out: bytes) -> int:
    expected = classify_lines(spec["x"])
    # The expectation must agree with how x was built before it judges balkit.
    line = expected[_FAMILY_LINE[spec["kind"]]]
    if spec["member"]:
        _expect(": yes (index %d" % spec["k"] in line, "checker cannot place the built member")
    else:
        _expect(line.endswith(": no"), "checker finds the built non-member")
    got = _lines(out)
    _expect(got == expected, "classify output differs: %r" % (got[:4],))
    return 4


_CHECKS = {
    "term": _check_term,
    "seq": _check_seq,
    "verify": _check_verify_json,
    "verify_csv": _check_verify_csv,
    "search": _check_search,
    "classify": _check_classify,
}


def check(spec: dict, out: bytes) -> tuple[bool, str, int, int]:
    """(ok, reason, checked cases, decimal digits) for one request's stdout."""
    try:
        cases = _CHECKS[spec["op"]](spec, out)
    except (CheckError, ValueError, LookupError, TypeError, AttributeError) as exc:
        return False, "%s: %s" % (type(exc).__name__, exc), 0, 0
    return True, "", cases, digit_count(out)


def _verify_report(ids: list[str], max_n: int) -> dict:
    return {
        "identities": [
            {"checked": _grid(i, max_n), "failures": [], "id": i, "skipped": 0, "wall_ms": 0}
            for i in ids
        ],
        "max_n": max_n,
        "pass": True,
        "suite": "identity-catalog",
    }


def _dump(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def self_test() -> list[tuple[str, bool]]:
    """(case, as expected) for correct outputs, which check() must accept, and
    corrupted ones, which it must reject. Outputs are built in balkit's
    formats from this file's own arithmetic."""
    n = 3000
    value = term("B", n)
    ids = ["B_ADD", "PARITY_B"]
    report = _verify_report(ids, 10)
    with_failure = _verify_report(ids, 10)
    with_failure["identities"][0]["failures"] = [{"lhs": "1", "m": 2, "n": 3, "rhs": "2"}]
    failed = _verify_report(ids, 10)
    failed["pass"] = False
    bad_accounting = _verify_report(ids, 10)
    bad_accounting["identities"][1]["checked"] += 1
    short = _verify_report(ids[:1], 10)
    members = members_upto("balancing", 10 ** 6)
    x = term("c", 700)
    classify_ok = "\n".join(classify_lines(x)) + "\n"
    seq_values = [term("b", k) for k in range(40, 46)]
    seq_bad = list(seq_values)
    seq_bad[3] += 2

    term_spec = {"op": "term", "kind": "B", "n": n}
    verify_spec = {"op": "verify", "ids": ids, "max_n": 10}
    search_spec = {"op": "search", "family": "balancing", "limit": 10 ** 6}
    classify_spec = {"op": "classify", "x": x, "kind": "c", "k": 700, "member": True}
    seq_spec = {"op": "seq", "kind": "b", "start": 40, "stop": 45, "format": "plain"}

    def lines(values) -> bytes:
        return ("\n".join(str(v) for v in values) + "\n").encode()

    cases = [
        ("term ok", True, term_spec, lines([value])),
        ("term value+1", False, term_spec, lines([value + 1])),
        ("term n+1 for n", False, term_spec, lines([term("B", n + 1)])),
        ("term C(n) for B(n)", False, term_spec, lines([term("C", n)])),
        ("verify ok", True, verify_spec, _dump(report)),
        ("verify one failure", False, verify_spec, _dump(with_failure)),
        ("verify pass=false", False, verify_spec, _dump(failed)),
        ("verify broken accounting", False, verify_spec, _dump(bad_accounting)),
        ("verify missing record", False, verify_spec, _dump(short)),
        ("search ok", True, search_spec, lines(members)),
        ("search missing member", False, search_spec, lines(members[:3] + members[4:])),
        ("classify ok", True, classify_spec, classify_ok.encode()),
        ("classify wrong index", False, classify_spec,
         classify_ok.replace("(index 700)", "(index 701)").encode()),
        ("seq ok", True, seq_spec, lines(seq_values)),
        ("seq broken recurrence", False, seq_spec, lines(seq_bad)),
    ]
    return [(name, check(spec, out)[0] == accept) for name, accept, spec, out in cases]
