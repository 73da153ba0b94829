"""Command-line front end: compute terms, verify identities, classify, search, bench.

Exit codes are part of the contract: 0 for success (or an all-pass
verification), 1 when a verification run found failures, 2 for usage or
domain errors, 141 (128 + SIGPIPE) when the reader of stdout closed it
early. Data goes to stdout, diagnostics to stderr. Long outputs (seq,
search, verify reports) are written a value, row or record at a time.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Iterable, Optional

# Only the modules every command needs load here: verify imports harness
# (and with it identities) when it runs.
from . import oracle
from .sequences import (
    _ALWAYS_STR_BITS,
    _LOG2_LAMBDA,
    _STR_MAX_BITS,
    DomainError,
    SequenceKind,
    UnknownIdentityError,
    check_range,
    decimal_digits,
    decimal_str,
    digits_bound,
    exact_context,
    generator_prefix,
    index_of,
    pair_bc,
    parse_kind,
    stream,
    term_binet,
    term_doubling,
    term_recurrence,
)

# term and seq refuse, before any arithmetic, a request whose terms have
# more than PRINT_DIGITS_MAX digits by digits_bound: 100 MB of output, about
# B(1.3e8) or seq B 0 16160. There the doubling term takes about 16 s and
# 400 MB (B(6e7) takes 6.7 s and 172 MB), and seq B 0 16160 takes 0.3 s and
# 58 MB in plain, json and csv alike, as it writes one value at a time. The
# slower term routes are capped by index near a minute's work: recurrence is
# quadratic (B(2e5) takes 3.5 s) and binet grows about as n**1.6 (B(4e6)
# takes 4.7 s). Measured on a 2-core x86-64 host with CPython 3.11.
PRINT_DIGITS_MAX = 10**8
TERM_N_MAX = {"recurrence": 5 * 10**5, "binet": 10**7}
# bench refuses n above its method's cap before timing anything. Its
# recurrence shares term's; its int doubling grows about as n**1.6, and at
# n = 10**7 takes 17 s, and the whole run with its digit count and Pell check
# about 50 s (same host). The digit count of B(10**7) alone takes 3.7 s.
BENCH_N_MAX = {"recurrence": TERM_N_MAX["recurrence"], "doubling": 10**7}


def _check_size(kind: SequenceKind, start: int, stop: int, method: str = "") -> None:
    check_range(kind, start, stop)
    digits = digits_bound(start, stop)
    if digits > PRINT_DIGITS_MAX:
        span = "%d" % start if start == stop else "%d..%d" % (start, stop)
        raise DomainError(
            "%s(%s) has up to %d digits, above the limit of %d"
            % (kind.short, span, digits, PRINT_DIGITS_MAX))
    cap = TERM_N_MAX.get(method)
    if cap is not None and stop > cap:
        raise DomainError("term --method %s takes n <= %d, got n=%d" % (method, cap, stop))


def _past(n: int, bits: int) -> bool:
    """Whether the term at index n has an estimated bit length above bits.

    Past _STR_MAX_BITS (term) or _ALWAYS_STR_BITS (seq), computing in
    Decimal and printing with str() costs less than str() of the int.
    """
    return n * _LOG2_LAMBDA > bits


def _term_value(kind: SequenceKind, n: int, method: str) -> int:
    if method == "recurrence":
        return term_recurrence(kind, n)
    if method == "binet":
        return term_binet(kind, n)
    return term_doubling(kind, n)  # "doubling" and "auto"


def _print_json(obj) -> None:
    import json

    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _write_json_strings(head: str, values: Iterable[str], tail: str) -> None:
    """Write head, a JSON array of the strings in values, then tail, one
    value per write, so a long list is never held whole as text. Callers
    pass decimals and fixed names, which JSON quotes as they are, and
    order the keys of head and tail as json.dumps(sort_keys=True) would."""
    write = sys.stdout.write
    write(head + "[")
    sep = '"'
    for v in values:
        write(sep + v + '"')
        sep = ',"'
    write("]" + tail)


def _cmd_term(args: argparse.Namespace) -> int:
    kind = parse_kind(args.kind)
    _check_size(kind, args.n, args.n, args.method)
    if args.method in ("auto", "doubling") and _past(args.n, _STR_MAX_BITS):
        with exact_context() as ctx:
            text = str(term_doubling(kind, args.n, ctx.create_decimal(1)))
    else:
        text = decimal_str(_term_value(kind, args.n, args.method))
    if args.format == "json":
        _print_json({"kind": kind.value, "n": args.n, "value": text})
    else:
        sys.stdout.write(text + "\n")
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    kind = parse_kind(args.kind)
    _check_size(kind, args.start, args.stop)
    if _past(args.stop, _ALWAYS_STR_BITS):
        with exact_context() as ctx:
            values = stream(kind, args.start, args.stop, ctx.create_decimal(1))
        render = str
    else:
        values = stream(kind, args.start, args.stop)
        render = decimal_str
    if args.format == "json":
        _write_json_strings(
            '{"kind":"%s","start":%d,"stop":%d,"values":' % (kind.value, args.start, args.stop),
            map(render, values),
            "}\n",
        )
    elif args.format == "csv":
        sys.stdout.write("n,value\n")
        for n, v in enumerate(values, args.start):
            sys.stdout.write("%d,%s\n" % (n, render(v)))
    else:
        for v in values:
            sys.stdout.write(render(v) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import harness

    if args.verbose and args.format == "csv":
        # The run writes each case's row as it evaluates the case.
        report = harness.run_suite(args.max_n, ids=args.id, jobs=args.jobs,
                                   write=sys.stdout.write)
    else:
        report = harness.run_suite(args.max_n, ids=args.id, jobs=args.jobs)
        for piece in harness.report_lines(report, args.format):
            sys.stdout.write(piece)
    return 0 if report.passed else 1


def _classify(x: int) -> dict:
    out: dict = {"value": decimal_str(x)}
    # One square root per family: a witness decides membership and gives r.
    for kind, witness, role in (
        (SequenceKind.BALANCING, oracle.balancer_of, "balancer"),
        (SequenceKind.COBALANCING, oracle.cobalancer_of, "cobalancer"),
    ):
        try:
            w = witness(x)
        except DomainError:
            out[kind.value] = {"member": False}
            continue
        out[kind.value] = {"member": True, "index": index_of(kind, x), role: decimal_str(w.r)}

    # x = C(k) iff x is odd and t = (x^2 - 1)/8 is the square of a balancing
    # number (or of 0, giving the 0th term); the square root is then B(k).
    # x = c(k) iff x is odd and t = b*(b+1) for a cobalancing b.
    lucas_b: Optional[int] = None
    lucas_c: Optional[int] = None
    if x >= 1 and x % 2 == 1:
        t = (x * x - 1) // 8
        y = oracle.isqrt(t)
        if y * y == t:
            lucas_b = index_of(SequenceKind.BALANCING, y)
        b = (oracle.isqrt(4 * t + 1) - 1) // 2
        if b * (b + 1) == t:
            lucas_c = index_of(SequenceKind.COBALANCING, b)
    for key, idx in (("lucas-balancing", lucas_b), ("lucas-cobalancing", lucas_c)):
        out[key] = {"member": False} if idx is None else {"member": True, "index": idx}
    return out


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.value < 0:
        raise DomainError("classify expects a nonnegative integer, got %d" % args.value)
    result = _classify(args.value)
    if args.format == "json":
        _print_json(result)
    else:
        for key in ("balancing", "cobalancing", "lucas-balancing", "lucas-cobalancing"):
            info = result[key]
            if not info["member"]:
                sys.stdout.write("%s: no\n" % key)
            else:
                suffix = "".join(", %s %s" % (r, info[r]) for r in ("balancer", "cobalancer")
                                 if r in info)
                sys.stdout.write("%s: yes (index %d%s)\n" % (key, info["index"], suffix))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    family = parse_kind(args.family)
    if args.limit < 0:
        raise DomainError("limit must be >= 0, got %d" % args.limit)
    if args.method == "oracle":
        members = oracle.search_family(family, args.limit)
    else:
        # Both walks gain two bits or more per index: with add >= 0 and the
        # terms increasing, x(k+1) = 6*x(k) - x(k-1) + add >= 5*x(k). So from
        # B(1) = 1 and b(2) = 2, B(k) >= 2**(2k-2) and b(k) >= 2**(2k-3) for
        # k >= 2, and a member <= limit < 2**L, L = limit.bit_length(), has
        # 2k-3 < L, that is k <= L//2 + 1. The output is capped as seq's is.
        _check_size(family, 1, args.limit.bit_length() // 2 + 1)
        members = generator_prefix(family, args.limit)
    if args.format == "json":
        _write_json_strings(
            '{"family":"%s","limit":"%s","members":' % (family.value, decimal_str(args.limit)),
            map(decimal_str, members),
            ',"method":"%s"}\n' % args.method,
        )
    else:
        if args.format == "csv":
            sys.stdout.write("value\n")
        for v in members:
            sys.stdout.write(decimal_str(v) + "\n")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise DomainError("n must be >= 1, got %d" % args.n)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in BENCH_N_MAX:
            raise DomainError("unknown bench method %r (use recurrence, doubling)" % m)
        if args.n > BENCH_N_MAX[m]:
            raise DomainError("bench --methods %s takes n <= %d, got n=%d"
                              % (m, BENCH_N_MAX[m], args.n))
    if not methods:
        raise DomainError("no bench methods selected")

    values: dict[str, int] = {}
    companion: Optional[int] = None
    sys.stdout.write("method,seconds,digits\n")
    for m in methods:
        started = time.perf_counter()
        if m == "recurrence":
            value = term_recurrence(SequenceKind.BALANCING, args.n)
        else:
            value, companion = pair_bc(args.n)
        elapsed = time.perf_counter() - started
        values[m] = value
        sys.stdout.write("%s,%.6f,%d\n" % (m, elapsed, decimal_digits(value)))

    if companion is not None:
        # Self-check the doubling result against the Pell relation.
        b_val = values["doubling"]
        pell_ok = companion * companion - 8 * b_val * b_val == 1
        sys.stdout.write("pell: %s\n" % ("ok" if pell_ok else "VIOLATED"))
        if not pell_ok:
            return 1
    if len(values) == 2:
        equal = values["recurrence"] == values["doubling"]
        sys.stdout.write("equal: %s\n" % ("true" if equal else "false"))
        if not equal:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balkit",
        description=(
            "Exact computation and verification for balancing, cobalancing "
            "and their Pell companion sequences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(
        name: str, help_text: str, formats: tuple[str, ...]
    ) -> argparse.ArgumentParser:
        # A command offers exactly the formats it writes; argparse refuses
        # any other with exit 2 before the command runs.
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=formats, default="plain",
                       help="output format (default: plain)")
        return p

    all_formats = ("plain", "json", "csv")
    p_term = add_command("term", "print one sequence term", ("plain", "json"))
    p_term.add_argument("kind", help="B, C, b, c or a long sequence name")
    p_term.add_argument("n", type=int, help="index")
    p_term.add_argument(
        "--method",
        choices=("auto", "recurrence", "binet", "doubling"),
        default="auto",
        help="evaluation route (auto: doubling)",
    )
    p_term.set_defaults(func=_cmd_term)

    p_seq = add_command("seq", "print consecutive sequence terms", all_formats)
    p_seq.add_argument("kind", help="B, C, b, c or a long sequence name")
    p_seq.add_argument("start", type=int, help="first index (inclusive)")
    p_seq.add_argument("stop", type=int, help="last index (inclusive)")
    p_seq.set_defaults(func=_cmd_seq)

    p_verify = add_command("verify", "run the identity verification suite", all_formats)
    p_verify.add_argument("--max-n", type=int, default=50, dest="max_n", metavar="N")
    p_verify.add_argument(
        "--id",
        action="append",
        metavar="IDENT",
        help="restrict to this identity id (repeatable; default: all)",
    )
    p_verify.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="run the identities on at most N processes (default: one per usable "
        "CPU); never more than one per identity, and one with --format csv "
        "--verbose; the report does not depend on N",
    )
    p_verify.add_argument(
        "--verbose",
        action="store_true",
        help="with --format csv, emit one row per evaluated case",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = add_command("classify", "membership tests for one integer", ("plain", "json"))
    p_classify.add_argument("value", type=int, help="nonnegative decimal integer")
    p_classify.set_defaults(func=_cmd_classify)

    p_search = add_command("search", "list family members up to a bound", all_formats)
    p_search.add_argument("family", choices=("balancing", "cobalancing"))
    p_search.add_argument("--limit", type=int, required=True, metavar="N")
    p_search.add_argument(
        "--method",
        choices=("oracle", "generator"),
        default="generator",
        help="brute-force square-test scan, or the fast generator (default)",
    )
    p_search.set_defaults(func=_cmd_search)

    p_bench = add_command("bench", "time evaluation methods on B(n)", ("plain",))
    p_bench.add_argument("--n", type=int, required=True, metavar="N")
    p_bench.add_argument(
        "--methods",
        default="recurrence,doubling",
        help="comma-separated subset of recurrence,doubling",
    )
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # terms can run to hundreds of thousands of digits
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.12 can hand a positional an empty list when
    # "--" is repeated (`term B -- --`); no option here takes a list that way.
    empty = [name for name, value in vars(args).items() if value == []]
    if empty:
        parser.error("argument %s: expected one argument" % empty[0])
    try:
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so a reader gone by now is caught too
        return code
    except BrokenPipeError:
        # The reader closed the pipe (`balkit seq B 0 5000 | head -1`). Point
        # stdout at devnull, so the flush at exit cannot fail again, and exit
        # quietly with the status of a process killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (DomainError, UnknownIdentityError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
