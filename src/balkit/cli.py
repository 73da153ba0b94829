"""Command-line front end: compute terms, verify identities, classify, search, bench.

Exit codes are part of the contract: 0 for success (or an all-pass
verification), 1 when a verification run found failures, 2 for usage or
domain errors. Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Optional

from . import harness, identities, oracle
from .sequences import (
    DomainError,
    SequenceKind,
    pair_bc,
    pair_cobal,
    parse_kind,
    stream,
    term_binet,
    term_recurrence,
)

_AUTO_DOUBLING_ABOVE = 64

_LOG10_2 = math.log10(2)


def _decimal_digits(x: int) -> int:
    """Exact decimal digit count without converting x to a string."""
    if x == 0:
        return 1
    x = abs(x)
    est = int((x.bit_length() - 1) * _LOG10_2)  # never overshoots log10(x)
    while 10 ** (est + 1) <= x:
        est += 1
    return est + 1


# Values up to this many bits are rendered by str(). Above it, CPython's
# quadratic int -> str (before 3.12) loses to the Decimal conversion below,
# import of decimal included (crossover measured near 2^15 bits with
# CPython 3.11 on x86-64).
_STR_MAX_BITS = 1 << 15
_LEAF_BITS = 1024  # at or below this, Decimal(int) converts directly


def _decimal_str(x: int) -> str:
    """str(x), in subquadratic time for large x.

    Every decimal value the CLI prints goes through here. A large x is split
    recursively at powers of two, x = hi * 2**h + lo, and rebuilt as a
    decimal.Decimal, whose libmpdec multiply is subquadratic. The context is
    unbounded and traps Inexact and Rounded, so the result is exact or the
    conversion raises.
    """
    if x.bit_length() <= _STR_MAX_BITS:
        return str(x)
    import decimal

    dec = decimal.Decimal
    powers: dict = {}

    def pow2(w: int):
        p = powers.get(w)
        if p is None:
            if w <= _LEAF_BITS:
                p = dec(1 << w)
            elif w - 1 in powers:
                p = 2 * powers[w - 1]
            else:
                p = pow2(w >> 1) * pow2(w - (w >> 1))
            powers[w] = p
        return p

    def convert(v: int, w: int):  # |v| < 2**w; the split is exact for either sign
        if w <= _LEAF_BITS:
            return dec(v)
        h = w >> 1
        hi = v >> h
        return convert(v - (hi << h), h) + convert(hi, w - h) * pow2(h)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        ctx.traps[decimal.Rounded] = True
        return str(convert(x, x.bit_length()))


def _term_value(kind: SequenceKind, n: int, method: str) -> int:
    if method == "auto":
        method = "doubling" if n > _AUTO_DOUBLING_ABOVE else "recurrence"
    if method == "recurrence":
        return term_recurrence(kind, n)
    if method == "binet":
        return term_binet(kind, n)
    if method == "doubling":
        if kind is SequenceKind.BALANCING:
            return pair_bc(n)[0]
        if kind is SequenceKind.LUCAS_BALANCING:
            return pair_bc(n)[1]
        if n < kind.min_index:
            raise DomainError(
                "%s is defined for n >= %d, got n=%d" % (kind.value, kind.min_index, n)
            )
        pair = pair_cobal(n)
        return pair[0] if kind is SequenceKind.COBALANCING else pair[1]
    raise DomainError("unknown method %r" % method)


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _cmd_term(args: argparse.Namespace) -> int:
    kind = parse_kind(args.kind)
    value = _term_value(kind, args.n, args.method)
    if args.format == "json":
        _print_json({"kind": kind.value, "n": args.n, "value": _decimal_str(value)})
    elif args.format == "plain":
        sys.stdout.write(_decimal_str(value) + "\n")
    else:
        raise DomainError("term supports plain or json output")
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    kind = parse_kind(args.kind)
    terms = stream(kind, args.start, args.stop)
    if args.format == "json":
        _print_json(
            {
                "kind": kind.value,
                "start": args.start,
                "stop": args.stop,
                "values": [_decimal_str(t.value) for t in terms],
            }
        )
    elif args.format == "csv":
        rows = ["n,value"] + ["%d,%s" % (t.n, _decimal_str(t.value)) for t in terms]
        sys.stdout.write("\n".join(rows) + "\n")
    else:
        for t in terms:
            sys.stdout.write(_decimal_str(t.value) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    max_n = args.max_n
    cap = os.environ.get("BALKIT_MAX_N")
    if cap is not None:
        max_n = min(max_n, int(cap))
    report = harness.run_suite(
        max_n,
        ids=args.id,
        workers=args.jobs,
        collect_cases=args.verbose and args.format == "csv",
    )
    sys.stdout.write(harness.emit_report(report, args.format).decode("utf-8"))
    return 0 if report.passed else 1


def _index_of(values_from_1, target: int) -> Optional[int]:
    """Index n >= 1 with generator(n) == target, scanning ascending."""
    n = 1
    while True:
        value = values_from_1(n)
        if value == target:
            return n
        if value > target:
            return None
        n += 1


def _classify(x: int) -> dict:
    out: dict = {"value": _decimal_str(x)}

    if oracle.is_balancing(x):
        w = oracle.balancer_of(x)
        idx = _index_of(lambda n: pair_bc(n)[0], x)
        out["balancing"] = {"member": True, "index": idx, "balancer": _decimal_str(w.r)}
    else:
        out["balancing"] = {"member": False}

    if oracle.is_cobalancing(x):
        w = oracle.cobalancer_of(x)
        idx = _index_of(lambda n: pair_cobal(n)[0], x)
        out["cobalancing"] = {"member": True, "index": idx, "cobalancer": _decimal_str(w.r)}
    else:
        out["cobalancing"] = {"member": False}

    # x = C(k) iff x is odd and (x^2 - 1)/8 is the square of a balancing
    # number (or of 0, giving the 0th term); the square root is then B(k).
    lucas_b: Optional[int] = None
    if x >= 1 and x % 2 == 1:
        t = (x * x - 1) // 8
        y = oracle.isqrt(t)
        if y * y == t:
            lucas_b = 0 if y == 0 else _index_of(lambda n: pair_bc(n)[0], y)
    out["lucas-balancing"] = (
        {"member": True, "index": lucas_b} if lucas_b is not None else {"member": False}
    )

    # x = c(k) iff x is odd and (x^2 - 1)/8 = b*(b+1) for a cobalancing b.
    lucas_c: Optional[int] = None
    if x >= 1 and x % 2 == 1:
        t = (x * x - 1) // 8
        b = (oracle.isqrt(4 * t + 1) - 1) // 2
        if b * (b + 1) == t:
            lucas_c = _index_of(lambda n: pair_cobal(n)[0], b)
    out["lucas-cobalancing"] = (
        {"member": True, "index": lucas_c} if lucas_c is not None else {"member": False}
    )
    return out


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        x = int(args.value)
    except ValueError:
        raise DomainError("classify expects a decimal integer, got %r" % args.value)
    if x < 0:
        raise DomainError("classify expects a nonnegative integer, got %d" % x)
    result = _classify(x)
    if args.format == "json":
        _print_json(result)
    elif args.format == "plain":
        for key in ("balancing", "cobalancing", "lucas-balancing", "lucas-cobalancing"):
            info = result[key]
            if not info["member"]:
                sys.stdout.write("%s: no\n" % key)
            elif "balancer" in info:
                sys.stdout.write(
                    "%s: yes (index %d, balancer %s)\n" % (key, info["index"], info["balancer"])
                )
            elif "cobalancer" in info:
                sys.stdout.write(
                    "%s: yes (index %d, cobalancer %s)\n"
                    % (key, info["index"], info["cobalancer"])
                )
            else:
                sys.stdout.write("%s: yes (index %d)\n" % (key, info["index"]))
    else:
        raise DomainError("classify supports plain or json output")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.family == "balancing":
        family = SequenceKind.BALANCING
    elif args.family == "cobalancing":
        family = SequenceKind.COBALANCING
    else:
        raise DomainError("family must be balancing or cobalancing, got %r" % args.family)
    if args.limit < 0:
        raise DomainError("limit must be >= 0, got %d" % args.limit)
    if args.method == "oracle":
        members = oracle.search_family(family, args.limit)
    else:
        members = harness.generator_prefix(family, args.limit)
    if args.format == "json":
        _print_json(
            {
                "family": family.value,
                "limit": _decimal_str(args.limit),
                "method": args.method,
                "members": [_decimal_str(v) for v in members],
            }
        )
    elif args.format == "csv":
        sys.stdout.write("\n".join(["value"] + [_decimal_str(v) for v in members]) + "\n")
    else:
        for v in members:
            sys.stdout.write(_decimal_str(v) + "\n")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise DomainError("n must be >= 1, got %d" % args.n)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ("recurrence", "doubling"):
            raise DomainError("unknown bench method %r (use recurrence, doubling)" % m)
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
        sys.stdout.write("%s,%.6f,%d\n" % (m, elapsed, _decimal_digits(value)))

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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("plain", "json", "csv"),
        default="plain",
        help="output format (default: plain)",
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker count for verification (default: 1)",
    )
    common.add_argument(
        "--verbose",
        action="store_true",
        help="with --format csv, emit one row per evaluated case",
    )

    parser = argparse.ArgumentParser(
        prog="balkit",
        description=(
            "Exact computation and verification for balancing, cobalancing "
            "and their Pell companion sequences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=[common])

    p_term = add_command("term", "print one sequence term")
    p_term.add_argument("kind", help="B, C, b, c or a long sequence name")
    p_term.add_argument("n", type=int, help="index")
    p_term.add_argument(
        "--method",
        choices=("auto", "recurrence", "binet", "doubling"),
        default="auto",
        help="evaluation route (auto: doubling for n > %d)" % _AUTO_DOUBLING_ABOVE,
    )
    p_term.set_defaults(func=_cmd_term)

    p_seq = add_command("seq", "print consecutive sequence terms")
    p_seq.add_argument("kind", help="B, C, b, c or a long sequence name")
    p_seq.add_argument("start", type=int, help="first index (inclusive)")
    p_seq.add_argument("stop", type=int, help="last index (inclusive)")
    p_seq.set_defaults(func=_cmd_seq)

    p_verify = add_command("verify", "run the identity verification suite")
    p_verify.add_argument("--max-n", type=int, default=50, dest="max_n", metavar="N")
    p_verify.add_argument(
        "--id",
        action="append",
        metavar="IDENT",
        help="restrict to this identity id (repeatable; default: all)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = add_command("classify", "membership tests for one integer")
    p_classify.add_argument("value", help="nonnegative decimal integer")
    p_classify.set_defaults(func=_cmd_classify)

    p_search = add_command("search", "list family members up to a bound")
    p_search.add_argument("family", help="balancing or cobalancing")
    p_search.add_argument("--limit", type=int, required=True, metavar="N")
    p_search.add_argument(
        "--method",
        choices=("oracle", "generator"),
        default="generator",
        help="brute-force square-test scan, or the fast generator (default)",
    )
    p_search.set_defaults(func=_cmd_search)

    p_bench = add_command("bench", "time evaluation methods on B(n)")
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
    try:
        return args.func(args)
    except (DomainError, identities.UnknownIdentityError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
