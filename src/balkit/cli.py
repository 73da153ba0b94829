"""Command-line front end: compute terms, verify identities, classify, search, bench.

Exit codes are part of the contract: 0 for success (or an all-pass
verification), 1 when a verification run found failures, 2 for usage or
domain errors, 3 when a verify worker process died without a result, 141
(128 + SIGPIPE) when the reader of stdout closed it early. Data goes to
stdout, diagnostics to stderr. Long outputs (seq, search, verify reports)
are written a value, row or record at a time.

COMMANDS states each command's inputs once, and parse_args reads a command
line against it by argparse's rules and messages, without importing
argparse (with gettext and locale, about 0.5 MB and several ms of every
process's start). A refused line exits 2 with a usage line and
"balkit <command>: error: ..." on stderr; -h shows the help.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from types import SimpleNamespace
from typing import Iterable, NoReturn, Optional

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
    WorkerError,
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
# B(1.3e8) or seq B 0 16160. There term B and term c take 28 and 24 s by
# doubling and 41 and 30 s by the closed form, in 301 to 358 MB; seq B 0
# 16160 takes 0.4 s and 15 MB in any format, as it computes and writes one
# value at a time. The quadratic recurrence is capped by index near a
# minute's work (B(2e5) takes 3.5 s). Measured on a 2-core x86-64 host,
# CPython 3.11.
PRINT_DIGITS_MAX = 10**8
TERM_N_MAX = {"recurrence": 5 * 10**5}
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


def _cmd_term(args: SimpleNamespace) -> int:
    kind = parse_kind(args.kind)
    _check_size(kind, args.n, args.n, args.method)
    route = {"recurrence": term_recurrence, "binet": term_binet}.get(args.method, term_doubling)
    # Past this estimated bit length, Decimal products cost less than str() of the int.
    if args.method != "recurrence" and args.n * _LOG2_LAMBDA > _STR_MAX_BITS:
        with exact_context() as ctx:
            text = str(route(kind, args.n, ctx.create_decimal(1)))
    else:
        text = decimal_str(route(kind, args.n))
    # In slices, so the whole value is never copied; keys in json.dumps(sort_keys=True) order.
    write = sys.stdout.write
    if args.format == "json":
        write('{"kind":"%s","n":%d,"value":"' % (kind.value, args.n))
    for i in range(0, len(text), 65536):
        write(text[i:i + 65536])
    write('"}\n' if args.format == "json" else "\n")
    return 0


def _cmd_seq(args: SimpleNamespace) -> int:
    kind = parse_kind(args.kind)
    _check_size(kind, args.start, args.stop)
    # Past this estimated bit length of the last term, Decimal costs less than
    # str() of the ints; below it each term has under 640 digits, so str() is decimal_str().
    # stream() returns a view that computes each term as it is written, so
    # the Decimal terms are written inside the context they are computed in.
    if args.stop * _LOG2_LAMBDA > _ALWAYS_STR_BITS:
        with exact_context() as ctx:
            _write_seq(args, kind, stream(kind, args.start, args.stop, ctx.create_decimal(1)))
    else:
        _write_seq(args, kind, stream(kind, args.start, args.stop))
    return 0


def _write_seq(args: SimpleNamespace, kind: SequenceKind, values: Iterable) -> None:
    if args.format == "json":
        _write_json_strings(
            '{"kind":"%s","start":%d,"stop":%d,"values":' % (kind.value, args.start, args.stop),
            map(str, values),
            "}\n",
        )
    elif args.format == "csv":
        sys.stdout.write("n,value\n")
        for n, v in enumerate(values, args.start):
            sys.stdout.write("%d,%s\n" % (n, v))
    else:
        for v in values:
            sys.stdout.write(str(v) + "\n")


def _cmd_verify(args: SimpleNamespace) -> int:
    from . import harness

    # A verbose csv run writes each case's row as it evaluates the case.
    streamed = args.verbose and args.format == "csv"
    report = harness.run_suite(args.max_n, ids=args.id, jobs=args.jobs,
                               write=sys.stdout.write if streamed else None)
    if not streamed:
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

    # The Lucas families by their root conditions: one root each for odd x.
    for kind in (SequenceKind.LUCAS_BALANCING, SequenceKind.LUCAS_COBALANCING):
        out[kind.value] = ({"member": True, "index": index_of(kind, x)}
                           if oracle.is_lucas(kind, x) else {"member": False})
    return out


def _cmd_classify(args: SimpleNamespace) -> int:
    if args.value < 0:
        raise DomainError("classify expects a nonnegative integer, got %d" % args.value)
    result = _classify(args.value)
    if args.format == "json":
        import json
        sys.stdout.write(json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n")
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


def _cmd_search(args: SimpleNamespace) -> int:
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


def _cmd_bench(args: SimpleNamespace) -> int:
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
        pell_ok = companion * companion - 8 * (b_val * b_val) == 1
        sys.stdout.write("pell: %s\n" % ("ok" if pell_ok else "VIOLATED"))
        if not pell_ok:
            return 1
    if len(values) == 2:
        equal = values["recurrence"] == values["doubling"]
        sys.stdout.write("equal: %s\n" % ("true" if equal else "false"))
        if not equal:
            return 1
    return 0


class Arg:
    """One input of a command: an option if its name starts with "--" (its
    dest is the name without the dashes, "-" read as "_"), else a required
    positional. type int converts the text with int(), so " 7", "+3" and
    "1_0" parse; bool makes a flag that stores True, and list an option
    that repeats and collects its texts."""

    __slots__ = ("name", "positional", "dest", "type", "choices", "default", "required",
                 "help", "metavar")

    def __init__(self, name: str, type: type = str, choices: Optional[tuple] = None,
                 default: object = None, required: bool = False, help: str = "",
                 metavar: Optional[str] = None) -> None:
        self.name, self.type, self.choices, self.help = name, type, choices, help
        self.positional = not name.startswith("-")
        self.dest = name.lstrip("-").replace("-", "_")
        self.default = False if type is bool else default
        self.required = required or self.positional
        if choices is not None:
            metavar = "{%s}" % ",".join(choices)
        self.metavar = metavar or (name if self.positional else self.dest.upper())

    def form(self) -> str:
        """The input as usage and help show it: kind, --id IDENT, --verbose."""
        if self.positional:
            return self.metavar
        return self.name if self.type is bool else "%s %s" % (self.name, self.metavar)


_KIND_HELP = "B, C, b, c or a long sequence name"
_ALL_FORMATS = ("plain", "json", "csv")

# Each command's help line, the formats it writes (its --format choices,
# plain the default) and its other inputs.
COMMANDS: dict[str, tuple[str, tuple[str, ...], tuple[Arg, ...]]] = {
    "term": ("print one sequence term", ("plain", "json"), (
        Arg("kind", help=_KIND_HELP),
        Arg("n", int, help="index"),
        Arg("--method", choices=("auto", "recurrence", "binet", "doubling"), default="auto",
            help="evaluation route (auto: doubling)"),
    )),
    "seq": ("print consecutive sequence terms", _ALL_FORMATS, (
        Arg("kind", help=_KIND_HELP),
        Arg("start", int, help="first index (inclusive)"),
        Arg("stop", int, help="last index (inclusive)"),
    )),
    "verify": ("run the identity verification suite", _ALL_FORMATS, (
        Arg("--max-n", int, default=50, metavar="N",
            help="check each identity on the index grid 0..N (default: 50)"),
        Arg("--id", list, metavar="IDENT",
            help="restrict to this identity id (repeatable; default: all)"),
        Arg("--jobs", int, metavar="N",
            help="run the identities on at most N processes (default: one per usable "
                 "CPU); never more than one per identity, and one with --format csv "
                 "--verbose; the report does not depend on N"),
        Arg("--verbose", bool, help="with --format csv, emit one row per evaluated case"),
    )),
    "classify": ("membership tests for one integer", ("plain", "json"), (
        Arg("value", int, help="nonnegative decimal integer"),
    )),
    "search": ("list family members up to a bound", _ALL_FORMATS, (
        Arg("family", choices=("balancing", "cobalancing"), help="the family to list"),
        Arg("--limit", int, required=True, metavar="N", help="list the members <= N"),
        Arg("--method", choices=("oracle", "generator"), default="generator",
            help="brute-force square-test scan, or the fast generator (default)"),
    )),
    "bench": ("time evaluation methods on B(n)", ("plain",), (
        Arg("--n", int, required=True, metavar="N", help="the index n of the timed B(n)"),
        Arg("--methods", default="recurrence,doubling",
            help="comma-separated subset of recurrence,doubling"),
    )),
}

_HELP = Arg("-h/--help", bool, help="show this help message and exit")


def _is_number(text: str) -> bool:
    """Whether "-" + text is a negative number to argparse: -5, -.5, -1.5."""
    whole, dot, frac = text.partition(".")
    if not dot:
        return whole.isdecimal()
    return frac.isdecimal() and (whole == "" or whole.isdecimal())


def _fail(usage: str, prog: str, message: str) -> NoReturn:
    sys.stderr.write("%s\n%s: error: %s\n" % (usage, prog, message))
    raise SystemExit(2)


def _help(usage: str, text: str, sections: dict[str, list[Arg]]) -> NoReturn:
    width = max(len(a.form()) for rows in sections.values() for a in rows)
    lines = [usage, "", text]
    for title, rows in sections.items():
        if rows:
            lines += ["", title + ":"] + ["  %-*s  %s" % (width, a.form(), a.help) for a in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _parse_command(command: str, tokens: list[str]) -> SimpleNamespace:
    help_line, formats, table = COMMANDS[command]
    args = (Arg("--format", choices=formats, default="plain",
                help="output format (default: plain)"),) + table
    positionals = [a for a in args if a.positional]
    options = {"-h": _HELP, "--help": _HELP}
    options.update((a.name, a) for a in args if not a.positional)
    prog = "balkit " + command
    usage = "usage: %s [-h] %s" % (prog, " ".join(
        a.form() if a.required else "[%s]" % a.form()
        for a in sorted(args, key=lambda a: a.positional)))

    def fail(message: str) -> NoReturn:
        _fail(usage, prog, message)

    def read(token: str) -> Optional[tuple[Optional[Arg], Optional[str]]]:
        # None for a value, else the option the token names (None for an
        # unknown one) and its "=" value: --opt=value, a unique prefix of a
        # long option, or -hx for -h x.
        if token[:1] != "-" or token == "-":
            return None
        head, eq, value = token.partition("=")
        if token in options:
            return options[token], None
        if eq and head in options:
            return options[head], value
        if token[1] == "-":
            names = [name for name in options if name.startswith(head)]
            if len(names) > 1:
                fail("ambiguous option: %s could match %s" % (token, ", ".join(names)))
            if names:
                return options[names[0]], value if eq else None
        elif token[:2] in options:
            return options[token[:2]], token[2:]
        if _is_number(token[1:]) or " " in token:
            return None
        return None, None

    # Every token before the first "--" is read before any is used, as
    # argparse does, so an ambiguous prefix is refused, and -h shows the
    # help, wherever they stand. The "--" reads as False, every token after
    # it as a value.
    end = tokens.index("--") if "--" in tokens else len(tokens)
    readings = [read(t) for t in tokens[:end]] + [False] + [None] * len(tokens[end + 1:])
    if (_HELP, None) in readings:
        _help(usage, help_line, {"positional arguments": positionals,
                                 "options": [_HELP] + [a for a in args if not a.positional]})

    ns = SimpleNamespace(command=command, func=globals()["_cmd_" + command],
                         **{a.dest: a.default for a in args})

    def store(arg: Arg, text: Optional[str]) -> None:
        if arg.type is bool:
            if text is not None:
                fail("argument %s: ignored explicit argument %r" % (arg.name, text))
            value: object = True
        elif arg.type is list:
            value = (getattr(ns, arg.dest) or []) + [text]
        else:
            try:
                value = int(text) if arg.type is int else text
            except ValueError:
                fail("argument %s: invalid int value: %r" % (arg.name, text))
            if arg.choices is not None and value not in arg.choices:
                fail("argument %s: invalid choice: %r (choose from %s)"
                     % (arg.name, value, ", ".join(map(repr, arg.choices))))
        setattr(ns, arg.dest, value)

    seen, unknown = [], []
    waiting = iter(positionals)
    i = 0
    while i < len(tokens):
        token, reading = tokens[i], readings[i]
        i += 1
        if reading is False:
            continue
        arg, text = (next(waiting, None), token) if reading is None else reading
        if arg is None:
            unknown.append(token)
            continue
        if text is None and arg.type is not bool:
            # The value is the next token, which must not read as an option.
            if i == len(tokens) or readings[i] is not None:
                fail("argument %s: expected one argument" % arg.name)
            text = tokens[i]
            i += 1
        seen.append(arg)
        store(arg, text)
    missing = [a.name for a in args if a.required and a not in seen]
    if missing:
        fail("the following arguments are required: %s" % ", ".join(missing))
    if unknown:
        fail("unrecognized arguments: %s" % " ".join(unknown))
    return ns


def parse_args(argv: Optional[list[str]] = None) -> SimpleNamespace:
    """Read a balkit command line (sys.argv[1:] by default) against COMMANDS
    by argparse's rules: options anywhere after the command, as --opt value,
    --opt=value or a unique prefix of --opt; "--" ends them; "-" and
    negative numbers are values. Returns the inputs by dest, with command
    and func, the command's handler. A refused line writes a usage line and
    "balkit <command>: error: ..." to stderr and raises SystemExit(2); -h or
    --help writes the help to stdout and raises SystemExit(0)."""
    tokens = list(sys.argv[1:] if argv is None else argv)
    if tokens and tokens[0] in COMMANDS:
        return _parse_command(tokens[0], tokens[1:])
    usage = "usage: balkit [-h] {%s} ..." % ",".join(COMMANDS)
    if tokens and (tokens[0] == "-h" or len(tokens[0]) > 2 and "--help".startswith(tokens[0])):
        _help(usage, "Exact computation and verification for balancing, cobalancing "
              "and their Pell companion sequences.", {
                  "commands": [Arg(name, help=entry[0]) for name, entry in COMMANDS.items()],
                  "options": [_HELP]})
    if not tokens:
        _fail(usage, "balkit", "the following arguments are required: command")
    _fail(usage, "balkit", "argument command: invalid choice: %r (choose from %s)"
          % (tokens[0], ", ".join(map(repr, COMMANDS))))


def main(argv: Optional[list[str]] = None) -> int:
    # A classify value may have more digits than int() and str() take by
    # default (4300), and terms run to hundreds of thousands: the limit is
    # lifted while the command line is read and run, and then put back.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parse_args(argv)
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
    except WorkerError as exc:
        # Not 1: the run is incomplete, so it says nothing of the identities.
        sys.stderr.write("error: %s\n" % exc)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run() -> int:
    """main() for a process that exits after it (the balkit script and
    python -m balkit.cli). gc.freeze() first moves every object loaded so
    far out of the collector's reach, so the interpreter's final collection
    does not walk them; main() alone leaves the collector as it is."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
