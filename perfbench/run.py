"""balkit benchmark: seeded CLI workloads, checked outputs, per-layer traces.

    python3 perfbench/run.py --workload {bigterm,verify,lookup} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S \
        --baseline perfbench/baseline.json

Run from the repository root; balkit is taken from ./src only. One client
sends one `python3 -m balkit.cli ...` request at a time and waits for it
(a closed loop, as a CLI user does); spawner.py starts and times each one.
A run makes max(1, S // PASS_SECONDS) passes, each over its own seeded
request list, so every run of a seed does the same work and per-request
percentiles rest on a fixed sample count. Every output is checked by
checker.py, which does not import balkit, and the checker's self-test runs
first.

--trace 0 prints the end-to-end metrics. --trace 1 makes one pass in which
each request runs untraced and traced (trace_child.py), and prints the
per-layer metrics and the tracing overhead; the span records go to
.perfbench/. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_CHILD = os.path.join(HERE, "trace_child.py")
SPAWNER = os.path.join(HERE, "spawner.py")
PASS_SECONDS = 10  # one pass over a request list takes about this long at this commit
REQUEST_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # no new pass starts later than this into a run
SETUP_EVERY = 4

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_wall_s", "s", "lower"),
    ("req_p50_s", "s", "lower"),
    ("req_tail_s", "s", "lower"),
    ("req_per_s", "1/s", "higher"),
    ("digits_per_s", "1/s", "higher"),
    ("cases_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("quadring.pow.calls", "count", "lower"),
    ("quadring.pow.s", "s", "lower"),
    ("sequences.pair_bc.calls", "count", "lower"),
    ("sequences.pair_bc.s", "s", "lower"),
    ("sequences.pair_bc.out_bits", "bits", "lower"),
    ("sequences.pair_cobal.s", "s", "lower"),
    ("sequences.term_binet.s", "s", "lower"),
    ("sequences.term_recurrence.s", "s", "lower"),
    ("sequences.stream.s", "s", "lower"),
    ("sequences.stream.terms", "count", "higher"),
    ("sequences.termsource.prefill_s", "s", "lower"),
    ("sequences.termsource.filled_terms", "count", "lower"),
    ("sequences.termsource.reads", "count", "lower"),
    ("sequences.self_s", "s", "lower"),
    ("identities.eval.calls", "count", "lower"),
    ("identities.eval.s", "s", "lower"),
    ("identities.eval.operand_bits_max", "bits", "lower"),
    ("harness.run_suite.s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.checked", "count", "higher"),
    ("harness.skipped", "count", "lower"),
    ("harness.useful_ratio", "ratio", "higher"),
    ("harness.emit_report.s", "s", "lower"),
    ("harness.emit_report.bytes", "bytes", "lower"),
    ("harness.identity_ms.max", "ms", "lower"),
    ("harness.jobs2_speedup", "ratio", "higher"),
    ("oracle.search_family.s", "s", "lower"),
    ("oracle.scanned", "count", "lower"),
    ("oracle.members", "count", "higher"),
    ("oracle.isqrt.calls", "count", "lower"),
    ("oracle.isqrt.s", "s", "lower"),
    ("oracle.witness.s", "s", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("cli.classify.pair_calls", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
    ("trace.process_s", "s", "lower"),
)

LAYERS = ("quadring", "sequences", "identities", "harness", "oracle", "cli")


class SetupError(Exception):
    """The checkout cannot be benchmarked (no balkit sources, wrong import)."""


@dataclass
class Outcome:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    rss_kb: int
    timed_out: bool
    trace: dict | None = None


@dataclass
class Result:
    """One request: what ran, how long it took and whether its output held."""

    request: workloads.Request
    outcome: Outcome
    ok: bool
    why: str
    cases: int
    digits: int


@dataclass
class RunLog:
    results: list[Result] = field(default_factory=list)
    pass_walls: list[float] = field(default_factory=list)
    setup_walls: list[float] = field(default_factory=list)


def child_env(src: str) -> dict:
    """Environment for balkit children: ./src first, no verify cap."""
    env = dict(os.environ)
    env.pop("BALKIT_MAX_N", None)  # it silently lowers verify --max-n
    env["PYTHONPATH"] = src
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Spawner:
    """Runs requests through spawner.py, a small process that starts, times
    and reaps each one, so no child's max RSS includes this process's memory."""

    def __init__(self, work: str, env: dict) -> None:
        self.out_path = os.path.join(work, "out.bin")
        self.err_path = os.path.join(work, "err.bin")
        self.trace_path = os.path.join(work, "trace.json")
        self.proc = subprocess.Popen([sys.executable, SPAWNER, self.out_path, self.err_path],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=REQUEST_TIMEOUT_S)
        self.proc.stdout.close()
        for path in (self.out_path, self.err_path, self.trace_path):
            if os.path.exists(path):
                os.remove(path)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, argv: list[str], traced: bool = False) -> Outcome:
        if traced:
            if os.path.exists(self.trace_path):
                os.remove(self.trace_path)
            cmd = [sys.executable, TRACE_CHILD, self.trace_path] + argv
        else:
            cmd = [sys.executable, "-m", "balkit.cli"] + argv
        self.proc.stdin.write(json.dumps({"argv": cmd, "timeout": REQUEST_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("spawner.py exited")
        reply = json.loads(line)
        with open(self.out_path, "rb") as fh:
            out = fh.read()
        with open(self.err_path, "rb") as fh:
            err = fh.read()
        trace = None
        if traced and os.path.exists(self.trace_path):
            with open(self.trace_path) as fh:
                trace = json.load(fh)
        return Outcome(reply["status"], out, err, reply["wall_s"], reply["rss_kb"],
                       reply["timed_out"], trace)


def judge(request: workloads.Request, outcome: Outcome, traced: bool = False) -> Result:
    """Check one request's outcome; the output itself is not kept."""
    out, outcome.out = outcome.out, b""
    if outcome.timed_out:
        why = "timed out"
    elif outcome.code != 0:
        why = "exit code %d: %s" % (outcome.code, outcome.err.decode("utf-8", "replace").strip()[-200:])
    elif traced and outcome.trace is None:
        why = "no trace from traced child"
    else:
        ok, why, cases, digits = checker.check(request.spec, out)
        return Result(request, outcome, ok, why, cases, digits)
    return Result(request, outcome, False, why, 0, 0)


def int_str_quadratic() -> bool:
    """True when this interpreter's int -> decimal str time grows ~n^2."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    times = []
    for digits in (20000, 80000):
        x = 7 ** int(digits / 0.845)
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            str(x)
            best = min(best, time.perf_counter() - t)
        times.append(best)
    return times[1] / times[0] > 12  # 4x digits: 16x if quadratic, ~9x Karatsuba-style


def setup(root: str) -> tuple[dict, dict]:
    """Child environment and environment record; fails if balkit is not ./src."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "balkit", "cli.py")):
        raise SetupError("no balkit sources under %s" % src)
    env = child_env(src)
    where = subprocess.run([sys.executable, "-c", "import balkit; print(balkit.__file__)"],
                           env=env, capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S)
    path = where.stdout.strip()
    if where.returncode != 0 or not path.startswith(src + os.sep):
        raise SetupError("balkit does not import from %s (got %r)" % (src, path or where.stderr[-200:]))
    info = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "int_str_quadratic": int_str_quadratic(),
        "balkit": os.path.relpath(path, root),
    }
    return env, info


def setup_probe(spawner: Spawner) -> float:
    """Wall time of the trivial request `balkit term B 0`."""
    outcome = spawner.run(["term", "B", "0"])
    if outcome.code != 0 or outcome.out != b"0\n":
        raise SetupError("`balkit term B 0` failed: %r" % outcome.err[-200:])
    return outcome.wall_s


def run_untraced(lists: list[list[workloads.Request]], spawner: Spawner, t0: float) -> RunLog:
    """The passes, with a set-up probe before every SETUP_EVERY-th request, so
    the set-up median spans the run rather than one moment of it."""
    log = RunLog()
    count = 0
    for reqs in lists:
        if log.pass_walls and time.perf_counter() - t0 > RUN_LIMIT_S:
            break
        wall = 0.0
        for req in reqs:
            if count % SETUP_EVERY == 0:
                log.setup_walls.append(setup_probe(spawner))
            count += 1
            result = judge(req, spawner.run(req.argv))
            log.results.append(result)
            wall += result.outcome.wall_s
        log.pass_walls.append(wall)
    return log


def run_traced(reqs: list[workloads.Request], spawner: Spawner) -> tuple[RunLog, RunLog]:
    """One pass; each request untraced and traced, alternating which goes first."""
    plain, traced = RunLog(), RunLog()
    for i, req in enumerate(reqs):
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            outcome = spawner.run(req.argv, traced=is_traced)
            (traced if is_traced else plain).results.append(judge(req, outcome, is_traced))
    return plain, traced


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(log: RunLog) -> dict:
    walls = [r.outcome.wall_s for r in log.results]
    busy = sum(walls)
    tail_value, _ = tail(walls)
    return {
        "setup_s": statistics.median(log.setup_walls),
        "run_wall_s": statistics.median(log.pass_walls),
        "req_p50_s": statistics.median(walls),
        "req_tail_s": tail_value,
        "req_per_s": len(walls) / busy,
        "digits_per_s": sum(r.digits for r in log.results) / busy,
        "cases_per_s": sum(r.cases for r in log.results) / busy,
        "peak_rss_mb": max(r.outcome.rss_kb for r in log.results) / 1024.0,
    }


def shares(reqs: list[workloads.Request]) -> dict:
    """Share of the request list with each value of each request property."""
    out: dict[str, float] = {}
    for key in sorted({k for r in reqs for k in r.props}):
        having = [r.props[key] for r in reqs if key in r.props]
        for value in sorted(set(having), key=str):
            out["%s=%s" % (key, value)] = having.count(value) / len(having)
    return out


def _stat(stats: dict, name: str, i: int) -> float:
    return stats.get(name, [0, 0.0, 0.0])[i]


def per_layer(plain: RunLog, traced: RunLog) -> tuple[dict, dict]:
    """Per-layer metrics, totals over the traced pass, and the self time of each layer."""
    stats: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    maxima = ("harness.identity_ms.max", "identities.eval.operand_bits_max")
    for r in traced.results:
        doc = r.outcome.trace or {"stats": {}, "counters": {}}
        for name, values in doc["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += values[i]
            layer_self[name.split(".")[0]] += values[2]
        for name, value in doc["counters"].items():
            if name in maxima:
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value

    def per_case(jobs: int) -> float:
        rows = [r.outcome.trace for r in traced.results
                if r.outcome.trace and r.request.spec["op"] == "verify"
                and not r.request.props["subset"] and r.request.props["jobs"] == jobs]
        checked = sum(d["counters"].get("harness.checked", 0) for d in rows)
        return sum(_stat(d["stats"], "harness.run_suite", 1) for d in rows) / checked if checked else 0.0

    one, two = per_case(1), per_case(2)
    members = [r.outcome.trace for r in traced.results
               if r.outcome.trace and r.request.props.get("member")]
    checked, skipped = counters.get("harness.checked", 0), counters.get("harness.skipped", 0)
    docs = [r.outcome.trace for r in traced.results if r.outcome.trace]
    in_process = sum(d["in_process_s"] for d in docs)
    accounted = sum(d["import_s"] for d in docs) + sum(layer_self.values())
    plain_wall = sum(r.outcome.wall_s for r in plain.results)
    traced_wall = sum(r.outcome.wall_s for r in traced.results)
    return {
        "quadring.pow.calls": _stat(stats, "quadring.pow", 0),
        "quadring.pow.s": _stat(stats, "quadring.pow", 1),
        "sequences.pair_bc.calls": _stat(stats, "sequences.pair_bc", 0),
        "sequences.pair_bc.s": _stat(stats, "sequences.pair_bc", 1),
        "sequences.pair_bc.out_bits": counters.get("sequences.pair_bc.out_bits", 0),
        "sequences.pair_cobal.s": _stat(stats, "sequences.pair_cobal", 1),
        "sequences.term_binet.s": _stat(stats, "sequences.term_binet", 1),
        "sequences.term_recurrence.s": _stat(stats, "sequences.term_recurrence", 1),
        "sequences.stream.s": _stat(stats, "sequences.stream", 1),
        "sequences.stream.terms": counters.get("sequences.stream.terms", 0),
        "sequences.termsource.prefill_s": _stat(stats, "sequences.termsource.prefill", 1),
        "sequences.termsource.filled_terms": counters.get("sequences.termsource.filled_terms", 0),
        "sequences.termsource.reads": counters.get("sequences.termsource.reads", 0),
        "sequences.self_s": layer_self["sequences"],
        "identities.eval.calls": _stat(stats, "identities.eval", 0),
        "identities.eval.s": _stat(stats, "identities.eval", 1),
        "identities.eval.operand_bits_max": counters.get("identities.eval.operand_bits_max", 0),
        "harness.run_suite.s": _stat(stats, "harness.run_suite", 1),
        "harness.self_s": layer_self["harness"],
        "harness.checked": checked,
        "harness.skipped": skipped,
        "harness.useful_ratio": checked / (checked + skipped) if checked + skipped else 0.0,
        "harness.emit_report.s": _stat(stats, "harness.emit_report", 1),
        "harness.emit_report.bytes": counters.get("harness.emit_report.bytes", 0),
        "harness.identity_ms.max": counters.get("harness.identity_ms.max", 0),
        "harness.jobs2_speedup": one / two if one and two else 0.0,
        "oracle.search_family.s": _stat(stats, "oracle.search_family", 1),
        "oracle.scanned": counters.get("oracle.scanned", 0),
        "oracle.members": counters.get("oracle.members", 0),
        "oracle.isqrt.calls": _stat(stats, "oracle.isqrt", 0),
        "oracle.isqrt.s": _stat(stats, "oracle.isqrt", 1),
        "oracle.witness.s": _stat(stats, "oracle.witness", 1),
        "oracle.self_s": layer_self["oracle"],
        "cli.main.s": _stat(stats, "cli.main", 1),
        "cli.self_s": layer_self["cli"],
        "cli.out_bytes": counters.get("cli.out_bytes", 0),
        "cli.classify.pair_calls": (sum(_stat(d["stats"], "sequences.pair_bc", 0) for d in members)
                                    / len(members) if members else 0.0),
        "cli.import_s": statistics.median(d["import_s"] for d in docs) if docs else 0.0,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_ratio": traced_wall / plain_wall - 1.0,
        "trace.accounted_ratio": accounted / in_process if in_process else 0.0,
        "trace.process_s": traced_wall - in_process,
    }, layer_self


def write_spans(work: str, workload: str, seed: int, traced: RunLog) -> str:
    path = os.path.join(work, "spans-%s-seed%d.json" % (workload, seed))
    fields = ("id", "name", "start", "end", "parent", "thread")
    doc = [{"request": " ".join(r.request.argv)[:120],
            "spans": [dict(zip(fields, s)) for s in r.outcome.trace["spans"]]}
           for r in traced.results if r.outcome.trace]
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: str, env: dict) -> dict:
    work = os.path.join(root, ".perfbench")
    os.makedirs(work, exist_ok=True)
    t0 = time.perf_counter()
    with Spawner(work, env) as spawner:
        setup_probe(spawner)  # warm-up: the first run also writes bytecode
        if trace:
            reqs = workloads.requests(workload, seed, 1)[0]
            plain, traced = run_traced(reqs, spawner)
            results = plain.results + traced.results
            metrics, layer_self = per_layer(plain, traced)
            units = {name: (unit, better) for name, unit, better in PER_LAYER}
            spans = write_spans(work, workload, seed, traced)
            extra = {"layer_self_s": layer_self, "spans_file": os.path.relpath(spans, root)}
        else:
            lists = workloads.requests(workload, seed, max(1, seconds // PASS_SECONDS))
            reqs = [r for rs in lists for r in rs]
            log = run_untraced(lists, spawner, t0)
            results = log.results
            metrics = end_to_end(log)
            units = {name: (unit, better) for name, unit, better in END_TO_END}
            walls = [r.outcome.wall_s for r in results]
            extra = {"passes": len(log.pass_walls), "samples": len(walls),
                     "setup_samples": len(log.setup_walls),
                     "tail_percentile": tail(walls)[1],
                     "pass_walls_s": [round(w, 4) for w in log.pass_walls]}
    failures = [r for r in results if not r.ok]
    return {
        "workload": workload,
        "seed": seed,
        "elapsed_s": time.perf_counter() - t0,
        "attempted": len(results),
        "failed": len(failures),
        "failures": ["%s: %s" % (" ".join(r.request.argv)[:80], r.why) for r in failures[:10]],
        "shares": shares(reqs),
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
        "better": {name: units[name][1] for name in units},
        **extra,
    }


def report(block: dict) -> None:
    w = block["workload"]
    print("== %s seed=%d attempted=%d failed=%d fail_ratio=%.4f elapsed=%.1fs"
          % (w, block["seed"], block["attempted"], block["failed"],
             block["failed"] / block["attempted"], block["elapsed_s"]))
    for key in ("passes", "samples", "setup_samples", "tail_percentile", "pass_walls_s", "spans_file"):
        if key in block:
            print("%s %s: %s" % (w, key, block[key]))
    for name, share in block["shares"].items():
        print("%s share %s: %.3f" % (w, name, share))
    for name, m in block["metrics"].items():
        print("%s %-36s %16.6f %-6s better=%s" % (w, name, m["value"], m["unit"], block["better"][name]))
    for line in block["failures"]:
        print("%s FAILED %s" % (w, line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="also write every metric and share to this file")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        env, info = setup(root)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    selftest = checker.self_test()
    print("environment: %s" % json.dumps(info, sort_keys=True))
    for name, held in selftest:
        print("checker self-test %-28s %s" % (name, "ok" if held else "NOT AS EXPECTED"))
    selftest_ok = all(held for _, held in selftest)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    try:
        blocks = [run_workload(w, args.seed, args.seconds, trace, root, env)
                  for w in names for trace in modes]
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for block in blocks:
        report(block)
    failed = sum(b["failed"] for b in blocks)
    result = {"correct": failed == 0 and selftest_ok,
              "attempted": sum(b["attempted"] for b in blocks), "failed": failed}
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump({"environment": info, "seed": args.seed, "seconds": args.seconds,
                       "selftest_ok": selftest_ok, "runs": blocks}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if len(blocks) == 1:
        result["metrics"] = blocks[0]["metrics"]
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
