"""Run one balkit CLI request under the tracer.

    python3 trace_child.py TRACE_PATH balkit-args...

stdout and the exit code are balkit's own. When the request ends, the
summary and span records go as one JSON document to TRACE_PATH.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


class _CountingStdout:
    """Passes writes through to the real stdout and counts the bytes."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main() -> int:
    trace_path = sys.argv[1]
    argv = sys.argv[2:]
    import tracer

    started = time.perf_counter()
    import balkit.cli

    import_s = time.perf_counter() - started
    t = tracer.Tracer()
    tracer.install(t)
    out = _CountingStdout(sys.stdout)
    sys.stdout = out
    main_fn = t.span("cli.main", balkit.cli.main)
    try:
        code = main_fn(argv)
    finally:
        sys.stdout = out._stream
        sys.stdout.flush()
    in_process_s = time.perf_counter() - _T0
    doc = t.summary()
    doc["counters"]["cli.out_bytes"] = out.bytes
    doc["import_s"] = import_s
    doc["in_process_s"] = in_process_s
    doc["spans"] = t.spans
    with open(trace_path, "w") as sink:
        json.dump(doc, sink, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
