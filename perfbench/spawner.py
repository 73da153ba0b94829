"""Start and time request processes on behalf of run.py.

    python3 spawner.py OUT_PATH ERR_PATH   (one JSON request per stdin line)

Each request is {"argv": [...], "timeout": seconds}. The process gets stdin
from /dev/null and stdout/stderr in the two files, which are truncated
first. The reply line is {"wall_s", "rss_kb", "status", "timed_out"}, with
wall time from spawn to reap and ru_maxrss from wait4.

A spawned process's ru_maxrss also covers the memory of the process that
spawned it, up to the exec. run.py holds big integers and outputs, so it
lets this small process, which holds none, do the spawning.
"""

import json
import os
import select
import signal
import sys
import time


def main() -> int:
    out_path, err_path = sys.argv[1], sys.argv[2]
    for line in sys.stdin:
        req = json.loads(line)
        argv = req["argv"]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            started = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
            pidfd = os.pidfd_open(pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], req["timeout"])
                if not ready:
                    os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - started
        reply = {"wall_s": wall, "rss_kb": usage.ru_maxrss,
                 "status": os.waitstatus_to_exitcode(status), "timed_out": not ready}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
