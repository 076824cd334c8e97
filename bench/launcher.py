"""Spawns the benchmark's CLI calls and reports exit code, wall time and peak RSS.

run.py starts this process before it generates any input. The peak
resident set that os.wait4 reports for a child includes the peak of the
process it was spawned from, so the CLI calls must come from a process
that stays small, not from run.py, which holds the generated corpus.

Protocol: one JSON request per stdin line, {"argv", "env", "stdout",
"stderr"}; one JSON reply per stdout line, {"code", "wall_s",
"peak_rss_mb"}. End of input, or SIGTERM, ends the process.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    while line := sys.stdin.readline():
        request = json.loads(line)
        argv = request["argv"]
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            actions = [
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            start = time.perf_counter()
            # Its own process group, shared with its pool workers, so that
            # a terminated launcher can stop them all.
            pid = os.posix_spawn(
                argv[0], argv, request["env"], file_actions=actions, setpgroup=0
            )
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            wall = time.perf_counter() - start
        reply = {
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
