"""Run the benchmark's commands and report their resource use.

    python -I -S perfbench/spawner.py

Reads one JSON request per line on stdin, ``{"argv", "env", "stdout",
"stderr", "timeout"}``, runs it to completion with stdout and stderr sent
to the named files, and answers with one JSON line ``{"rc", "wall",
"cpu", "maxrss_kb"}``.  A child that outlives ``timeout`` is killed.

Linux carries a process's resident-set high-water mark across exec, so
``ru_maxrss`` of a child is at least the memory of the process that
spawned it.  This helper stays near the size of a bare interpreter,
below any grt2 command, so the figure it reports is the child's own
peak; the runner, which grows while it holds traces, spawns nothing that
is measured.
"""

import json
import os
import sys
import threading
from time import perf_counter


def run(req):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644)]
    t0 = perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                         file_actions=actions)
    timer = threading.Timer(req["timeout"], os.kill, (pid, 9))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    return {"rc": os.waitstatus_to_exitcode(status),
            "wall": perf_counter() - t0,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
