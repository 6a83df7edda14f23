"""Run one command and report how it ran, as one JSON line on stdout.

    python3 spawn.py TIMEOUT STDOUT_FILE STDERR_FILE COMMAND...

Every measured process is started from this small process instead of
from the benchmark driver: Linux carries a process's peak resident
memory (``ru_maxrss``) across fork and exec, so a child forked from the
driver, which holds a parsed 30 MB result after a check, would report
at least the driver's peak. From here it inherits only the peak of a
bare interpreter, well below any ``nshapley`` run.

The command runs in its own session and is killed with its process
group after TIMEOUT seconds. The report holds the wall time from start
to reaping, the exit code, and ``wait4``'s peak RSS and user+sys CPU
time, which cover the command and every child it waited for.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main() -> int:
    timeout = float(sys.argv[1])
    with open(sys.argv[2], "wb") as out, open(sys.argv[3], "wb") as err:
        started = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(
            sys.argv[4:], stdin=subprocess.DEVNULL, stdout=out, stderr=err, start_new_session=True
        )
        killer = threading.Timer(timeout, kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {
        "started": started,
        "wall_s": wall,
        "returncode": proc.returncode,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
