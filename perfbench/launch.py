"""Run one command and report its exit code, wall time and peak memory.

    python3 -S perfbench/launch.py REPORT TIMEOUT_S COMMAND...

Linux counts the memory of the spawning process into a child's peak
resident set size (``ru_maxrss``), so a CLI command spawned straight from
the benchmark, which holds whole corpora, would report the benchmark's
memory. Spawned from this small interpreter it reports its own. Writes
"<exit code> <wall seconds> <peak RSS in KiB>" to REPORT; the command is
killed after TIMEOUT_S seconds.
"""

import os
import select
import subprocess
import sys
import time


def main() -> None:
    report, timeout, command = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], timeout)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as out:
        out.write(f"{proc.returncode} {wall!r} {usage.ru_maxrss}\n")


if __name__ == "__main__":
    main()
