"""Starts benchmark jobs on behalf of run.py and reports their resource use.

On Linux a child's max RSS (ru_maxrss) includes the RSS of the process it
was forked from, so jobs forked from run.py, which holds NumPy and the
inputs, would all report at least its size.  Forked from this small
interpreter they start near a bare interpreter's size.

Protocol: one JSON request per stdin line, {"cmd": [...], "stderr": path,
"timeout": seconds}; one JSON reply per stdout line, {"rc", "wall_s",
"cpu_s", "maxrss_mb"}.  The process exits when stdin closes; on SIGTERM
it kills the job it is running and exits.  The environment and working
directory are inherited by every job.
"""

import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time


running: list = []


def on_sigterm(signum, frame):
    for proc in running:
        proc.kill()
        proc.wait()
    sys.exit(128 + signum)


def run(cmd: list, stderr: str, timeout: float) -> dict:
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with open(stderr, "wb") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
    running.append(proc)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        running.remove(proc)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    proc.returncode = os.waitstatus_to_exitcode(status)
    # the launcher's own CPU for starting and reaping the job belongs to it too
    own = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime + own,
            "maxrss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    signal.signal(signal.SIGTERM, on_sigterm)
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["cmd"], req["stderr"], req["timeout"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
