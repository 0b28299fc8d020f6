"""Spawn and time benchmark jobs from a process that stays small.

On Linux a child's ``ru_maxrss`` starts from the high-water RSS of the
process that spawned it, so jobs spawned by run.py (which holds numpy
and the generated inputs) would all report at least run.py's peak.
This launcher imports nothing heavy; run.py sends it one JSON request
per line on stdin::

    {"argv": [...], "env": {...}, "cwd": "...", "limit_s": 30.0, "log": "path prefix"}

and reads one JSON line back per request::

    {"seconds": ..., "code": ..., "rss_mb": ..., "killed": false}

A job still running after ``limit_s`` seconds is killed.  The child's
stdout and stderr go to ``<log>.stdout`` and ``<log>.stderr``.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, env, cwd, limit_s, log) -> dict:
    reaped, killed = threading.Event(), threading.Event()
    with open(log + ".stdout", "wb") as out, open(log + ".stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)

        def kill():
            if not reaped.is_set():
                killed.set()
                proc.kill()

        timer = threading.Timer(limit_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0, "killed": killed.is_set()}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
