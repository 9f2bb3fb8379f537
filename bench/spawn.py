"""Starts benchmark ops as child processes and reports what each one cost.

Protocol: one JSON request per line on stdin,
  {"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}
and one JSON reply per line on stdout,
  {"wall_s", "cpu_s", "rss_mb", "exit", "timed_out"}.

This is a process of its own, kept small, because Linux carries the resident
set that the forking process has at fork time into the child's `ru_maxrss`
across `exec`.  Forking from `run.py`, which holds parsed reports, would
inflate every child's peak.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run_one(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"])
        timer = threading.Timer(req["timeout"], child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "exit": child.returncode,
            "timed_out": wall >= req["timeout"]}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run_one(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
