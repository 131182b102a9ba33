"""Run one job process: wall time, exit code, peak RSS, with a timeout.

The child is reaped with `os.wait4` in a helper thread, so its own
`ru_maxrss` is available and the parent burns no CPU while it waits.
Output goes to temporary files, so a chatty child cannot block on a pipe.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass


@dataclass
class Outcome:
    exit_code: int  # -1 when the job timed out and was killed
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes
    # time.monotonic() at spawn and at reaping (CLOCK_MONOTONIC, shared by
    # all processes on Linux, so comparable with the child's own stamps)
    spawned: float = 0.0
    reaped: float = 0.0

    @property
    def timed_out(self) -> bool:
        return self.exit_code == -1


def run(argv: list[str], *, cwd: str, env: dict, timeout: float) -> Outcome:
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        spawned = time.monotonic()
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                 stdout=out, stderr=err)
        result = {}

        def reap():
            _, status, usage = os.wait4(child.pid, 0)
            result["end"] = time.perf_counter()
            result["reaped"] = time.monotonic()
            result["status"] = status
            result["usage"] = usage

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        waiter.join(max(timeout, 0.0))
        killed = waiter.is_alive()
        if killed:
            child.kill()
            waiter.join()
        # wait4 reaped the child; tell Popen so it never waits on the pid again.
        child.returncode = os.waitstatus_to_exitcode(result["status"])
        out.seek(0)
        err.seek(0)
        return Outcome(
            exit_code=-1 if killed else child.returncode,
            wall_s=result["end"] - start,
            maxrss_kb=result["usage"].ru_maxrss,
            stdout=out.read(),
            stderr=err.read(),
            spawned=spawned,
            reaped=result["reaped"],
        )
