"""Environment metadata recorded beside every result.

`probe()` runs in a job process (same interpreter and environment as the
jobs), so the numpy, BLAS and thread figures are the ones the jobs see.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys


def _probe_in_process() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):  # numpy older than 1.25
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "threads_after_numpy_import": len(os.listdir("/proc/self/task")),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HDX_THREADS")
            if k in os.environ
        },
    }


def probe(env: dict, timeout: float = 30.0) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe"],
            env=env, capture_output=True, timeout=timeout, check=True,
        )
        return json.loads(done.stdout)
    except (subprocess.SubprocessError, ValueError) as exc:
        return {"error": repr(exc)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_lines(root: str) -> int:
    total = 0
    package = os.path.join(root, "src", "hdxwalk")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def collect(root: str, env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "jobs": probe(env),
        "git_commit": git_commit(root),
        "src_hdxwalk_lines": source_lines(root),
    }


if __name__ == "__main__" and sys.argv[1:] == ["--probe"]:
    print(json.dumps(_probe_in_process()))
