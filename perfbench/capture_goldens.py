"""Capture goldens.json: the exit code and stdout of every deterministic job.

    python3 perfbench/capture_goldens.py

Run it on the commit whose outputs are the reference (the goldens in the
repository were captured on the seed commit of the benchmark).  Only jobs
without a golden are run; delete goldens.json to capture every job again.
Seeded jobs have no golden;
they are checked against invariants instead.  The K7 rung of the
certification ladder takes about a minute on the seed commit.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import jobs as joblist
import proc
import run


def main() -> int:
    env = run.job_env()
    cwd = os.path.join(run.WORK, f"goldens-{os.getpid()}")
    try:
        shutil.rmtree(cwd, ignore_errors=True)
        shapes = run.setup(cwd, 0, env)
        wanted = [job for build in joblist.WORKLOADS.values() for job in build(0, shapes)]
        wanted += [job for _, rung in joblist.LADDER for job in rung]
        old = {}
        if os.path.exists(run.GOLDENS):
            with open(run.GOLDENS, encoding="utf-8") as fh:
                old = json.load(fh)
        goldens = {}
        for job in wanted:
            if job.check is not None or job.key in goldens:
                continue
            if job.key in old:
                goldens[job.key] = old[job.key]
                continue
            done = proc.run(run.hdx(job.argv), cwd=cwd, env=env, timeout=600.0)
            if done.timed_out:
                print(f"timed out: {job.key}", file=sys.stderr)
                return 1
            goldens[job.key] = {"exit": done.exit_code, "stdout": done.stdout.decode()}
            print(f"{done.wall_s:8.2f}s exit {done.exit_code} {job.key}", file=sys.stderr)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
