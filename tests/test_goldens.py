"""Replay the benchmark's goldens in-process: every deterministic job's exit
code and stdout must match what ``perfbench/goldens.json`` recorded, and
every exit 3 must come from a capacity error, not from a traceback or a
usage error.

The corpus is written by the benchmark's own ``corpus.write_fixed``; nothing
under ``perfbench/`` is changed.
"""

import io
import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402
import corpus  # noqa: E402

from hdxwalk import cli  # noqa: E402


def test_goldens_replay_in_process(tmp_path, monkeypatch):
    with open(os.path.join(PERFBENCH, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    corpus.write_fixed(str(tmp_path), 0)
    monkeypatch.chdir(tmp_path)
    differences = {}
    for key, golden in goldens.items():
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(key.split(), out, err)
        found = checks.diff_golden(golden, code, out.getvalue())
        if not found and code == 3 and not err.getvalue().startswith("hdx: capacity error:"):
            found = f"exit 3 without a capacity error: {err.getvalue()!r}"
        if found:
            differences[key] = found
    assert len(goldens) > 80
    assert differences == {}
