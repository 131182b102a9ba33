"""Replay the benchmark's goldens in-process: every deterministic job's exit
code and stdout must match what ``perfbench/goldens.json`` recorded.

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
        if key == "--version":  # argparse exits from its version action
            continue
        out = io.StringIO()
        code = cli.run(key.split(), out, io.StringIO())
        found = checks.diff_golden(golden, code, out.getvalue())
        if found:
            differences[key] = found
    assert len(goldens) > 80
    assert differences == {}
