"""Replay the benchmark's goldens in-process: every deterministic job's exit
code and stdout must match what ``perfbench/goldens.json`` recorded, and
every exit 3 must come from a capacity error, not from a traceback or a
usage error.

The corpus is written by the benchmark's own ``corpus.write_fixed``; nothing
under ``perfbench/`` is changed.  ``walk`` and ``verify-theorem`` floats are
held to 1e-12, tighter than the benchmark's 1e-9: their distances come in
closed form from an eigendecomposition, and agree with the propagated
ones the goldens hold to about 1e-15.  ``large_audits.json`` holds larger
audits and certificates, replayed the same way.
"""

import io
import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402
import corpus  # noqa: E402
from named_complexes import CUBOCTAHEDRON, ICOSAHEDRON, K333, T5, TORUS_7, save_complex  # noqa: E402

from hdxwalk import cli  # noqa: E402
from hdxwalk.complexes import complete_complex  # noqa: E402

WALK_TOL = 1e-12

def test_goldens_replay_in_process(tmp_path, monkeypatch):
    with open(os.path.join(PERFBENCH, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    corpus.write_fixed(str(tmp_path), 0)
    monkeypatch.chdir(tmp_path)
    differences = {}
    for key, golden in goldens.items():
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(key.split(), out, err)
        tol = WALK_TOL if key.split()[0] in ("walk", "verify-theorem") else checks.TOL
        found = checks.diff_golden(golden, code, out.getvalue(), tol)
        if not found and code == 3 and not err.getvalue().startswith("hdx: capacity error:"):
            found = f"exit 3 without a capacity error: {err.getvalue()!r}"
        if found:
            differences[key] = found
    assert len(goldens) > 80
    assert differences == {}


def test_large_audits_replay_in_process(tmp_path, monkeypatch):
    # Audits and certificates past the goldens' sizes: the cuboctahedron's
    # lemmas spread over 2**24 edge sets, T(5)'s largest coset table has
    # 2**21 entries, and the view lemmas and the outgoing identity of K3,3,3,
    # K8, the icosahedron and T(5) cover 2**27 to 2**30 edge sets, where K8's
    # local views, at slack -1, list ten violations.
    # ``large_audits.json`` was recorded from these commands.
    complexes = {"k7": complete_complex(7), "torus7": TORUS_7, "cubo": CUBOCTAHEDRON,
                 "t5": T5, "k8": complete_complex(8), "k333": K333, "icosahedron": ICOSAHEDRON}
    for name, X in complexes.items():
        save_complex(X, str(tmp_path / f"{name}.complex"))
    with open(os.path.join(os.path.dirname(__file__), "large_audits.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    monkeypatch.chdir(tmp_path)
    differences = {}
    for key, golden in goldens.items():
        out = io.StringIO()
        found = checks.diff_golden(golden, cli.run(key.split(), out, io.StringIO()), out.getvalue())
        if found:
            differences[key] = found
    assert sorted(goldens) == sorted(
        [f"audit {n}.complex --lemma all" for n in ("k7", "torus7", "cubo")]
        + [f"certify {n}.complex --max-bits 40" for n in ("t5", "k8")]
        + [
            f"audit {n}.complex --lemma {lemma} --max-bits 40"
            for n in ("k333", "k8", "icosahedron", "t5")
            for lemma in ("distance", "local-views", "outgoing")
        ]
        + ["audit k8.complex --lemma local-views --slack=-1 --max-bits 40"]
    )
    assert differences == {}
