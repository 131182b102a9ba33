"""Command-line behavior: reports, determinism, and exit codes."""

import argparse
import hashlib
import io
import json
import os
import re
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from named_complexes import CUBOCTAHEDRON, HEAWOOD_LINE, relabel

from hdxwalk import cli
from hdxwalk.cli import run
from hdxwalk.cochain import mask_bits, mask_to_chain
from hdxwalk.complexes import build_from_triangles, complete_complex, random_complex, save_complex
from hdxwalk.errors import DomainError, RegularityError
from hdxwalk.expansion import (
    certify_exact,
    distance_formula_audit,
    fatness_constant,
    local_view_bounds_audit,
    outgoing_edges_identity,
    sum_coboundaries_audit,
)
from hdxwalk.graphs import underlying_graph
from hdxwalk.spectral import normalized_spectrum


def invoke(*args):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(args), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.complex"
    code, _, _ = invoke("gen", "complete", "--n", "4", "-o", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def hexagon_file(tmp_path):
    # 2-regular skeleton, no triangles: hypothesis failures everywhere
    path = tmp_path / "hexagon.complex"
    doc = {"edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]], "triangles": []}
    path.write_text(json.dumps(doc))
    return str(path)


# --- gen ----------------------------------------------------------------------


def test_gen_complete_stdout():
    code, out, _ = invoke("gen", "complete", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["triangles"] == [[0, 1, 2]]


def test_gen_random_deterministic():
    a = invoke("gen", "random", "--n", "6", "--p", "0.5", "--seed", "7")
    b = invoke("gen", "random", "--n", "6", "--p", "0.5", "--seed", "7")
    assert a == b
    c = invoke("gen", "random", "--n", "6", "--p", "0.5", "--seed", "8")
    assert c[1] != a[1]


def test_gen_capacity_exit_3_quickly():
    for args in (("complete", "--n", "2000"), ("random", "--n", "2000", "--p", "0.5", "--seed", "1")):
        start = time.perf_counter()
        code, out, err = invoke("gen", *args)
        assert time.perf_counter() - start < 0.5
        assert code == 3 and out == ""
        assert err.startswith("hdx: capacity error: ")


def test_gen_random_bad_probability():
    code, _, err = invoke("gen", "random", "--n", "4", "--p", "1.5", "--seed", "0")
    assert code == 2
    assert "probability" in err


# --- validate -------------------------------------------------------------------


def test_validate_pass(k4_file):
    code, out, _ = invoke("validate", k4_file)
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_validate_rejects_garbage(tmp_path):
    path = tmp_path / "bad.complex"
    path.write_text("{ not json")
    code, _, err = invoke("validate", str(path))
    assert code == 2


def test_validate_rejects_degenerate_face(tmp_path):
    path = tmp_path / "degen.complex"
    path.write_text(json.dumps({"triangles": [[0, 0, 1]]}))
    code, _, err = invoke("validate", str(path))
    assert code == 2
    assert "degenerate" in err


# --- analysis commands -------------------------------------------------------------


def test_spectrum_missing_file():
    code, _, _ = invoke("spectrum", "missing.complex")
    assert code == 2


def test_spectrum_dense_limit_exit_3_quickly(tmp_path):
    path = tmp_path / "cycle.complex"
    path.write_text(json.dumps({"edges": [[i, (i + 1) % 2049] for i in range(2049)]}))
    start = time.perf_counter()
    code, out, err = invoke("spectrum", str(path), "--graph", "g0")
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    assert err.startswith("hdx: capacity error: ")


def test_spectrum_g1_octahedron(k4_file):
    code, out, _ = invoke("spectrum", k4_file, "--graph", "g1")
    assert code == 0
    doc = json.loads(out)
    vals = doc["results"]["normalized_eigenvalues"]
    want = [1.0, 0.0, 0.0, 0.0, -0.5, -0.5]
    assert all(abs(a - b) <= 1e-9 for a, b in zip(vals, want))
    assert doc["results"]["k"] == 4


def test_cheeger_exact_fraction(k4_file):
    code, out, _ = invoke("cheeger", k4_file, "--graph", "g0")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["h_normalized"] == "2/3"
    assert doc["results"]["witness"] == [0, 1]


def test_cocycles_dims(k4_file):
    code, out, _ = invoke("cocycles", k4_file, "--dim", "1")
    doc = json.loads(out)
    assert doc["results"]["cocycles"]["dim"] == 3
    assert doc["results"]["coboundaries"]["dim"] == 3


def test_certify_k4(k4_file):
    code, out, _ = invoke("certify", k4_file)
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["epsilon_cosystolic"] == "2/3"
    assert results["mu"] == "1"
    assert results["mu_vacuous"] is True


def test_certify_capacity_exit_3(tmp_path):
    path = tmp_path / "k8.complex"
    assert invoke("gen", "complete", "--n", "8", "-o", str(path))[0] == 0
    code, _, err = invoke("certify", str(path))
    assert code == 3
    assert "capacity" in err


def test_certify_k7_within_capacity(tmp_path):
    # 21 edges is inside the default 24-bit threshold; lower it to refuse
    path = tmp_path / "k7.complex"
    assert invoke("gen", "complete", "--n", "7", "-o", str(path))[0] == 0
    code, _, _ = invoke("certify", str(path), "--max-bits", "10")
    assert code == 3


# --- malformed input -----------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        '{"triangles": 5}',
        '{"triangles": [null]}',
        '{"vertices": 3}',
        '{"labels": 3, "triangles": [[0,1,2]]}',
        '{"triangles": [[[0],1,2]]}',
    ],
)
def test_malformed_document_exits_2(text, tmp_path):
    path = tmp_path / "bad.complex"
    path.write_text(text)
    code, out, err = invoke("validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("hdx: ") and "Traceback" not in err


def test_oversized_vertex_id_exits_3_quickly(tmp_path):
    path = tmp_path / "far.complex"
    path.write_text('{"edges": [[0, 3000000]]}')
    start = time.perf_counter()
    code, _, err = invoke("validate", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert err.startswith("hdx: capacity error: ")


_scalars = st.none() | st.booleans() | st.integers(-3, 10**7) | st.floats() | st.text(max_size=3)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_ids = st.integers(-1, 7) | st.sampled_from(["a", "b", True, 1.5, None, [0]])
_faces = st.lists(st.lists(_ids, max_size=4), max_size=6)
_documents = _json | st.fixed_dictionaries(
    {},
    optional={
        "vertices": st.lists(_ids, max_size=4) | _json,
        "edges": _faces | _json,
        "triangles": _faces | _json,
        "labels": st.dictionaries(st.sampled_from(["0", "1", "x"]), _scalars, max_size=3) | _json,
    },
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_documents)
def test_validate_fuzz_never_raises_and_never_exits_1(doc):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "fuzz.complex")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, _, err = invoke("validate", path)
    assert code in (0, 2, 3), err


# --- audit ---------------------------------------------------------------------


def test_audit_all_k4(k4_file):
    code, out, _ = invoke("audit", k4_file, "--lemma", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    statuses = {l["lemma"]: l["status"] for l in doc["results"]["lemmas"]}
    assert statuses == {
        "outgoing": "pass",
        "large-cuts": "pass",
        "distance": "pass",
        "local-views": "pass",
        "sum": "pass",
    }


def test_audit_single_lemma(k4_file):
    code, out, _ = invoke("audit", k4_file, "--lemma", "outgoing")
    doc = json.loads(out)
    assert doc["results"]["lemmas"][0]["subsets_checked"] == 64
    assert code == 0


def test_audit_mixed_statuses_on_irregular_complex(tmp_path):
    # p=0.5 complexes are almost never edge-regular: regularity-dependent
    # lemmas downgrade to not-applicable, the outgoing identity still passes
    path = tmp_path / "r6.complex"
    assert invoke("gen", "random", "--n", "6", "--p", "0.5", "--seed", "3", "-o", str(path))[0] == 0
    code, out, _ = invoke("audit", str(path), "--lemma", "all")
    assert code == 0
    doc = json.loads(out)
    statuses = {l["lemma"]: l["status"] for l in doc["results"]["lemmas"]}
    assert statuses["outgoing"] == "pass"
    assert statuses["distance"] == "not-applicable"
    assert doc["status"] == "not-applicable"


def test_verify_theorem_k6_end_to_end(tmp_path):
    path = tmp_path / "k6.complex"
    assert invoke("gen", "complete", "--n", "6", "-o", str(path))[0] == 0
    code, out, _ = invoke("verify-theorem", str(path), "--steps", "60")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["results"]["certificate"]["epsilon_cosystolic"] == "1/2"


def test_audit_not_applicable_without_strict(hexagon_file):
    code, out, _ = invoke("audit", hexagon_file, "--lemma", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "not-applicable"


def test_audit_not_applicable_strict_exit_1(hexagon_file):
    code, out, _ = invoke("audit", hexagon_file, "--lemma", "all", "--strict")
    assert code == 1


def test_audit_violation_listing_k4(k4_file):
    # slack -3 breaks the local-view and sum bounds; violations are the first
    # 10 failing edge sets in mask order
    code, out, _ = invoke("audit", k4_file, "--lemma", "all", "--slack", "-3")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    lemmas = {l["lemma"]: l for l in doc["results"]["lemmas"]}
    assert lemmas["local-views"]["status"] == "fail"
    assert lemmas["local-views"]["violations"] == [
        {"edges": [], "vertices": [0, 1, 2, 3]},
        {"edges": [0], "vertices": [0, 1, 2, 3]},
        {"edges": [1], "vertices": [0, 1, 2, 3]},
        {"edges": [0, 1], "vertices": [0, 1, 2, 3]},
        {"edges": [2], "vertices": [0, 1, 2, 3]},
        {"edges": [0, 2], "vertices": [0, 1, 2, 3]},
        {"edges": [1, 2], "vertices": [0, 1, 2, 3]},
        {"edges": [0, 1, 2], "vertices": [1, 2, 3]},
        {"edges": [3], "vertices": [0, 1, 2, 3]},
        {"edges": [0, 3], "vertices": [0, 1, 2, 3]},
    ]
    assert lemmas["sum"]["status"] == "fail"
    assert lemmas["sum"]["violations"] == [{"edges": [], "lhs": 0, "rhs_bound": 0.0}]


def test_audit_sum_violation_listing_k5(tmp_path):
    path = tmp_path / "k5.complex"
    save_complex(complete_complex(5), str(path))
    code, out, _ = invoke("audit", str(path), "--lemma", "sum", "--slack", "-1")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    (lemma,) = doc["results"]["lemmas"]
    assert lemma["status"] == "fail"
    assert lemma["subsets_checked"] == 638
    assert lemma["violations"] == [{"edges": [], "lhs": 0, "rhs_bound": 0.0}]


def test_audit_table_capacity_exit_3(tmp_path):
    # 28 edges pass a raised --max-bits but not the 2**26-entry table limit
    path = tmp_path / "k8.complex"
    assert invoke("gen", "complete", "--n", "8", "-o", str(path))[0] == 0
    start = time.perf_counter()
    code, out, err = invoke("audit", str(path), "--lemma", "outgoing", "--max-bits", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("hdx: capacity error: ") and "Traceback" not in err


# --- lemma runners against per-subset loops ---------------------------------------

OCTAHEDRON = build_from_triangles(
    [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
)
RUNNER_INPUTS = {
    "k4": complete_complex(4),
    "octahedron": OCTAHEDRON,
    "k5": complete_complex(5),
    "random": random_complex(6, 0.5, seed=3),
}


def reference_failures(X, lemma, slack):
    """Masks on which the per-subset library function reports a failure."""
    masks = range(1 << X.n_edges)
    chain = lambda m: mask_to_chain(1, m)  # noqa: E731
    if lemma == "outgoing":
        return [m for m in masks if not outgoing_edges_identity(X, chain(m)).holds]
    cert = certify_exact(X)
    if lemma == "distance":
        audit = lambda m: distance_formula_audit(X, chain(m), mu=cert.mu)  # noqa: E731
        return [m for m in masks if audit(m).passes is False]
    if lemma == "local-views":
        eta = fatness_constant(normalized_spectrum(underlying_graph(X)).lambda2)
        return [
            m
            for m in masks
            if local_view_bounds_audit(
                X, chain(m), cert.epsilon_cosystolic, eta, mu=cert.mu, slack=slack
            ).passes
            is False
        ]
    return [
        m
        for m in masks
        if 2 * m.bit_count() <= X.n_edges
        and not sum_coboundaries_audit(X, chain(m), cert.epsilon_cosystolic, slack=slack).passes
    ]


@pytest.mark.parametrize(
    "lemma,slack",
    # outgoing and distance take no slack
    [("outgoing", 1e-9), ("distance", 1e-9)]
    + [(lemma, slack) for lemma in ("local-views", "sum") for slack in (1e-9, -1.0)],
)
@pytest.mark.parametrize("name", sorted(RUNNER_INPUTS))
def test_lemma_tables_match_per_subset_loops(name, lemma, slack, monkeypatch):
    X = RUNNER_INPUTS[name]
    tables = []
    lemma_result = cli._lemma_result

    def recording(name, fail, *args, **kwargs):
        tables.append(fail)
        return lemma_result(name, fail, *args, **kwargs)

    monkeypatch.setattr(cli, "_lemma_result", recording)
    ns = argparse.Namespace(max_bits=24, slack=slack)
    try:
        result = cli._LEMMA_RUNNERS[lemma](X, ns)
    except (RegularityError, DomainError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            reference_failures(X, lemma, slack)
        return
    (fail,) = tables
    want = reference_failures(X, lemma, slack)
    assert np.flatnonzero(fail).tolist() == want
    assert [v["edges"] for v in result["violations"]] == [mask_bits(m) for m in want[:10]]
    assert (result["status"] == "fail") == bool(want)


# --- walk -------------------------------------------------------------------------


def test_walk_exact_csv(k4_file):
    code, out, _ = invoke("walk", k4_file, "--start", "0", "--steps", "4", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,distance,alpha_power,ok"
    assert len(lines) == 6
    assert lines[1].startswith("0,")


def test_walk_with_alpha_flags(k4_file):
    code, out, _ = invoke(
        "walk", k4_file, "--start", "0", "--steps", "4", "--alpha", "0.9"
    )
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(row[3] in ("true", "false") for row in rows)
    assert all(row[3] == "true" for row in rows)


def test_walk_paths_mode_deterministic(k4_file):
    args = ("walk", k4_file, "--start", "0", "--steps", "6", "--seed", "3", "--paths", "2000")
    a = invoke(*args)
    b = invoke(*args)
    assert a == b and a[0] == 0
    final = a[1].strip().splitlines()[-1]
    assert float(final.split(",")[1]) < 0.2


def test_walk_paths_csv_pinned(tmp_path):
    # sha256 of this command's stdout from the one-path-at-a-time engine.
    path = tmp_path / "k5.complex"
    assert invoke("gen", "complete", "--n", "5", "-o", str(path))[0] == 0
    code, out, _ = invoke(
        "walk", str(path), "--start", "0", "--steps", "8", "--seed", "1", "--paths", "100000"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "127938ff2da430a9ab44b57ae19647143053c612573f7259675f77adc0849131"
    )


def test_walk_exact_csv_pinned(tmp_path):
    # sha256 of this command's stdout from the engine that kept one array per step.
    path = tmp_path / "k40.complex"
    assert invoke("gen", "complete", "--n", "40", "-o", str(path))[0] == 0
    code, out, _ = invoke("walk", str(path), "--start", "0", "--steps", "2000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "38c4b6e255cd3ca2d348fe9d11162ed73e99389a9e9a03c56cc7fbe02dfe9aa6"
    )


@pytest.mark.parametrize("mode", [("--paths", "10"), ("--paths", "0"), ()])
def test_walk_negative_steps_exit_2(k4_file, mode):
    code, out, err = invoke("walk", k4_file, "--start", "0", "--steps", "-1", *mode)
    assert code == 2 and out == ""
    assert err.startswith("hdx: ") and "Traceback" not in err


@pytest.mark.parametrize("mode", [("--paths", "1"), ()])
def test_walk_capacity_exit_3_quickly(k4_file, mode):
    start = time.perf_counter()
    code, out, err = invoke("walk", k4_file, "--start", "0", "--steps", "100000000", *mode)
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    assert err.startswith("hdx: capacity error: ")


def test_walk_bad_start(k4_file):
    code, _, err = invoke("walk", k4_file, "--start", "99", "--steps", "2")
    assert code == 2


def test_walk_has_no_exact_flag(k4_file, capsys):
    # Exact evolution is what walk does without --paths; there is no flag for it.
    code, out, _ = invoke("walk", k4_file, "--start", "0", "--steps", "2", "--exact")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --exact" in capsys.readouterr().err


# --- verify-theorem ------------------------------------------------------------------


def test_verify_theorem_k4(k4_file):
    code, out, _ = invoke("verify-theorem", k4_file, "--steps", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    results = doc["results"]
    assert 0 < results["rate_bound"] < 1
    assert all(results["walk"]["bound_ok"])
    assert results["walk"]["spectral_decay_ok"] is True
    assert results["degrees"] == {"k0": 3, "k1": 2}


@pytest.mark.parametrize("seed", [None, 14, 24, 25])
def test_verify_theorem_cuboctahedron_not_applicable(seed, tmp_path):
    # lambda2 = 1/2 exactly; for these relabellings the float reads below 1/2.
    X = CUBOCTAHEDRON if seed is None else relabel(CUBOCTAHEDRON, seed)
    path = tmp_path / "cubo.complex"
    save_complex(X, str(path))
    code, out, _ = invoke("verify-theorem", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "not-applicable"
    assert doc["results"]["reason"] == (
        "rate bound requires lambda2 < 1/2; it is at least 1/2, decided exactly "
        f"(eigensolver value {doc['results']['lambda2_g0']})"
    )
    assert "certificate" not in doc["results"]


@pytest.mark.parametrize("complex_file", ["k4_file", "hexagon_file"])
@pytest.mark.parametrize("steps, code", [("-1", 2), ("100000000", 3)])
def test_verify_theorem_steps_refused_quickly(complex_file, steps, code, request):
    # Refused before certification, whether or not the theorem applies.
    path = request.getfixturevalue(complex_file)
    start = time.perf_counter()
    got, out, err = invoke("verify-theorem", path, "--steps", steps)
    assert time.perf_counter() - start < 0.5
    assert got == code and out == ""
    assert err.startswith("hdx: capacity error: " if code == 3 else "hdx: ")


def test_gap_messages_state_the_exact_decision(tmp_path):
    # lambda2 = 1/2 exactly; on this relabelling the float reads 0.49999999999999956.
    path = tmp_path / "cubo.complex"
    save_complex(relabel(CUBOCTAHEDRON, 14), str(path))
    code, out, _ = invoke("audit", str(path), "--lemma", "all")
    assert code == 0
    reasons = [r["reason"] for r in json.loads(out)["results"]["lemmas"] if "reason" in r]
    assert len(reasons) == 4
    exact = "lambda2 < 1/2; it is at least 1/2, decided exactly (eigensolver value 0.4999"
    assert all(exact in reason for reason in reasons)


def test_local_views_gate_is_exact_on_the_cuboctahedron(tmp_path):
    # Unrelabelled, the float reads 0.5000000000000004; the local-views runner
    # decides the gap exactly before the fatness constant, as the others do.
    path = tmp_path / "cubo.complex"
    save_complex(CUBOCTAHEDRON, str(path))
    code, out, _ = invoke("audit", str(path), "--lemma", "all")
    assert code == 0
    lemmas = json.loads(out)["results"]["lemmas"]
    reasons = {r["lemma"]: r["reason"] for r in lemmas if r["status"] == "not-applicable"}
    assert len(reasons) == 4
    assert all("decided exactly" in reason for reason in reasons.values())
    assert reasons["local-views"] == (
        "local-view bounds require lambda2 < 1/2; it is at least 1/2, decided exactly "
        "(eigensolver value 0.5000000000000004)"
    )


def test_certify_guard_is_bounded_by_tables_not_faces(tmp_path):
    # 42 edges: a scan of 2**42 subsets never finishes, but the 2**28
    # cocycles of Z^1 are one table over the limit, refused before allocating.
    path = tmp_path / "heawood.complex"
    save_complex(HEAWOOD_LINE, str(path))
    start = time.perf_counter()
    code, out, err = invoke("certify", str(path), "--max-bits", "64")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (3, "")
    assert "2**28" in err


def test_verify_theorem_not_applicable(hexagon_file):
    code, out, _ = invoke("verify-theorem", hexagon_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "not-applicable"
    assert "triangle" in doc["results"]["reason"]


def test_verify_theorem_strict_promotes_na(hexagon_file):
    code, _, _ = invoke("verify-theorem", hexagon_file, "--strict")
    assert code == 1


def test_verify_theorem_report_is_byte_deterministic(k4_file):
    a = invoke("verify-theorem", k4_file, "--steps", "50")
    b = invoke("verify-theorem", k4_file, "--steps", "50")
    assert a == b


def test_report_embeds_flags_and_digest(k4_file):
    _, out, _ = invoke("verify-theorem", k4_file, "--steps", "25")
    doc = json.loads(out)
    assert doc["command"]["steps"] == 25
    assert doc["command"]["subcommand"] == "verify-theorem"
    assert len(doc["inputs"]["sha256"]) == 64


# --- usage -----------------------------------------------------------------------


def test_unknown_subcommand_usage_error():
    assert invoke("frobnicate")[0] == 2


def test_exit_code_mapping():
    from hdxwalk.cli import _exit_code

    assert _exit_code("pass", strict=False) == 0
    assert _exit_code("fail", strict=False) == 1
    assert _exit_code("fail", strict=True) == 1
    assert _exit_code("not-applicable", strict=False) == 0
    assert _exit_code("not-applicable", strict=True) == 1
