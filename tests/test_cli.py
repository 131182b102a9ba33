"""Command-line behavior: reports, determinism, and exit codes."""

import argparse
import ast
import builtins
import gc
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
import time
import types
import warnings
import weakref

import full_tables
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from chains import Chain
from lemma_loops import distance, local_views, outgoing, sum_bound
from loop_exact import loop_evolve_exact, propagated_distances
from named_complexes import (
    CUBOCTAHEDRON,
    FANO,
    HALF_OCTAHEDRON,
    HEAWOOD_LINE,
    ICOSAHEDRON,
    K333,
    OCTAHEDRON,
    PALEY_13,
    RP2_6,
    T5,
    TORUS_7,
    TTS_9,
    findings,
    relabel,
    save_complex,
)

import hdxwalk
from hdxwalk import cli, commands, complexes, expansion, graphs, spectral, walk
from hdxwalk._record import Record
from hdxwalk.cli import run
from hdxwalk.cochain import mask_bits
from hdxwalk.complexes import complete_complex, load_complex, random_complex
from hdxwalk.errors import CapacityError, DomainError, ParameterError, RegularityError
from hdxwalk.expansion import certify_exact
from hdxwalk.graphs import edge_graph, underlying_graph
from hdxwalk.spectral import normalized_spectrum
from hdxwalk.walk import WALK_CELL_LIMIT


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
    doc = json.loads(out)
    assert doc["status"] == "pass" and doc["results"] == {"findings": []}


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


@pytest.mark.parametrize("command", ["validate", "spectrum --graph g0", "verify-theorem"])
def test_labels_key_that_is_not_a_vertex_id_exits_2(command, tmp_path):
    triangles = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    labels = {"0": "a", "1": "b", "2": "c", "3": "d"}
    path = tmp_path / "tetrahedron.complex"
    name, *flags = command.split()
    path.write_text(json.dumps({"triangles": triangles, "labels": labels}))
    assert invoke(name, str(path), *flags)[0] == 0
    path.write_text(json.dumps({"triangles": triangles, "labels": {**labels, "note": "x"}}))
    code, out, err = invoke(name, str(path), *flags)
    assert (code, out) == (2, "")
    assert err == "hdx: labels keys must be vertex ids in decimal, got 'note'\n"


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


def test_cocycles_of_many_isolated_vertices_is_fast(tmp_path):
    # 4095 components, so Z^0 has 4095 basis vectors to reduce; this 40-byte
    # document took seconds while each row was reduced against every other.
    path = tmp_path / "sparse.complex"
    path.write_text('{"vertices": [4095], "edges": [[0, 1]]}')
    start = time.perf_counter()
    code, out, _ = invoke("cocycles", str(path), "--dim", "0")
    elapsed = time.perf_counter() - start
    results = json.loads(out)["results"]
    assert (code, results["cocycles"]["dim"], results["coboundaries"]["dim"]) == (0, 4095, 1)
    assert results["cocycles"]["basis"][0] == [0, 1]
    assert elapsed < 0.5


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


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b'{"x": "\xe2\x82', "'utf-8' codec can't decode bytes in position 7-8: unexpected end of data"),
        # Lines are counted as in a file read as text: CRLF and CR are one newline each.
        (b'{\r\n"edges":\r\n [x]}', "Expecting value: line 3 column 3 (char 13)"),
        (b'{\r"edges":\r [x]}', "Expecting value: line 3 column 3 (char 13)"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "certify", "walk --start 0 --steps 1"])
def test_undecodable_or_unparsable_bytes_exit_2(data, message, command, tmp_path):
    path = tmp_path / "bad.complex"
    path.write_bytes(data)
    name, *rest = command.split()
    code, out, err = invoke(name, str(path), *rest)
    assert (code, out, err) == (2, "", f"hdx: not a valid complex document: {message}\n")


def test_report_digest_is_of_the_bytes_parsed(k4_file, monkeypatch):
    # One read: a file replaced between a parse and a second read for the digest
    # would be reported under the other document's sha256.
    opened, parsed = [], []
    real_open, decode = builtins.open, commands.complexes.decode_document

    def counted_open(file, *args, **kwargs):
        opened.extend([file] if str(file) == k4_file else [])
        return real_open(file, *args, **kwargs)

    def recorded_decode(data):
        parsed.append(data)
        return decode(data)

    monkeypatch.setattr(builtins, "open", counted_open)
    monkeypatch.setattr(commands.complexes, "decode_document", recorded_decode)
    code, out, _ = invoke("certify", k4_file)
    assert (code, len(opened), len(parsed)) == (0, 1, 1)
    with real_open(k4_file, "rb") as fh:
        assert parsed == [fh.read()]
    assert json.loads(out)["inputs"]["sha256"] == hashlib.sha256(parsed[0]).hexdigest()


def test_oversized_vertex_id_exits_3_quickly(tmp_path):
    path = tmp_path / "far.complex"
    path.write_text('{"edges": [[0, 3000000]]}')
    start = time.perf_counter()
    code, _, err = invoke("validate", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert err.startswith("hdx: capacity error: ")



def test_integer_literal_over_the_digit_limit_exits_2(tmp_path):
    # json.loads refuses an int of more than 4300 digits with a plain ValueError.
    path = tmp_path / "long.complex"
    path.write_text('{"edges": [[0, 1' + "0" * 5000 + "]]}")
    code, out, err = invoke("validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("hdx: not a valid complex document: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"labels": {"0": %s}, "triangles": [[0, 1, 2]]}' % token, f"non-finite number {token}")
        for token in ("NaN", "Infinity", "-Infinity", "1e999", "-1e999")
    ]
    + [
        ('{"triangles": [[0, 1, 2]], "triangles": [[0, 1, 3]]}', "duplicate key 'triangles'"),
        ('{"labels": {"0": "a", "0": "b"}, "triangles": [[0, 1, 2]]}', "duplicate key '0'"),
    ],
)
def test_non_finite_numbers_and_repeated_keys_exit_2(text, message, tmp_path):
    path = tmp_path / "bad.complex"
    path.write_text(text)
    code, out, err = invoke("validate", str(path))
    assert (code, out, err) == (2, "", f"hdx: not a valid complex document: {message}\n")
    path.write_text('{"labels": {"0": 1.5, "1": -1e300}, "triangles": [[0, 1, 2]]}')
    assert invoke("validate", str(path))[0] == 0


@pytest.mark.parametrize("command", ["certify", "audit --lemma sum", "verify-theorem"])
def test_negative_max_bits_is_a_usage_error(k4_file, command, monkeypatch):
    # Refused before any work: the complex file is never read.
    monkeypatch.setattr(commands, "_load", None)
    code, out, err = invoke(*command.split(), k4_file, "--max-bits", "-1")
    assert (code, out, err) == (2, "", "hdx: max-bits must be non-negative, got -1\n")

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
        code, out, err = invoke("validate", path)
        # The loader is the check: what it accepts, the reference finds nothing wrong with.
        if code == 0:
            assert json.loads(out)["results"] == {"findings": []}
            assert findings(load_complex(path)) == []
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
    # 28 edges pass a raised --max-bits but not the 2**26-entry table limit of the sum scan
    path = tmp_path / "k8.complex"
    assert invoke("gen", "complete", "--n", "8", "-o", str(path))[0] == 0
    start = time.perf_counter()
    code, out, err = invoke("audit", str(path), "--lemma", "sum", "--max-bits", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("hdx: capacity error: ") and "Traceback" not in err


def test_outgoing_report_past_the_int_digit_limit_exit_3(tmp_path):
    # K200's 1-skeleton, 19,900 edges and no triangles, passes a raised --max-bits, but
    # json cannot write subsets_checked = 2**19900: CPython converts at most 4300 digits.
    path = str(tmp_path / "k200.complex")
    save_complex(complexes.Complex2(200, tuple(itertools.combinations(range(200), 2)), ()), path)
    code, out, err = invoke("audit", path, "--lemma", "outgoing", "--max-bits", "20000")
    assert (code, out) == (3, "")
    assert err == "hdx: capacity error: a lemma report cannot write 2**19900 in decimal\n"


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs CPython's default limit of 4300 digits on int-to-str conversions",
)
def test_outgoing_refuses_exactly_the_reports_json_cannot_write():
    # 2**14284 has 4300 digits and 2**14285 has 4301.
    ns, pairs = argparse.Namespace(max_bits=20000), tuple(itertools.combinations(range(170), 2))
    result = commands._audit_outgoing(complexes.Complex2(170, pairs[:14284], ()), ns)
    assert json.loads(json.dumps(result))["subsets_checked"] == 1 << 14284
    with pytest.raises(CapacityError, match=re.escape("cannot write 2**14285 in decimal")):
        commands._audit_outgoing(complexes.Complex2(170, pairs[:14285], ()), ns)


@pytest.mark.parametrize(
    "name, statuses, bits",
    [
        ("k333", ("pass", "pass", "pass"), 27),
        ("k8", ("pass", "pass", "pass"), 28),
        # the size preconditions fail, so neither view lemma is asserted at any size
        ("icosahedron", ("not-applicable", "not-applicable", "pass"), 30),
        ("t5", ("pass", "pass", "pass"), 30),
    ],
)
def test_view_lemmas_decide_past_the_table_limit(name, statuses, bits, tmp_path):
    # 2**27 to 2**30 edge sets, past the 2**26-entry tables: no view fails at an
    # asserted size and every edge-graph pair shares a vertex, so no violation
    # exists and no edge set is enumerated.  Outgoing builds no graph at all.
    X = {"k333": K333, "k8": complete_complex(8), "icosahedron": ICOSAHEDRON, "t5": T5}[name]
    path = str(tmp_path / f"{name}.complex")
    save_complex(X, path)
    for lemma, status in zip(("distance", "local-views", "outgoing"), statuses):
        start = time.perf_counter()
        code, out, err = invoke("audit", path, "--lemma", lemma, "--max-bits", "40")
        assert time.perf_counter() - start < (0.1 if lemma == "outgoing" else 1.0)
        assert (code, err) == (0, "")
        (result,) = json.loads(out)["results"]["lemmas"]
        assert (result["status"], result["subsets_checked"]) == (status, 1 << bits)
        assert result["violations"] == []


@pytest.mark.parametrize("name, eps, mu, bits", [("paley13", "1/5", "8/39", 25), ("tts9", "1/6", "1/9", 23)])
def test_certifying_commands_skip_the_b1_table_past_the_limit(name, eps, mu, bits, tmp_path, monkeypatch):
    # B^1's table, 2**27 on Paley(13) and 2**28 on TTS(9), is read by no verdict: it
    # is neither sized nor built, and epsilon_coboundary is null.  The largest table
    # sized is Z^1's.
    X = {"paley13": PALEY_13, "tts9": TTS_9}[name]
    path = str(tmp_path / f"{name}.complex")
    save_complex(X, path)
    sized, check = [], spectral.check_table_bits
    for module in (spectral, expansion):
        monkeypatch.setattr(module, "check_table_bits", lambda b: (sized.append(b), check(b)))
    for command in ("verify-theorem", "certify"):
        certify_exact.cache_clear()
        expansion._coset_table.cache_clear()
        start = time.perf_counter()
        code, out, err = invoke(command, path, "--max-bits", "40")
        assert time.perf_counter() - start < 2.0
        assert (code, err) == (0, "")
        doc = json.loads(out)
        cert = doc["results"]["certificate"] if command == "verify-theorem" else doc["results"]
        assert (doc["status"], cert["epsilon_cosystolic"], cert["mu"]) == ("pass", eps, mu)
        dim1 = cert["dimensions"][1]
        assert (cert["epsilon_coboundary"], dim1["epsilon_coboundary"], dim1["coboundary_witness"]) == (None,) * 3
        assert max(sized) == bits
    certify_exact.cache_clear()
    expansion._coset_table.cache_clear()


@pytest.mark.parametrize("name, bits", [("paley13", 39), ("tts9", 36)])
def test_sum_lemma_refuses_its_scan_before_certifying(name, bits, tmp_path, monkeypatch):
    # Every gate of the sum lemma passes on both, so its scan of the 2**|E| edge sets
    # is refused, by --lemma sum and by --lemma all, before any certificate is built.
    X = {"paley13": PALEY_13, "tts9": TTS_9}[name]
    path = str(tmp_path / f"{name}.complex")
    save_complex(X, path)
    certified = []
    monkeypatch.setattr(expansion, "certify_exact", lambda *a, **kw: certified.append(a))
    for lemma in ("sum", "all"):
        code, out, err = invoke("audit", path, "--lemma", lemma, "--max-bits", "40")
        assert (code, out, certified) == (3, "", [])
        assert err.endswith(f"got 2**{bits}\n")


def test_sum_lemma_keeps_the_face_limit_message(tmp_path):
    # Past --max-bits the face limits refuse first, as they did before the scan was sized early.
    path = str(tmp_path / "paley13.complex")
    save_complex(PALEY_13, path)
    code, out, err = invoke("audit", path, "--lemma", "sum")
    assert (code, out) == (3, "") and "certification is limited to 24 faces" in err
    code, out, err = invoke("audit", path, "--lemma", "all")
    assert (code, out) == (3, "") and "audit is limited to --max-bits=24 edges" in err


def test_failing_view_lemma_past_the_table_limit_lists_ten_violations(tmp_path, monkeypatch):
    # At this slack views of K8 fail.  Its 2**28 edge sets are past the table limit,
    # but the violations are merged from the failing views' streams, so the first
    # ten are listed with no table over the edge sets and no table size checked.
    X = complete_complex(8)
    path = str(tmp_path / "k8.complex")
    save_complex(X, path)
    sized, listing = [], []  # (listing, bits) per table size checked; one flag per listing
    for module in (spectral, expansion):
        monkeypatch.setattr(module, "check_table_bits", lambda bits: sized.append((listing[-1], bits)))
    view_lemma = commands._view_lemma

    def spying(*args, **kwargs):
        listing.append(True)
        try:
            return view_lemma(*args, **kwargs)
        finally:
            listing.append(False)

    monkeypatch.setattr(commands, "_view_lemma", spying)
    for lemma in ("distance", "local-views"):
        sized.clear()
        listing[:] = [False]
        certify_exact.cache_clear()
        start = time.perf_counter()
        code, out, err = invoke("audit", path, "--lemma", lemma, "--slack=-1", "--max-bits", "40")
        assert time.perf_counter() - start < 1.0
        assert listing == [False, True, False]
        # Certification and the star tables size theirs before the listing; none spans
        # the edge sets, and the listing sizes none.
        assert sized and max(bits for _, bits in sized) < X.n_edges
        assert not any(during for during, _ in sized)
        (result,) = json.loads(out)["results"]["lemmas"]
        if lemma == "distance":  # takes no slack, and holds
            assert (code, result["status"], result["violations"]) == (0, "pass", [])
            continue
        assert (code, err, result["status"]) == (1, "", "fail")
        assert len(result["violations"]) == 10
    cert = certify_exact(X, max_bits=40)
    masks = [sum(1 << e for e in v["edges"]) for v in result["violations"]]
    for m in range(masks[-1] + 1):
        asserted, bad = local_views(X, Chain.from_mask(1, m), cert.epsilon_cosystolic, cert.mu, -1.0)
        if m in masks:
            assert asserted and result["violations"][masks.index(m)]["vertices"] == bad
        else:
            assert not (asserted and bad)


# --- lemma runners against per-subset loops ---------------------------------------

RUNNER_INPUTS = {
    "k4": complete_complex(4),
    "octahedron": OCTAHEDRON,
    "octahedron-relabelled": relabel(OCTAHEDRON, 14),
    "k5": complete_complex(5),
    "random": random_complex(6, 0.5, seed=3),
}


def reference_violations(X, lemma, slack):
    """(mask, violation entry) for every mask on which the per-subset statement fails."""
    found = []
    cert = None if lemma == "outgoing" else certify_exact(X)
    for m in range(1 << X.n_edges):
        F, edges = Chain.from_mask(1, m), mask_bits(m)
        if lemma == "outgoing":
            lhs, rhs = outgoing(X, F)
            entry = None if lhs == rhs else {"edges": edges, "lhs": lhs, "rhs": rhs}
        elif lemma in ("distance", "local-views"):
            asserted, bad = (
                distance(X, F, cert.mu) if lemma == "distance"
                else local_views(X, F, cert.epsilon_cosystolic, cert.mu, slack)
            )
            entry = {"edges": edges, "vertices": bad} if asserted and bad else None
        elif 2 * len(F) > X.n_edges:
            entry = None
        else:
            lhs, rhs, ok = sum_bound(X, F, cert.epsilon_cosystolic, slack)
            entry = None if ok else {"edges": edges, "lhs": lhs, "rhs_bound": rhs}
        if entry is not None:
            found.append((m, entry))
    return found


@pytest.mark.parametrize(
    "lemma,slack",
    # outgoing and distance take no slack; at -10 the sum bound fails on nonempty sets too
    [("outgoing", 1e-9), ("distance", 1e-9), ("sum", -10.0)]
    + [(lemma, slack) for lemma in ("local-views", "sum") for slack in (1e-9, -1.0)],
)
@pytest.mark.parametrize("name", sorted(RUNNER_INPUTS))
def test_lemma_tables_match_per_subset_loops(name, lemma, slack, monkeypatch):
    X = RUNNER_INPUTS[name]
    scans, streams = [], []
    lemma_result, supersets = commands._lemma_result, commands._supersets

    def recording(name, X, failing, *args, **kwargs):
        scans.append(list(failing))  # drawn to its end, past the tenth failure
        return lemma_result(name, X, iter(scans[-1]), *args, **kwargs)

    monkeypatch.setattr(commands, "_lemma_result", recording)
    monkeypatch.setattr(commands, "_supersets", lambda *args: streams.append(args) or supersets(*args))
    ns = argparse.Namespace(max_bits=24, slack=slack, tol=1e-9)
    try:
        result = commands._LEMMA_RUNNERS[lemma](X, ns)
    except (RegularityError, DomainError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            reference_violations(X, lemma, slack)
        return
    want = reference_violations(X, lemma, slack)
    if lemma == "outgoing":
        # Decided by its proof, the identity holds on every edge set: no stream is drawn.
        assert scans == streams == want == []
    else:
        # Each other runner hands one ascending stream of failing masks to the report,
        # which draws the first ten; drawn to its end, it holds every failing mask.
        assert len(scans) == 1
        assert scans[0] == [m for m, _ in want]
    if lemma in ("distance", "local-views"):
        # The view lemmas merge a stream per failing view exactly when a violation exists,
        # as the reduction below states.
        assert bool(streams) == bool(want) == violation_exists(X, lemma, slack)
    # Each reported violation, detail and all, is the library's per-subset report.
    assert result["violations"] == [entry for _, entry in want[:10]]
    assert (result["status"] == "fail") == bool(want)


def violation_exists(X, lemma, slack):
    """Whether some edge set violates the distance or local-view lemma, by the
    per-subset statements of ``lemma_loops`` at one edge set per vertex v, view L
    of star(v) and size.  The statement at v reads F only through F & star(v), so
    L with the first j edges outside star(v) stands for every F of size |L| + j
    whose view at v is L, and a view that holds at v holds at every size."""
    cert = certify_exact(X)

    def statement(F):
        if lemma == "distance":
            return distance(X, F, cert.mu)
        return local_views(X, F, cert.epsilon_cosystolic, cert.mu, slack)

    for v, star in enumerate(X.vertex_edges):
        rest = [1 << e for e in range(X.n_edges) if e not in star]
        for m in range(1 << len(star)):
            view = sum(1 << e for t, e in enumerate(star) if m >> t & 1)
            for j in range(len(rest) + 1):
                asserted, bad = statement(Chain.from_mask(1, view + sum(rest[:j])))
                if v not in bad:
                    break
                if asserted:
                    return True
    return False


VIEW_LEMMA_INPUTS = {
    **RUNNER_INPUTS,
    "torus": TORUS_7,
    "torus-relabelled": relabel(TORUS_7, 5),
    "rp2": RP2_6,
    "rp2-relabelled": relabel(RP2_6, 9),
    "k6": complete_complex(6),
    "k7": complete_complex(7),
    "k7-relabelled": relabel(complete_complex(7), 11),
}


@pytest.mark.parametrize(
    "lemma,slack",
    # distance takes no slack
    [("distance", 1e-9)] + [("local-views", slack) for slack in (1e-9, -0.5, -1.0, -3.0, -1e6)],
)
@pytest.mark.parametrize("name", sorted(VIEW_LEMMA_INPUTS))
def test_view_lemmas_scan_exactly_when_a_violation_exists(name, lemma, slack, monkeypatch):
    # Up to 2**21 edge sets, too many for ``reference_violations``: its statements
    # are checked at one edge set per vertex, view and size instead, and the merged
    # listing against the reference scan over the star tables.
    X = VIEW_LEMMA_INPUTS[name]
    streams, judged = [], []
    supersets, view_lemma = commands._supersets, commands._view_lemma
    monkeypatch.setattr(commands, "_supersets", lambda *args: streams.append(args) or supersets(*args))
    monkeypatch.setattr(
        commands, "_view_lemma", lambda *args, **kw: judged.append(args) or view_lemma(*args, **kw)
    )
    ns = argparse.Namespace(max_bits=24, slack=slack, tol=1e-9)
    try:
        result = commands._LEMMA_RUNNERS[lemma](X, ns)
    except (RegularityError, DomainError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            violation_exists(X, lemma, slack)
        return
    exists = violation_exists(X, lemma, slack)
    assert bool(streams) == exists == (result["status"] == "fail")
    ((_, X, holds, asserted),) = judged
    assert [v["edges"] for v in result["violations"]] == [
        mask_bits(m) for m in scanned_view_failures(X, holds, asserted)
    ]


def scanned_view_failures(X, holds, asserted):
    """The first ten masks failing a view lemma, by the reference scan over the star
    tables of failing views, ``full_tables.local_view_sums``, a row block at a time."""
    by_size = np.array([asserted(s) for s in range(X.n_edges + 1)])
    tables = [~np.array(h) for h in holds] if by_size.any() else []
    first = []
    for r, (sums, sizes) in enumerate(full_tables.local_view_sums(X, tables)):
        fail = np.flatnonzero((sums > 0) & by_size[sizes])
        first += (r * sums.size + fail[: 10 - len(first)]).tolist()
        if len(first) == 10:
            break
    return first


def test_audit_all_enumerates_edge_sets_only_for_the_sum_lemma(tmp_path, monkeypatch):
    # On K7 every lemma holds.  Outgoing is decided by its proof, distance and
    # local-views from the star tables; the sum lemma alone scans the 2**21 edge sets,
    # in 512 packed rows of 2**12 cuts.  Large cuts reads G0's 2**6 vertex sets without
    # vertex 6 in 4 rows of 2**4, and the star tables one list per star; each scan
    # starts from one list of the cuts of its low vertex sets.
    path = str(tmp_path / "k7.complex")
    save_complex(complete_complex(7), path)
    blocks, lists, lemma = [], [], [None]
    packed_cuts, cut_list = spectral._packed_cuts, spectral.cut_list

    def counting(masks, order, highs):
        for row in packed_cuts(masks, order, highs):
            blocks.append((lemma[0], len(masks), len(order)))
            yield row

    def listing(masks):
        cuts = cut_list(masks)
        lists.append((lemma[0], len(masks), len(cuts)))
        return cuts

    def running(name, run):
        return lambda *args: lemma.__setitem__(0, name) or run(*args)

    monkeypatch.setattr(spectral, "_packed_cuts", counting)
    for module in (spectral, expansion):
        monkeypatch.setattr(module, "cut_list", listing)
    for name, run in commands._LEMMA_RUNNERS.items():
        monkeypatch.setitem(commands._LEMMA_RUNNERS, name, running(name, run))
    code, out, _ = invoke("audit", path, "--lemma", "all")
    assert (code, json.loads(out)["status"]) == (0, "pass")
    assert blocks == [("large-cuts", 7, 2**4)] * 4 + [("sum", 21, 2**12)] * 512
    assert lists == [("large-cuts", 4, 2**4)] + [("distance", 6, 2**6)] * 7 + [("sum", 12, 2**12)]



# Where certify's small tables are on plain ints and lambda2 is bracketed exactly, and
# where INT_TABLE_BITS = 0 puts every certify table on arrays and lambda2 on the
# eigensolver; the cut scans read the packed rows either way.
AUDIT_PATH_INPUTS = {
    **{f"K{n}": complete_complex(n) for n in range(4, 8)},
    "octahedron": OCTAHEDRON,
    "rp2": RP2_6,
    "torus": TORUS_7,
    "cuboctahedron": CUBOCTAHEDRON,
    "fano": FANO,
    "half-octahedron": HALF_OCTAHEDRON,
    **{
        f"random {n} {p} {seed}": random_complex(n, p, seed)
        for n, p, seed in [(6, 0.5, 3), (6, 0.8, 4), (7, 0.5, 1)]
    },
    "K5-relabelled": relabel(complete_complex(5), 2),
    "octahedron-relabelled": relabel(OCTAHEDRON, 3),
    "rp2-relabelled": relabel(RP2_6, 8),
}


def assert_same_report(want, got, path="$"):
    """Equal documents, except that the floats read from lambda2, eta and rhs_bound,
    may move by 1e-15: the eigensolver's lambda2 against the bracket's."""
    if isinstance(want, dict):
        assert want.keys() == got.keys(), path
        for key in want:
            assert_same_report(want[key], got[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(want) == len(got), path
        for i, (w, g) in enumerate(zip(want, got)):
            assert_same_report(w, g, f"{path}[{i}]")
    elif isinstance(want, float) and path.endswith((".eta", ".rhs_bound")):
        assert type(got) is float and abs(want - got) <= 1e-15, path
    else:
        assert (type(want), want) == (type(got), got), path


@pytest.mark.parametrize("slack", ["1e-9", "-1"])
@pytest.mark.parametrize("name", sorted(AUDIT_PATH_INPUTS))
def test_audit_reports_agree_on_ints_and_arrays(name, slack, tmp_path, monkeypatch):
    path = str(tmp_path / "x.complex")
    save_complex(AUDIT_PATH_INPUTS[name], path)
    args = ["audit", path, "--lemma", "all", "--slack", slack]
    rows, packed_cuts = [], spectral._packed_cuts
    monkeypatch.setattr(
        spectral, "_packed_cuts", lambda masks, *args: rows.append(len(masks)) or packed_cuts(masks, *args)
    )
    on_ints, ints_rows = invoke(*args), list(rows)
    monkeypatch.setattr(spectral, "INT_TABLE_BITS", 0)  # read at call time
    on_arrays = invoke(*args)
    assert on_ints[0] == on_arrays[0] and on_ints[2] == on_arrays[2] == ""
    assert_same_report(json.loads(on_arrays[1]), json.loads(on_ints[1]))
    # Both read the same packed cut scans: where every lemma applies, G0's and G1's.
    assert rows == ints_rows + ints_rows
    if name in ("K4", "K5", "octahedron"):
        X = AUDIT_PATH_INPUTS[name]
        assert ints_rows == [X.n_vertices, X.n_edges]


def test_audit_evaluates_each_local_view_once(tmp_path, monkeypatch):
    # K6 has 6 stars of 5 edges: the per-vertex tables hold 6 * 2**5 = 192 local
    # views, built once per complex and kept on it for the two lemmas that read
    # them, distance and local-views; sum reads the edge graph instead, outgoing neither.
    # The distance judgement reads its distances off the Z^1 coset table that
    # certification built, on plain ints (2**10 entries), from the table cache.
    # Views are table entries, so --lemma all builds 7 value objects: the complex,
    # its two graphs (G0 and G1), the cut result and the certificate with its two
    # dimension reports.  G0 has 6 vertices, so lambda2 is bracketed exactly and no
    # spectrum is built.
    path = tmp_path / "k6.complex"
    save_complex(complete_complex(6), str(path))
    counts = {"views": [], "tables": 0, "judgement_tables": 0, "judgement_builds": 0, "records": 0}
    judgement, views = expansion.distance_judgement, expansion.local_views
    table, int_table, init = expansion._coset_table, expansion._int_coset_table, Record.__init__

    def builds():
        return table.cache_info().misses + int_table.cache_info().misses

    def counted_judgement(*args, **kwargs):
        tables, built = counts["tables"], builds()
        result = judgement(*args, **kwargs)
        counts["judgement_tables"] += counts["tables"] - tables
        counts["judgement_builds"] += builds() - built
        return result

    def counted_views(X):
        # A build returns a new pair of lists; a kept one is returned again.
        result = views(X)
        if all(result is not seen for seen in counts["views"]):
            counts["views"].append(result)
        return result

    def counted(read):
        def counted_table(*args, **kwargs):
            counts["tables"] += 1
            return read(*args, **kwargs)

        return counted_table

    def counted_init(self, *args, **kwargs):
        counts["records"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(expansion, "distance_judgement", counted_judgement)
    monkeypatch.setattr(expansion, "local_views", counted_views)
    monkeypatch.setattr(expansion, "_coset_table", counted(table))
    monkeypatch.setattr(expansion, "_int_coset_table", counted(int_table))
    monkeypatch.setattr(Record, "__init__", counted_init)
    for lemma in ("distance", "all"):
        for cached in (certify_exact, normalized_spectrum, spectral.lambda2_bracket, table, int_table):
            cached.cache_clear()
        counts.update(views=[], tables=0, judgement_tables=0, judgement_builds=0, records=0)
        assert invoke("audit", str(path), "--lemma", lemma)[0] == 0
        sizes = [(sum(map(len, s)), sum(map(len, c))) for s, c in counts["views"]]
        assert sizes == [(192, 192)]
        assert (counts["judgement_tables"], counts["judgement_builds"]) == (1, 0)
    assert counts["records"] == 7


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


def test_walk_alpha_power_overflow_reads_inf(tmp_path):
    path = tmp_path / "k5.complex"
    save_complex(complete_complex(5), str(path))
    code, out, err = invoke("walk", str(path), "--start", "0", "--steps", "1100", "--alpha", "2")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 1101
    # 2.0**1024 overflows a double: from there on the power reads inf and every row holds.
    assert [row[2] for row in rows] == [repr(2.0**i) for i in range(1024)] + ["inf"] * 77
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


@pytest.mark.parametrize(
    "X, seed", [(complete_complex(5), 7), (complete_complex(12), 1), (OCTAHEDRON, 1), (RP2_6, 1)],
    ids=["k5", "k12", "octahedron", "rp2"],
)
def test_walk_paths_sums_each_row_left_to_right(tmp_path, X, seed):
    # sum() compensates its rounding from Python 3.12 on, and 3.10's and 3.11's do
    # not: a left fold gives every interpreter the same bytes.
    path = tmp_path / "X.complex"
    save_complex(X, str(path))
    paths = 20000
    code, out, _ = invoke(
        "walk", str(path), "--start", "0", "--steps", "8", "--seed", str(seed), "--paths", str(paths)
    )
    assert code == 0
    want = []
    for step, row in enumerate(walk.high_order_step_counts(X, 0, 8, paths, seed)):
        total = 0.0
        for c in row:
            total += (c / paths - 1.0 / X.n_edges) ** 2
        want.append(f"{step},{total ** 0.5!r},,")
    assert out.splitlines()[1:] == want


def test_walk_exact_csv_pinned(tmp_path):
    # Against the step-by-step propagation, whose stdout this test pinned by sha256:
    # every non-float byte is the same, and each distance within 1e-12.
    path = tmp_path / "k40.complex"
    assert invoke("gen", "complete", "--n", "40", "-o", str(path))[0] == 0
    code, out, _ = invoke("walk", str(path), "--start", "0", "--steps", "2000")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["step", "distance", "alpha_power", "ok"]
    assert [(r[0], r[2], r[3]) for r in rows[1:]] == [(str(i), "", "") for i in range(2001)]
    g1 = edge_graph(complete_complex(40))
    _, want, _ = loop_evolve_exact(g1, 0, 2000)
    assert max(abs(float(r[1]) - d) for r, d in zip(rows[1:], want)) <= 1e-12


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


@pytest.mark.parametrize(
    "argv, heavy, n",
    [
        (["spectrum", "--graph", "g0"], (spectral, "adjacency_matrix"), 5),
        (["spectrum", "--graph", "g1"], (spectral, "adjacency_matrix"), 5),
        (["cheeger", "--graph", "g0"], (spectral, "least_cut"), 5),
        (["cheeger", "--graph", "g1"], (spectral, "least_cut"), 5),
        (["walk", "--start", "0", "--steps", "5"], (spectral, "start_measure"), 5),
    ],
    ids=["spectrum-g0", "spectrum-g1", "cheeger-g0", "cheeger-g1", "walk"],
)
def test_graph_commands_drop_the_complex_before_the_heavy_step(tmp_path, monkeypatch, argv, heavy, n):
    # The dense solve, the packed cuts and the Lanczos run start
    # once the loaded complex is freed: its graphs are kept on it, and nothing else holds it.
    path = tmp_path / f"k{n}.complex"
    save_complex(complete_complex(n), path)
    loaded, alive = [], []
    loads, (module, name) = complexes.loads_complex, heavy
    step = getattr(module, name)

    def spy_loads(text):
        X = loads(text)
        loaded.append(weakref.ref(X))
        return X

    def spy_step(*args, **kwargs):
        alive.extend(ref() is not None for ref in loaded)
        return step(*args, **kwargs)

    monkeypatch.setattr(complexes, "loads_complex", spy_loads)
    monkeypatch.setattr(module, name, spy_step)
    spectral._eigensystem.cache_clear()
    normalized_spectrum.cache_clear()
    assert invoke(argv[0], str(path), *argv[1:])[0] == 0
    assert len(loaded) == 1 and alive == [False]


INCIDENCE_MAPS = {"vertex_edges", "edge_triangles", "triangle_edge_ids"}

# (command, the incidence maps of the loaded complex it derives): the edge graph
# reads triangle_edge_ids alone, and the underlying graph reads no map.
DERIVED_MAPS = [
    (("validate",), set()),
    (("spectrum", "--graph", "g0"), set()),
    (("cheeger", "--graph", "g0"), set()),
    (("spectrum", "--graph", "g1"), {"triangle_edge_ids"}),
    (("walk", "--start", "0", "--steps", "5"), {"triangle_edge_ids"}),
]


@pytest.mark.parametrize(
    "argv, derived", DERIVED_MAPS, ids=[" ".join(argv) for argv, _ in DERIVED_MAPS]
)
def test_commands_derive_only_the_incidence_maps_they_read(tmp_path, monkeypatch, argv, derived):
    path = tmp_path / "k5.complex"
    save_complex(complete_complex(5), path)
    loaded, loads = [], complexes.loads_complex

    def spy_loads(text):
        loaded.append(loads(text))
        return loaded[-1]

    monkeypatch.setattr(complexes, "loads_complex", spy_loads)
    assert invoke(argv[0], str(path), *argv[1:])[0] == 0
    assert len(loaded) == 1 and INCIDENCE_MAPS & set(vars(loaded[0])) == derived


def test_gen_derives_no_incidence_map(monkeypatch):
    made, complete = [], complexes.complete_complex

    def spy_complete(n):
        made.append(complete(n))
        return made[-1]

    monkeypatch.setattr(complexes, "complete_complex", spy_complete)
    assert invoke("gen", "complete", "--n", "5")[0] == 0
    assert len(made) == 1 and not INCIDENCE_MAPS & set(vars(made[0]))


def test_walk_capacity_is_checked_before_the_edge_graph(k4_file, monkeypatch):
    # K4 has 6 edges, so this many steps make a table just over the cell limit.
    def refused(X):
        raise AssertionError("the edge graph was built")

    monkeypatch.setattr(graphs, "edge_graph", refused)
    steps = WALK_CELL_LIMIT // 6
    code, out, err = invoke("walk", k4_file, "--start", "0", "--steps", str(steps))
    assert (code, out) == (3, "")
    assert err == (
        f"hdx: capacity error: a walk table of {steps + 1} rows x 6 columns has "
        f"{6 * (steps + 1)} cells; limit is {WALK_CELL_LIMIT}\n"
    )


def test_walk_bad_start(k4_file):
    code, _, err = invoke("walk", k4_file, "--start", "99", "--steps", "2")
    assert code == 2


def test_walk_is_not_limited_by_the_dense_solve(tmp_path):
    # K65's edge graph has 2080 vertices, above DENSE_VERTEX_LIMIT: its spectrum
    # is refused, but the walk from one start builds no n x n matrix.
    path = tmp_path / "k65.complex"
    save_complex(complete_complex(65), str(path))
    code, out, err = invoke("walk", str(path), "--start", "0", "--steps", "100")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == [str(i) for i in range(101)]
    want = propagated_distances(edge_graph(complete_complex(65)), 0, 100)
    assert max(abs(float(r[1]) - d) for r, d in zip(rows, want)) <= 1e-12
    code, out, err = invoke("spectrum", str(path), "--graph", "g1")
    assert (code, out) == (3, "")
    assert err == "hdx: capacity error: dense matrices are limited to 2048 vertices, got 2080\n"


def test_walk_has_no_exact_flag(k4_file):
    # Exact evolution is what walk does without --paths; there is no flag for it.
    code, out, err = invoke("walk", k4_file, "--start", "0", "--steps", "2", "--exact")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --exact" in err


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


def test_unknown_subcommand_usage_error(capsys):
    code, out, err = invoke("frobnicate")
    assert code == 2 and out == ""
    assert err.startswith("usage: hdx") and "invalid choice: 'frobnicate'" in err
    assert capsys.readouterr() == ("", "")


def test_version_and_help_go_to_run_stdout(capsys):
    assert invoke("--version") == (0, f"hdx {cli.__version__}\n", "")
    code, out, err = invoke("certify", "--help")
    assert code == 0 and out.startswith("usage: hdx certify") and err == ""
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", ["spectrum", "audit --lemma sum", "verify-theorem"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_must_be_finite_and_non_negative(k4_file, hexagon_file, command, tol, monkeypatch):
    # Refused before any work: the eigensolver is never reached, and neither
    # is the degree check that ends verify-theorem on an irregular complex.
    monkeypatch.setattr(np.linalg, "eigh", None)
    for path in (k4_file, hexagon_file):
        code, out, err = invoke(*command.split(), path, "--tol", tol)
        assert (code, out) == (2, "")
        assert err == f"hdx: tolerance must be finite and non-negative, got {float(tol)!r}\n"


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        (command, "--slack", value, "slack must be finite")
        for command in ("audit --lemma sum", "walk --start 0 --steps 2", "verify-theorem --steps 3")
        for value in ("nan", "inf", "-inf")
    ]
    + [
        ("walk --start 0 --steps 2", "--alpha", value, "alpha must be finite and non-negative")
        for value in ("nan", "inf", "-1")
    ],
)
def test_slack_and_alpha_must_be_finite(k4_file, command, option, value, message, monkeypatch):
    # Refused before any work: the complex file is never read.  A negative
    # slack stays allowed; it tightens the bounds, as the violation listings use.
    monkeypatch.setattr(commands, "_load", None)
    monkeypatch.setattr(commands.complexes, "load_complex", None)  # walk reads without _load
    code, out, err = invoke(*command.split(), k4_file, f"{option}={value}")
    assert (code, out) == (2, "")
    assert err == f"hdx: {message}, got {float(value)!r}\n"


@pytest.mark.parametrize(
    "command",
    [f"audit --lemma {lemma}" for lemma in ("large-cuts", "distance", "local-views", "sum")]
    + ["verify-theorem --steps 3"],
)
def test_tol_reaches_every_lambda2_gate(tmp_path, command):
    path = str(tmp_path / "octa.complex")
    save_complex(OCTAHEDRON, path)
    assert invoke(*command.split(), path)[0] == 0
    code, out, err = invoke(*command.split(), path, "--tol", "1e-300")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"hdx: eigensolver residual \S+ exceeds tolerance 1\.000e-300\n", err)


def test_normalized_spectrum_refuses_bad_tolerance():
    G = underlying_graph(complete_complex(4))
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ParameterError, match="finite and non-negative"):
            normalized_spectrum(G, tol)
    assert normalized_spectrum(G, 0.5).lambda2 == pytest.approx(-1 / 3)


def test_exit_code_mapping():
    from hdxwalk.commands import _exit_code

    assert _exit_code("pass", strict=False) == 0
    assert _exit_code("fail", strict=False) == 1
    assert _exit_code("fail", strict=True) == 1
    assert _exit_code("not-applicable", strict=False) == 0
    assert _exit_code("not-applicable", strict=True) == 1


# One run of each subcommand; {k4}, {out} and {missing} are paths.
ONE_RUN_PER_SUBCOMMAND = [
    "--version",
    "gen complete --n 4 -o {out}",
    "gen random --n 6 --p 0.5 --seed 7 -o {out}",
    "validate {k4}",
    "validate {missing}",
    "spectrum {k4} --graph g1",
    "cheeger {k4} --graph g0",
    "cocycles {k4} --dim 1",
    "certify {k4}",
    "audit {k4} --lemma all",
    "walk {k4} --start 0 --steps 5",
    "walk {k4} --start 0 --steps 5 --paths 20",
    "verify-theorem {k4}",
]


@pytest.mark.parametrize("command", ONE_RUN_PER_SUBCOMMAND)
def test_run_freezes_nothing_and_leaves_no_file_open(command, k4_file, tmp_path, monkeypatch):
    # The process entry point freezes the heap for shut-down; `run` must not.
    # A file left open warns when it is collected, which a freeze would delay.
    argv = command.format(k4=k4_file, out=tmp_path / "out.complex", missing=tmp_path / "no")
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    frozen = gc.get_freeze_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        invoke(*argv.split())
        gc.collect()
    assert gc.get_freeze_count() == frozen
    assert [u.exc_value for u in unraisable] == []


# --- one solve, one table ------------------------------------------------------------


def test_each_graph_is_solved_once_per_command(tmp_path, monkeypatch):
    path = tmp_path / "k5.complex"
    save_complex(complete_complex(5), str(path))
    sizes = []
    eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    # g0 of K5 has 5 vertices, g1 has 10.  walk solves only the 2 x 2 tridiagonal
    # of its Krylov measure: e_0 - u sees two eigenvalues of g1.
    for argv, want in (
        (["walk", str(path), "--start", "0", "--steps", "50"], [2]),
        (["verify-theorem", str(path), "--steps", "50"], [5, 10]),
    ):
        for cached in (spectral._eigensystem, normalized_spectrum, certify_exact):
            cached.cache_clear()
        sizes.clear()
        assert invoke(*argv)[0] == 0
        assert sorted(sizes) == want


def test_verify_theorem_decides_lambda2_once(tmp_path, monkeypatch):
    # The rapid-mixing audit takes the rate; it decides no hypothesis of its own.
    path = tmp_path / "k5.complex"
    save_complex(complete_complex(5), str(path))
    gap, claims = expansion.gap_lambda2, []

    def spy(G, claim, *args, **kwargs):
        claims.append(claim)
        return gap(G, claim, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hdxwalk.") and getattr(module, "gap_lambda2", None) is gap:
            monkeypatch.setattr(module, "gap_lambda2", spy)
    assert invoke("verify-theorem", str(path), "--steps", "5")[0] == 0
    assert claims == ["rate bound requires"]


@pytest.mark.parametrize("name", ["k4", "k5", "octahedron", "rp2"])
def test_audit_verdicts_are_invariant_under_relabelling(name, tmp_path):
    X = {"k4": complete_complex(4), "k5": complete_complex(5), "octahedron": OCTAHEDRON, "rp2": RP2_6}[name]

    def verdicts(Y):
        path = str(tmp_path / "x.complex")
        save_complex(Y, path)
        code, out, _ = invoke("audit", path, "--lemma", "all")
        lemmas = json.loads(out)["results"]["lemmas"]
        return code, [(r["lemma"], r["status"], r.get("subsets_checked")) for r in lemmas]

    want = verdicts(X)
    for seed in (1, 2, 3):
        assert verdicts(relabel(X, seed)) == want, seed


def test_audit_keeps_no_complex_alive(tmp_path, monkeypatch):
    # The lemma scans keep their tables on the complex, in no module cache, so
    # once the certificate cache lets it go the loaded complex is freed.
    path = tmp_path / "k5.complex"
    save_complex(complete_complex(5), str(path))
    loaded, loads = [], complexes.loads_complex

    def spy_loads(text):
        X = loads(text)
        loaded.append(weakref.ref(X))
        return X

    monkeypatch.setattr(complexes, "loads_complex", spy_loads)
    code, out, _ = invoke("audit", str(path), "--lemma", "all")
    assert code == 0 and json.loads(out)["status"] == "pass"
    certify_exact.cache_clear()
    assert len(loaded) == 1 and loaded[0]() is None


# --- the public surface ---------------------------------------------------------------

PUBLIC = set(
    "Complex2 ExpansionCertificate Graph SpectralReport certify_exact "
    "cheeger_exhaustive coboundary_space cocycle_space complete_complex dumps_complex edge_graph "
    "high_order_step_counts large_cuts_audit load_complex max_distances mixing_rate_bound "
    "normalized_spectrum random_complex underlying_graph".split()
)
# The chain-level definitions that tests use as the reference for certificate witnesses.
COCHAIN_DEFINITIONS = {"cocycle_space", "coboundary_space"}
# Moved into tests/ (lemma_loops, scalar_walk, named_complexes, chains) or deleted.
GONE = (
    "mixing_lemma_audit cheeger_inequality_audit edge_graph_floor_audit MixingLemmaAudit "
    "CheegerInequalityAudit EdgeGraphFloorAudit EDGE_GRAPH_FLOOR simulate high_order_simulate "
    "complete_graph cycle_graph save_complex rank set_distance high_order_neighbors "
    "distance_formula_audit local_view_bounds_audit sum_coboundaries_audit outgoing_edges_identity "
    "sum_local_coboundaries fatness_partition FatnessPartition OutgoingEdgesIdentity "
    "DistanceFormulaReport LocalViewBoundsReport SumCoboundariesResult VertexDistanceEntry "
    "LocalViewBoundEntry SizePreconditions "
    "Chain CodeSpace coboundary coboundary_edges coboundary_vertices distance_to_space local_view "
    "span_iter in_span chain_to_mask mask_to_chain DISTANCE_ENUMERATION_LIMIT DimensionMismatchError "
    "coboundary_size build_incidence _least_ratio "
    "Distribution point_mass evolve_exact RapidMixingReport rapid_mixing_audit DegreeProfile "
    "degree_profile validate ValidationReport build_from_triangles edge_ids randrange derive_seed "
    "cut_rows lex_min _flagged _packed_cheeger"
).split()


def test_public_surface_is_what_a_subcommand_runs():
    assert set(hdxwalk.__all__) == PUBLIC
    referenced = {}
    for module in (cli, commands):
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        # Bare names, and module.name for the layer modules the module calls through.
        names = {n.id: getattr(module, n.id) for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in vars(module)}
        layers = {name for name, obj in names.items()
                  if isinstance(obj, types.ModuleType) and obj.__name__.startswith("hdxwalk.")}
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in layers:
                names[n.attr] = getattr(names[n.value.id], n.attr)
        referenced.update(names)
    # Record types that the functions cli.py and commands.py call return, and the Record types those carry.
    text = " ".join(str(getattr(obj, "__annotations__", {}).get("return")) for obj in referenced.values())
    records = {n for n in PUBLIC if isinstance(getattr(hdxwalk, n), type) and issubclass(getattr(hdxwalk, n), Record)}
    carried, found = set(), {None}
    while found:
        found = {n for n in records - carried if re.search(rf"\b{n}\b", text)}
        carried |= found
        text = " ".join(str(a) for n in found for a in getattr(hdxwalk, n).__annotations__.values())
    assert PUBLIC - set(referenced) - carried <= COCHAIN_DEFINITIONS
    for module in [hdxwalk] + [m for n, m in sys.modules.items() if n.startswith("hdxwalk.")]:
        classes = [c for c in vars(module).values() if isinstance(c, type) and c.__module__ == module.__name__]
        for owner in [module] + classes:
            assert [name for name in GONE if hasattr(owner, name)] == [], owner.__name__
    assert not {"triangle_ids", "edge_id"} & set(vars(hdxwalk.Complex2))
    assert not {"edges", "n_edges"} & set(vars(hdxwalk.Graph))
