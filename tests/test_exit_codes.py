"""The exit-code contract, by generation: every subcommand, on generated small
documents and argv, exits 0, 1, 2 or 3, with no traceback, within 2 s.

``cli.run`` is driven in this process; no thread or process is started.  The
documents are small (vertex ids 0..6 besides a few extreme ones, at most 15
edges and 20 triangles), so that no generated case can reach a table near
``spectral.TABLE_BIT_LIMIT``; walk lengths and path counts are small too, and
their extreme values are ones the capacity guards refuse before any work.
"""

import io
import json
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from named_complexes import OCTAHEDRON, RP2_6

from hdxwalk import cli
from hdxwalk.complexes import complete_complex, random_complex, to_document

# --- documents -------------------------------------------------------------------

_small = st.integers(0, 6)
_odd = (
    st.sampled_from([-1, 4095, 4096, 2**63, 10**40])
    | st.floats(allow_nan=False)
    | st.booleans()
    | st.text(max_size=2)
    | st.none()
)
_vertex = st.one_of(_small, _small, _small, _odd)
_leaf = (
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3)
)
_junk = st.recursive(
    _leaf,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _faces(size, most):
    face = st.lists(_vertex, min_size=size, max_size=size)
    return st.lists(face | face | st.lists(_vertex, max_size=4), max_size=most)


_raw = st.fixed_dictionaries(
    {},
    optional={
        "vertices": st.lists(_vertex, max_size=8) | _junk,
        "edges": _faces(2, 10) | _junk,
        "triangles": _faces(3, 6) | _junk,
        "labels": _junk
        | st.dictionaries(st.sampled_from(["0", "1", "2", "6", "-1", "x"]), _junk, max_size=3),
        "extra": _junk,
    },
)
# Regular complexes, on which every command gets past its hypotheses, and others.
_complexes = st.one_of(
    st.sampled_from([complete_complex(n) for n in range(3, 7)] + [OCTAHEDRON, RP2_6]),
    st.integers(0, 6).map(complete_complex),
    st.builds(random_complex, st.integers(0, 6), st.floats(0, 1), st.integers(0, 2**32 - 1)),
)
_special = st.sampled_from(
    [
        b"",
        b"{",
        b"[]",
        b"null",
        b'{"edges": [[0, 1]], "edges": []}',
        b'{"vertices": [NaN]}',
        b'{"vertices": [0], "labels": {"0": Infinity}}',
        b'{"vertices": [1e999]}',
        b'{"edges": [[0, 1' + b"0" * 5000 + b"]]}",
        b'{"vertices": [4095], "edges": [[0, 1]]}',
        b"\xff\xfe{}",
    ]
)
_deep = st.sampled_from([10, 1000, 100000]).map(lambda d: b"[" * d + b"]" * d)
# A complex half the time; otherwise any document, bytes that are none, or deep nesting.
_contents = st.one_of(
    _complexes.map(to_document).map(lambda doc: json.dumps(doc).encode()),
    _raw.map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=24) | _special | _deep,
)

# --- argv ------------------------------------------------------------------------


def _mostly(usual, rest):
    """``usual`` three times in four, ``rest`` the fourth."""
    return st.sampled_from([usual, usual, usual, rest]).flatmap(lambda strategy: strategy)


_int = _mostly(
    st.integers(-3, 40).map(str),
    st.sampled_from(["1000000000", "-1000000000", str(2**63), str(10**100), "x", "1.5", ""]),
)
_float = _mostly(
    st.floats(-1, 2).map(repr),
    st.floats().map(repr) | st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "x", ""]),
)
_graph = _mostly(st.sampled_from(["g0", "g1"]), st.just("g2"))
_lemmas = ["outgoing", "large-cuts", "distance", "local-views", "sum", "all"]
_lemma = _mostly(st.sampled_from(_lemmas), st.just("x"))
_checks = {"--max-bits": _int, "--tol": _float, "--slack": _float, "--strict": st.just(None)}
# Stand-ins for the input document and gen's output file in the test's directory.
_file, _out = object(), object()

# Per subcommand: its positional arguments, the options it requires, and the
# optional ones; each is usually given, and its value usually valid.
COMMANDS = {
    "gen complete": ([], {"--n": _int}, {"--output": st.just(_out)}),
    "gen random": ([], {"--n": _int, "--p": _float, "--seed": _int}, {"--output": st.just(_out)}),
    "validate": ([_file], {}, {}),
    "spectrum": ([_file], {}, {"--graph": _graph, "--tol": _float}),
    "cheeger": ([_file], {"--graph": _graph}, {}),
    "cocycles": ([_file], {"--dim": _mostly(st.sampled_from(["0", "1"]), _int)}, {}),
    "certify": ([_file], {}, {"--max-bits": _int}),
    "audit": ([_file], {"--lemma": _lemma}, _checks),
    "walk": (
        [_file],
        {"--start": _mostly(st.integers(0, 5).map(str), _int), "--steps": _int},
        {"--seed": _int, "--paths": _int, "--alpha": _float, "--slack": _float},
    ),
    "verify-theorem": ([_file], {}, {"--steps": _int, **_checks}),
}
# The commands whose stdout, when there is any, is one JSON document.
JSON_COMMANDS = set(COMMANDS) - {"walk"}


@st.composite
def _argv(draw, command, directory):
    positional, required, optional = COMMANDS[command]
    paths = {_file: os.path.join(directory, "doc.complex"), _out: os.path.join(directory, "out")}
    argv = command.split()
    # Each argument is left out (often a usage error) one time in ten.
    usually = st.sampled_from([True] * 9 + [False])
    argv += [paths[a] for a in positional if draw(usually)]
    options = [flag for flag in required if draw(usually)]
    options += draw(st.lists(st.sampled_from(sorted(optional)), unique=True)) if optional else []
    for flag in draw(st.permutations(options)):
        value = draw({**required, **optional}[flag])
        argv += [flag] if value is None else [f"{flag}={paths.get(value, value)}"]
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("exit-codes"))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_exit_code_is_in_the_contract(command, workdir):
    @settings(max_examples=100, deadline=None, suppress_health_check=list(HealthCheck))
    @given(content=_contents, argv=_argv(command, workdir))
    def case(content, argv):
        with open(os.path.join(workdir, "doc.complex"), "wb") as fh:
            fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        code = cli.run(argv, out, err)
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        assert elapsed < 2.0, (argv, elapsed)
        text = out.getvalue()
        if command in JSON_COMMANDS:
            if text or (code in (0, 1) and not any(a.startswith("--output=") for a in argv)):
                json.loads(text)
        elif code == 0:  # walk's CSV
            assert text.startswith("step,distance,alpha_power,ok\n"), argv

    case()
