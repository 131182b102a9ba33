"""Start-up and exit contract: numpy and each layer module are executed on
first use, never at import, and the process freezes its heap before it exits,
whatever the exit code.

Every case runs in a fresh interpreter, because this test process has
already imported numpy and every layer.  The benchmark's tracer
(``perfbench/tracer.py``) relies on ``import hdxwalk.cli`` registering every
layer module in ``sys.modules``; that contract is pinned here too, without
changing anything under ``perfbench/``.
"""

import ast
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import types

import pytest

from hdxwalk import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "hdxwalk")
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import corpus  # noqa: E402
import tracer  # noqa: E402

# Runs `python -m hdxwalk.cli ARG...` and reports on stderr, last, whether
# numpy's compiled core was ever imported and, from an exit handler registered
# before the run (so it runs after every handler the run registers), whether
# the heap was frozen for shut-down.
PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"\\nheap frozen: {gc.get_freeze_count() > 0}\\n"))
try:
    runpy.run_module("hdxwalk.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(f"\\nnumpy._core loaded: {'numpy._core' in sys.modules}\\n")
"""


def python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


def hdx(directory, *args):
    """(exit code, stdout, stderr, numpy._core loaded, heap frozen at exit) of one fresh process."""
    done = python("-c", PROBE, *args, cwd=directory)
    rest, _, frozen = done.stderr.rstrip("\n").rpartition("\nheap frozen: ")
    err, _, loaded = rest.rstrip("\n").rpartition("\nnumpy._core loaded: ")
    assert loaded in ("True", "False") and frozen in ("True", "False"), done.stderr
    return done.returncode, done.stdout, err, loaded == "True", frozen == "True"


def in_process(directory, args, monkeypatch):
    """(exit code, stdout) of ``cli.run`` in this process, in ``directory``."""
    monkeypatch.chdir(directory)
    out = io.StringIO()
    return cli.run(args, out, io.StringIO()), out.getvalue()


@pytest.fixture(scope="module")
def fixed(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    corpus.write_fixed(str(directory), 0)
    return str(directory)


# (command, exit code): the commands that compute with no array.
WITHOUT_NUMPY = [
    ("--version", 0),
    ("validate k5.complex", 0),
    ("gen complete --n 4", 0),
    ("gen random --n 6 --p 0.5 --seed 7", 0),
    ("cocycles k5.complex --dim 0", 0),
    ("cocycles k5.complex --dim 1", 0),
    ("audit k5.complex --lemma outgoing", 0),  # decided by its proof: nothing is scanned
    ("audit octa.complex --lemma outgoing --max-bits 8", 3),  # refused: 12 edges
    # Every table at most 2**INT_TABLE_BITS entries: enumerated on plain ints.
    ("certify k5.complex", 0),
    # Every graph the table limit admits: the cuts are packed into ints.
    ("cheeger k5.complex --graph g1", 0),
    ("cheeger k6.complex --graph g1", 0),  # 15 vertices
    ("cheeger rp2.complex --graph g1", 0),  # 15 vertices
    ("cheeger k18.complex --graph g0", 0),
    ("cheeger k7.complex --graph g1", 0),  # 21 vertices
    ("cheeger cubo.complex --graph g1", 0),  # 24 vertices
    # lambda2 of a G0 on at most INT_TABLE_BITS vertices is bracketed exactly, the star
    # tables are lists, and the cut scans read packed ints at every size.
    ("audit k4.complex --lemma all", 0),
    ("audit k5.complex --lemma all", 0),
    ("audit k6.complex --lemma all", 0),  # 2**15 edge sets
    ("audit rp2.complex --lemma all", 0),  # 2**15 edge sets
    ("audit octa.complex --lemma distance", 0),
    ("audit octa.complex --lemma local-views", 0),
    ("audit octa.complex --lemma large-cuts", 0),
    ("audit octa.complex --lemma sum", 0),
    ("spectrum k4.complex --graph g2", 2),  # usage error
    ("validate missing.complex", 2),
]


@pytest.mark.parametrize("command, code", WITHOUT_NUMPY, ids=[c for c, _ in WITHOUT_NUMPY])
def test_command_never_loads_numpy(fixed, command, code, monkeypatch):
    args = command.split()
    got, out, err, loaded, frozen = hdx(fixed, *args)
    assert (got, loaded, frozen) == (code, False, True), err
    assert (got, out) == in_process(fixed, args, monkeypatch)
    if args == ["--version"]:
        assert out == f"hdx {cli.__version__}\n"


def test_certify_loads_numpy_and_output_is_unchanged(fixed, monkeypatch):
    # The cuboctahedron's B^1 table has 2**13 entries, past INT_TABLE_BITS.
    code, out, err, loaded, frozen = hdx(fixed, "certify", "cubo.complex")
    assert (code, loaded, frozen) == (0, True, True), err
    assert (code, out) == in_process(fixed, ["certify", "cubo.complex"], monkeypatch)


def test_audit_past_the_int_table_bits_loads_numpy_and_output_is_unchanged(fixed, monkeypatch):
    # K7's certificate reads its 2**15-entry Z^1 table, past INT_TABLE_BITS, on arrays.
    args = ["audit", "k7.complex", "--lemma", "sum"]
    code, out, err, loaded, frozen = hdx(fixed, *args)
    assert (code, loaded, frozen) == (0, True, True), err
    assert (code, out) == in_process(fixed, args, monkeypatch)


# (command, exit code): a capacity error and a --strict not-applicable verdict.
FAILING = [("certify k8.complex", 3), ("verify-theorem cubo.complex --strict", 1)]


@pytest.mark.parametrize("command, code", FAILING, ids=[c for c, _ in FAILING])
def test_failing_command_exits_with_its_code_and_frozen_heap(fixed, command, code, monkeypatch):
    args = command.split()
    got, out, err, _, frozen = hdx(fixed, *args)
    assert (got, frozen) == (code, True), err
    assert (got, out) == in_process(fixed, args, monkeypatch)


# Runs `python -m hdxwalk.cli ARG...` and reports on stderr, last, the layer
# modules executed and whether the handlers module (hdxwalk.commands),
# fractions, numpy.ma, hashlib and OpenSSL's _hashlib were imported.  A module
# registered by lazy_import keeps the LazyLoader's own module type until it is
# first read.
EXECUTED_PROBE = """
import runpy, sys, types
try:
    runpy.run_module("hdxwalk.cli", run_name="__main__", alter_sys=True)
finally:
    layers = sorted(n[8:] for n, m in sys.modules.items()
                    if n.startswith("hdxwalk.") and type(m) is types.ModuleType)
    imported = [name in sys.modules
                for name in ("hdxwalk.commands", "fractions", "numpy.ma", "hashlib", "_hashlib")]
    sys.stderr.write(f"\\nexecuted: {(layers, imported)!r}\\n")
"""

CHAIN_LAYERS = {"cochain", "gf2"}
GRAPH_LAYERS = {"complexes", "graphs", "spectral"}
# (command, exit code, layers executed, handlers executed, fractions imported).
# The handlers are compiled only once the arguments parse.  Certify and audit
# never run the walk layer.  Only exact constants need fractions (and with it
# decimal).  No command needs numpy.ma, which np.unique, for one, imports:
# about 20 ms.  A JSON report's input digest is taken with CPython's built-in
# SHA-256, so no command imports hashlib, nor maps OpenSSL's libcrypto.
EXECUTED = [
    ("--version", 0, set(), False, False),
    ("--help", 0, set(), False, False),
    ("spectrum k4.complex --graph g2", 2, set(), False, False),  # usage error
    ("gen complete --n 4", 0, {"complexes"}, True, False),
    ("gen random --n 6 --p 0.5 --seed 7", 0, {"complexes"}, True, False),
    ("validate k5.complex", 0, {"complexes"}, True, False),
    ("walk k5.complex --start 0 --steps 20", 0, GRAPH_LAYERS | {"walk"}, True, False),
    # A path ensemble steps through the edge graph's neighbor lists; spectral never runs.
    ("walk k5.complex --start 0 --steps 5 --paths 10", 0, {"complexes", "graphs", "walk"},
     True, False),
    ("spectrum k5.complex --graph g1", 0, GRAPH_LAYERS, True, False),
    ("cheeger k5.complex --graph g0", 0, GRAPH_LAYERS, True, True),
    ("cocycles k5.complex --dim 1", 0, {"complexes"} | CHAIN_LAYERS, True, False),
    ("certify k5.complex", 0, GRAPH_LAYERS | CHAIN_LAYERS | {"expansion"}, True, True),
    # Decided by its proof, the identity needs only the loaded complex, pass or refusal;
    # --max-bits's default and the --tol check live in hdxwalk.errors, beside the errors
    # they raise.
    ("audit k5.complex --lemma outgoing", 0, {"complexes"}, True, False),
    ("audit octa.complex --lemma outgoing --max-bits 8", 3, {"complexes"}, True, False),
    ("audit k4.complex --lemma all", 0, GRAPH_LAYERS | CHAIN_LAYERS | {"expansion"}, True, True),
    ("verify-theorem k5.complex --steps 5", 0, set(tracer.LAYERS), True, True),
]


def executed(directory, command, prelude=""):
    """(the finished process, layers executed, [handlers, fractions, numpy.ma,
    hashlib, _hashlib imported]) of one fresh process running ``prelude`` first."""
    done = python("-c", prelude + EXECUTED_PROBE, *command.split(), cwd=directory)
    _, _, line = done.stderr.rstrip("\n").rpartition("\nexecuted: ")
    return (done, *ast.literal_eval(line))


@pytest.mark.parametrize(
    "command, code, layers, handlers, exact", EXECUTED, ids=[c[0] for c in EXECUTED]
)
def test_command_executes_only_the_layers_it_runs(fixed, command, code, layers, handlers, exact):
    done, executed_layers, imported = executed(fixed, command)
    assert done.returncode == code, done.stderr
    assert set(executed_layers) & set(tracer.LAYERS) == layers
    assert imported == [handlers, exact, False, False, False]


# Runs `python -m hdxwalk.cli ARG...` and reports on stderr, last, whether
# numpy's compiled core was imported each time hdxwalk/expansion.py's module
# code ran, as the audit hook sees the builtin exec that runs it.
ORDER_PROBE = """
import os, runpy, sys
seen = []
def hook(event, args):
    if event == "exec" and args[0].co_filename.endswith(os.path.join("hdxwalk", "expansion.py")):
        seen.append("numpy._core" in sys.modules)
sys.addaudithook(hook)
try:
    runpy.run_module("hdxwalk.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(f"\\nnumpy loaded at expansion: {seen!r}\\n")
"""


def test_verify_theorem_executes_expansion_before_numpy(fixed):
    # Executed after numpy has loaded and G0's spectrum is computed, expansion.py,
    # compiled where no bytecode is written, raises the peak RSS by about 0.7 MB.
    done = python("-c", ORDER_PROBE, "verify-theorem", "k5.complex", "--steps", "5", cwd=fixed)
    assert done.returncode == 0, done.stderr
    assert done.stderr.endswith("\nnumpy loaded at expansion: [False]\n")


def test_digest_is_sha256_of_every_corpus_file(fixed):
    from hdxwalk import commands

    names = sorted(os.listdir(fixed))
    assert len(names) > 5
    for name in names:
        with open(os.path.join(fixed, name), "rb") as fh:
            data = fh.read()
        assert commands._sha256(data) == hashlib.sha256(data).hexdigest(), name


# The built-in modules the digest falls back past: _sha2 is Python 3.12's on,
# _sha256 that of 3.10 and 3.11; with neither, hashlib gives the digest.
BLOCKED = [("_sha2",), ("_sha2", "_sha256")]


@pytest.mark.parametrize("blocked", BLOCKED, ids=["+".join(b) for b in BLOCKED])
def test_digest_fallbacks_agree(fixed, blocked):
    with open(os.path.join(fixed, "k5.complex"), "rb") as fh:
        want = hashlib.sha256(fh.read()).hexdigest()
    prelude = "import sys\n" + "".join(f"sys.modules[{name!r}] = None\n" for name in blocked)
    done, _, imported = executed(fixed, "validate k5.complex", prelude)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["inputs"]["sha256"] == want
    builtin = "_sha256" not in blocked and importlib.util.find_spec("_sha256") is not None
    assert imported[3:] == [not builtin, not builtin]


# The module each import branch takes its sha256 from, past the modules blocked.
BRANCHES = list(zip(("_sha2", "_sha256", "hashlib"), [(), *BLOCKED]))


@pytest.mark.parametrize("branch, blocked", BRANCHES, ids=[b for b, _ in BRANCHES])
def test_digest_takes_each_import_branch(branch, blocked, monkeypatch):
    # Stand-ins make each branch run whichever built-in modules this Python has.
    from hdxwalk import commands

    data = b'{"triangles": [[0, 1, 2]]}\n'
    want, taken, sha256 = hashlib.sha256(data).hexdigest(), [], hashlib.sha256

    def recording(data):
        taken.append(branch)
        return sha256(data)

    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    if branch == "hashlib":
        monkeypatch.setattr(hashlib, "sha256", recording)
    else:
        stand_in = types.ModuleType(branch)
        stand_in.sha256 = recording
        monkeypatch.setitem(sys.modules, branch, stand_in)
    assert commands._sha256(data) == want
    assert taken == [branch]


def test_gen_output_file_holds_the_stdout_bytes(tmp_path):
    args = ["gen", "random", "--n", "7", "--p", "0.5", "--seed", "3"]
    code, out, err, _, frozen = hdx(str(tmp_path), *args, "-o", "out.complex")
    assert (code, out, frozen) == (0, "", True), err
    code, out, err, _, _ = hdx(str(tmp_path), *args)
    assert code == 0, err
    assert (tmp_path / "out.complex").read_bytes() == out.encode("utf-8")


def test_package_import_loads_no_numpy():
    done = python(
        "-c",
        "import sys, hdxwalk\n"
        "assert 'numpy._core' not in sys.modules\n"
        "X = hdxwalk.complete_complex(4)\n"
        "print(hdxwalk.normalized_spectrum(hdxwalk.underlying_graph(X)).lambda2)\n"
        "assert 'numpy._core' in sys.modules\n",
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) == pytest.approx(-1 / 3)


def test_cli_import_loads_no_dataclasses():
    # The value classes build no methods at import; see hdxwalk/_record.py.
    done = python("-c", "import sys, hdxwalk.cli\nprint('dataclasses' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_version_loads_no_inspect(fixed):
    done = python(
        "-c",
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('hdxwalk.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print('inspect' in sys.modules)\n",
        "--version",
        cwd=fixed,
    )
    assert (done.returncode, done.stdout) == (0, f"hdx {cli.__version__}\nFalse\n"), done.stderr


# --- the tracer's contract ------------------------------------------------------


def test_cli_import_loads_every_layer():
    """``import hdxwalk.cli`` registers every layer module, executed on first use:
    the tracer's ``install`` reads each one from ``sys.modules``."""
    done = python(
        "-c",
        "import sys, hdxwalk.cli\n"
        "print(sorted(n for n in sys.modules if n.startswith('hdxwalk.')))",
    )
    assert done.returncode == 0, done.stderr
    loaded = set(ast.literal_eval(done.stdout))
    assert {f"hdxwalk.{layer}" for layer in tracer.LAYERS} <= loaded


def test_tracer_output_matches_untraced_run(fixed, tmp_path):
    trace_path = str(tmp_path / "trace.json")
    traced = python(os.path.join(PERFBENCH, "tracer.py"), trace_path, "certify", "k5.complex",
                    cwd=fixed)
    plain = python("-m", "hdxwalk.cli", "certify", "k5.complex", cwd=fixed)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    with open(trace_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["layers"]["expansion"]["calls"] > 0
    assert doc["layers"]["expansion"]["errors"] == 0


def test_tracer_wraps_the_layers_walk_executes(fixed, tmp_path):
    # walk registers the chain layers without executing them; install reads them all.
    trace_path = str(tmp_path / "trace.json")
    args = ["walk", "k5.complex", "--start", "0", "--steps", "50", "--paths", "20"]
    traced = python(os.path.join(PERFBENCH, "tracer.py"), trace_path, *args, cwd=fixed)
    plain = python("-m", "hdxwalk.cli", *args, cwd=fixed)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    with open(trace_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["layers"]["walk"]["calls"] > 0
    assert doc["counters"]["walk.path_steps"] == 50 * 20
    assert sum(layer["errors"] for layer in doc["layers"].values()) == 0


# --- lint guard -------------------------------------------------------------------


def _module_level_imports(tree):
    """Import statements outside any function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        names = [node.module or ""] if node.level == 0 else []
    return any(name == "numpy" or name.startswith("numpy.") for name in names)


def test_numpy_is_imported_only_through_the_lazy_helper():
    offenders = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        if any(_imports_numpy(node) for node in _module_level_imports(tree)):
            offenders.append(name)
    assert offenders == [], f"import numpy at module level (use `from ._lazy import np`): {offenders}"
