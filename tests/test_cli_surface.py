"""The command-line surface, byte for byte.

``hdx --help``, the ``--help`` of every subcommand (and of ``gen complete`` and
``gen random``), ``--version`` and each kind of usage error: exit code, stdout
and stderr of ``cli.run`` at 80 columns, against ``tests/cli_surface.json``.
No case reads a file: each one ends while the arguments are parsed.  argparse
formats the text, so the cases are checked only under the Python version
(major.minor) that the file was captured with.

``python tests/test_cli_surface.py`` rewrites the JSON file from the current tree.
"""

import io
import json
import os
import sys

import pytest

from hdxwalk import cli

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_surface.json")

SUBCOMMANDS = (
    "gen", "gen complete", "gen random", "validate", "spectrum", "cheeger", "cocycles",
    "certify", "audit", "walk", "verify-theorem",
)
CASES = (
    ["--help", "--version"]
    + [f"{name} --help" for name in SUBCOMMANDS]
    + [
        "",  # no subcommand
        "frobnicate",  # unknown subcommand
        "cheeger k4.complex",  # missing required option
        "spectrum k4.complex --graph g2",  # invalid choice
        "walk k4.complex --start x --steps 3",  # bad int
        "spectrum k4.complex --tol abc",  # bad float
        "certify k4.complex --frob",  # unknown option
        "walk k4.complex --ste 3",  # abbreviated option: --steps, so only --start is missing
        "gen",  # gen without a kind
    ]
)


def surface(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(command.split(), out, err)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["python"] != python_version():
        pytest.skip(f"captured with Python {doc['python']}, running {python_version()}")
    return doc["cases"]


@pytest.mark.parametrize("command", CASES)
def test_surface_is_unchanged(command, expected, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert surface(command) == expected[command]


def test_every_case_is_pinned(expected):
    assert sorted(expected) == sorted(CASES)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        cases = {c: surface(c) for c in CASES}
        json.dump({"python": python_version(), "cases": cases}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
