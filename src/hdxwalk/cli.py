"""Command-line entry point.

One invocation, one self-contained report on stdout (JSON for analysis
commands, the complex document for ``gen``, CSV for ``walk``); diagnostics go
to stderr.  Reports embed the subcommand, flags, seeds, and input digests, and
are byte-identical across reruns with the same inputs.

Exit codes: 0 pass or not-applicable (without ``--strict``), 1 audit failure,
2 usage or input error, 3 capacity error.

This module only parses: the handlers are in ``hdxwalk.commands``, imported
once the arguments are parsed, and only the subcommand being run gets its
arguments added to the parser.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import Optional, TextIO

from . import __version__
from ._lazy import lazy_import
from .errors import CERTIFY_BIT_LIMIT, CapacityError, HdxError, ParameterError, check_tolerance

# Registered now, executed on first attribute access: a command runs only the
# layers it calls (``gen`` and ``validate`` only complexes).  All seven are
# registered, because perfbench/tracer.py wraps each one from sys.modules.
complexes, gf2, cochain, graphs, spectral, expansion, walk = (
    lazy_import(f"{__package__}.{layer}")
    for layer in ("complexes", "gf2", "cochain", "graphs", "spectral", "expansion", "walk")
)


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of ``argv``: every subcommand is listed, but only the one run,
    the first token not starting with ``-`` (the top level takes no option
    values), has its arguments, ``-h`` among them."""
    parser = argparse.ArgumentParser(
        prog="hdx",
        description="2-dimensional simplicial complexes: expansion certification, "
        "spectral audits, and high-order random walks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    running = next((arg for arg in argv if not arg.startswith("-")), None)

    def add(name: str, help: str) -> Optional[argparse.ArgumentParser]:
        runs = name == running
        p = sub.add_parser(name, help=help, add_help=runs)
        return p if runs else None

    if p := add("gen", "generate a complex document"):
        gsub = p.add_subparsers(dest="kind", required=True)
        g = gsub.add_parser("complete", help="complete complex on n vertices")
        g.add_argument("--n", type=int, required=True)
        g.add_argument("-o", "--output", default=None)
        g = gsub.add_parser("random", help="full 1-skeleton, random triangles")
        g.add_argument("--n", type=int, required=True)
        g.add_argument("--p", type=float, required=True)
        g.add_argument("--seed", type=int, required=True)
        g.add_argument("-o", "--output", default=None)

    if p := add("validate", "check closure and incidence consistency"):
        p.add_argument("file")

    if p := add("spectrum", "normalized adjacency spectrum"):
        p.add_argument("file")
        p.add_argument("--graph", choices=("g0", "g1"), default="g0")
        p.add_argument("--tol", type=float, default=1e-9)

    if p := add("cheeger", "exact normalized Cheeger constant"):
        p.add_argument("file")
        p.add_argument("--graph", choices=("g0", "g1"), required=True)

    if p := add("cocycles", "cocycle and coboundary space bases"):
        p.add_argument("file")
        p.add_argument("--dim", type=int, choices=(0, 1), required=True)

    if p := add("certify", "exact expansion certificate"):
        p.add_argument("file")
        p.add_argument("--max-bits", type=int, default=CERTIFY_BIT_LIMIT)

    if p := add("audit", "check the supporting inequalities on one complex"):
        p.add_argument("file")
        p.add_argument(
            "--lemma",
            choices=("outgoing", "large-cuts", "distance", "local-views", "sum", "all"),
            required=True,
        )
        p.add_argument("--max-bits", type=int, default=CERTIFY_BIT_LIMIT)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--slack", type=float, default=1e-9)
        p.add_argument("--strict", action="store_true")

    if p := add("walk", "edge-walk trace (exact) or path ensemble (CSV)"):
        p.add_argument("file")
        p.add_argument("--start", type=int, required=True, help="start edge index")
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--paths", type=int, default=None, help="Monte Carlo path count")
        p.add_argument("--alpha", type=float, default=None, help="rate bound to compare against")
        p.add_argument("--slack", type=float, default=1e-9)

    if p := add(
        "verify-theorem", "degree check, spectrum, certificate, rate bound, and walk audit"
    ):
        p.add_argument("file")
        p.add_argument("--steps", type=int, default=100)
        p.add_argument("--max-bits", type=int, default=CERTIFY_BIT_LIMIT)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--slack", type=float, default=1e-9)
        p.add_argument("--strict", action="store_true")

    return parser


def run(argv=None, stdout: Optional[TextIO] = None, stderr: Optional[TextIO] = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse writes --version, --help and usage errors to sys.stdout/stderr.
        with redirect_stdout(out), redirect_stderr(err):
            ns = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        # Before any work: audit and some verify-theorem runs never use these.
        # NaN or infinity would turn each comparison they enter into a constant.
        if "tol" in ns:
            check_tolerance(ns.tol)
        if "slack" in ns and not math.isfinite(ns.slack):
            raise ParameterError(f"slack must be finite, got {ns.slack!r}")
        if getattr(ns, "max_bits", 0) < 0:
            raise ParameterError(f"max-bits must be non-negative, got {ns.max_bits}")
        alpha = getattr(ns, "alpha", None)
        if alpha is not None and not (math.isfinite(alpha) and alpha >= 0):
            raise ParameterError(f"alpha must be finite and non-negative, got {alpha!r}")
        from . import commands

        handler = getattr(commands, "_cmd_" + ns.subcommand.replace("-", "_"))
        return handler(ns, out)
    except CapacityError as exc:
        print(f"hdx: capacity error: {exc}", file=err)
        return 3
    except HdxError as exc:
        print(f"hdx: {exc}", file=err)
        return 2
    except OSError as exc:
        print(f"hdx: {exc}", file=err)
        return 2


def main() -> None:
    """Process entry point: ``run`` on the command line, then exit with its code.

    Before exiting, everything the run allocated moves to the permanent
    generation, which the collections at interpreter shutdown skip; the
    operating system reclaims that memory anyway.  ``atexit`` handlers and
    the flush of stdout and stderr still run.  ``run`` itself freezes nothing.
    """
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
