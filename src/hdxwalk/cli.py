"""Command-line entry point.

One invocation, one self-contained report on stdout (JSON for analysis
commands, the complex document for ``gen``, CSV for ``walk``); diagnostics go
to stderr.  Reports embed the subcommand, flags, seeds, and input digests, and
are byte-identical across reruns with the same inputs.

Exit codes: 0 pass or not-applicable (without ``--strict``), 1 audit failure,
2 usage or input error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from typing import Optional, TextIO

from . import __version__
from ._lazy import lazy_import, np
from ._record import Record
from .errors import (
    CapacityError,
    DegenerateComplexError,
    DomainError,
    HdxError,
    ParameterError,
    RegularityError,
)

# Registered now, executed on first attribute access: a command runs only the
# layers it calls (``gen`` and ``validate`` only complexes).  All seven are
# registered, because perfbench/tracer.py wraps each one from sys.modules.
complexes, gf2, cochain, graphs, spectral, expansion, walk = (
    lazy_import(f"{__package__}.{layer}")
    for layer in ("complexes", "gf2", "cochain", "graphs", "spectral", "expansion", "walk")
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


# The leaf types json writes as they are; a report's leaves are these or Fractions.
_JSON_LEAVES = frozenset({str, int, float, bool, type(None)})


def _jsonable(obj):
    if type(obj) in _JSON_LEAVES:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, Record):
        return {name: _jsonable(value) for name, value in obj.asdict().items()}
    from fractions import Fraction

    return str(obj) if isinstance(obj, Fraction) else obj


def _digest(path: str) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _report(ns: argparse.Namespace, inputs: dict, results, status: str) -> dict:
    args = {
        k: _jsonable(v)
        for k, v in sorted(vars(ns).items())
        if k not in ("func",) and v is not None
    }
    return {
        "command": args,
        "inputs": inputs,
        "results": _jsonable(results),
        "status": status,
    }


def _emit(doc: dict, out: TextIO) -> None:
    import json

    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _exit_code(status: str, strict: bool) -> int:
    return int(status == FAIL or (status == NOT_APPLICABLE and strict))


def _load(ns: argparse.Namespace) -> tuple[complexes.Complex2, dict]:
    return complexes.load_complex(ns.file), {"file": ns.file, "sha256": _digest(ns.file)}


def _pick_graph(X: complexes.Complex2, which: str):
    return graphs.underlying_graph(X) if which == "g0" else graphs.edge_graph(X)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(ns, out, err) -> int:
    if ns.kind == "complete":
        X = complexes.complete_complex(ns.n)
    else:
        X = complexes.random_complex(ns.n, ns.p, ns.seed)
    text = complexes.dumps_complex(X)
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def _cmd_validate(ns, out, err) -> int:
    # The loader refuses every defect a complex can have, so a loaded one has no findings.
    _, inputs = _load(ns)
    _emit(_report(ns, inputs, {"findings": []}, PASS), out)
    return 0


def _cmd_spectrum(ns, out, err) -> int:
    X, inputs = _load(ns)
    G = _pick_graph(X, ns.graph)
    report = spectral.normalized_spectrum(G, ns.tol)
    results = {
        "graph": ns.graph,
        "n": G.n,
        "k": G.regular_k,
        "normalized_eigenvalues": list(report.normalized_eigenvalues),
        "lambda2": report.lambda2,
        "lambda_n": report.lambda_n,
        "lambda_max_nontrivial": report.lambda_max_nontrivial,
        "tolerance_achieved": report.tolerance,
    }
    _emit(_report(ns, inputs, results, PASS), out)
    return 0


def _cmd_cheeger(ns, out, err) -> int:
    X, inputs = _load(ns)
    G = _pick_graph(X, ns.graph)
    result = spectral.cheeger_exhaustive(G)
    results = {
        "graph": ns.graph,
        "h_normalized": result.h_normalized,
        "witness": list(result.witness),
    }
    _emit(_report(ns, inputs, results, PASS), out)
    return 0


def _cmd_cocycles(ns, out, err) -> int:
    X, inputs = _load(ns)
    z = cochain.cocycle_space(X, ns.dim)
    b = cochain.coboundary_space(X, ns.dim)
    results = {
        "dimension": ns.dim,
        "cocycles": {"dim": len(z), "basis": [cochain.mask_bits(m) for m in z]},
        "coboundaries": {"dim": len(b), "basis": [cochain.mask_bits(m) for m in b]},
    }
    _emit(_report(ns, inputs, results, PASS), out)
    return 0


def _cmd_certify(ns, out, err) -> int:
    X, inputs = _load(ns)
    cert = expansion.certify_exact(X, max_bits=ns.max_bits)
    _emit(_report(ns, inputs, cert, PASS), out)
    return 0


def _lemma_result(name: str, fail: np.ndarray, violation, asserted=True, **extra) -> dict:
    """A lemma's report; ``violation(m)`` describes each of the first 10 failing edge masks."""
    first = np.flatnonzero(fail)[:10].tolist()
    violations = [{"edges": cochain.mask_bits(m), **violation(m)} for m in first]
    return {
        "lemma": name,
        "subsets_checked": fail.size,
        **extra,
        "violations": violations,
        "status": FAIL if violations else (PASS if asserted else NOT_APPLICABLE),
    }


def _view_lemma(name: str, X: complexes.Complex2, holds, asserted, **extra) -> dict:
    """A lemma failing at F where ``asserted(|F|)`` and, at some vertex v, ``holds[v]``
    is false at the view F_v (indexed as in ``expansion.local_views``)."""
    fail = expansion.local_view_sums(X, [~h for h in holds]) > 0
    by_size = np.array([asserted(s) for s in range(X.n_edges + 1)])
    fail &= by_size[spectral.subset_sums([1] * X.n_edges, np.uint8)]

    def violation(m: int) -> dict:
        views = [sum((m >> e & 1) << t for t, e in enumerate(edges)) for edges in X.vertex_edges]
        return {"vertices": [v for v, (h, L) in enumerate(zip(holds, views)) if not h[L]]}

    return _lemma_result(name, fail, violation, by_size.any(), **extra)


@lru_cache(maxsize=1)
def _coboundary_sums(X: complexes.Complex2) -> np.ndarray:
    """sum_v |coboundary(F_v)| for every edge mask F, one table for the outgoing and sum lemmas."""
    return expansion.local_view_sums(X, expansion.local_views(X)[1])


def _audit_outgoing(X: complexes.Complex2, ns) -> dict:
    # The other edge-subset lemmas certify first, which refuses more than
    # --max-bits faces before this check could.
    if X.n_edges > ns.max_bits:
        raise CapacityError(
            f"lemma audit enumerates 2**edges subsets and is limited to "
            f"{ns.max_bits} edges; got {X.n_edges}"
        )
    # The cut of F in the edge-graph against sum_v |coboundary(F_v)|.
    cut = spectral.cut_sizes(graphs.edge_graph(X).neighbor_masks)
    sums = _coboundary_sums(X)
    return _lemma_result(
        "outgoing", cut != sums, lambda m: {"lhs": int(cut[m]), "rhs": int(sums[m])}
    )


def _audit_large_cuts(X: complexes.Complex2, ns) -> dict:
    result = expansion.large_cuts_audit(graphs.underlying_graph(X), tol=ns.tol)
    if not result.precondition_met:
        status = NOT_APPLICABLE
    else:
        status = PASS if result.passes else FAIL
    return {
        "lemma": "large-cuts",
        "min_cut": result.min_cut,
        "witness": list(result.witness),
        "k": result.k,
        "precondition_met": result.precondition_met,
        "holds": result.passes,
        "status": status,
    }


def _audit_distance(X: complexes.Complex2, ns) -> dict:
    mu = expansion.certify_exact(X, max_bits=ns.max_bits).mu
    met, holds = expansion.distance_judgement(X, mu=mu, tol=ns.tol)
    return _view_lemma("distance", X, holds, lambda size: 0 < size < X.n_edges and met)


def _audit_local_views(X: complexes.Complex2, ns) -> dict:
    cert = expansion.certify_exact(X, max_bits=ns.max_bits)
    eps = cert.epsilon_cosystolic
    met, eta, holds = expansion.local_view_bound_judgement(
        X, eps, mu=cert.mu, slack=ns.slack, tol=ns.tol
    )
    return _view_lemma("local-views", X, holds, lambda size: met, eta=eta, epsilon=eps)


def _audit_sum(X: complexes.Complex2, ns) -> dict:
    eps = expansion.certify_exact(X, max_bits=ns.max_bits).epsilon_cosystolic
    scale = expansion.sum_bound_judgement(X, eps, tol=ns.tol)
    sums = _coboundary_sums(X)
    sizes = spectral.subset_sums([1] * X.n_edges, np.uint8)
    rhs = scale * sizes
    # The bound is stated for |F| <= |E|/2; larger sets are not checked.
    checked = 2 * sizes <= X.n_edges
    return _lemma_result(
        "sum",
        checked & ~(sums >= rhs - ns.slack),
        lambda m: {"lhs": int(sums[m]), "rhs_bound": float(rhs[m])},
        subsets_checked=int(np.count_nonzero(checked)),
        epsilon=eps,
    )


_LEMMA_RUNNERS = {
    "outgoing": _audit_outgoing,
    "large-cuts": _audit_large_cuts,
    "distance": _audit_distance,
    "local-views": _audit_local_views,
    "sum": _audit_sum,
}


def _cmd_audit(ns, out, err) -> int:
    X, inputs = _load(ns)
    lemmas = list(_LEMMA_RUNNERS) if ns.lemma == "all" else [ns.lemma]
    results = []
    for name in lemmas:
        try:
            results.append(_LEMMA_RUNNERS[name](X, ns))
        except (RegularityError, DomainError, DegenerateComplexError) as exc:
            results.append({"lemma": name, "status": NOT_APPLICABLE, "reason": str(exc)})
    statuses = {r["status"] for r in results}
    overall = next((s for s in (FAIL, NOT_APPLICABLE) if s in statuses), PASS)
    _emit(_report(ns, inputs, {"lemmas": results}, overall), out)
    return _exit_code(overall, ns.strict)


def _cmd_walk(ns, out, err) -> int:
    X = complexes.load_complex(ns.file)
    if not (0 <= ns.start < X.n_edges):
        raise DomainError(f"start edge {ns.start} out of range (complex has {X.n_edges})")
    if ns.paths is not None:
        counts = walk.high_order_step_counts(X, ns.start, ns.steps, ns.paths, ns.seed)
        total = ns.paths
        uniform = 1.0 / X.n_edges
        dists = [
            sum((c / total - uniform) ** 2 for c in row) ** 0.5 if total else float("nan")
            for row in counts
        ]
    else:
        dists = walk.max_distances(graphs.edge_graph(X), [ns.start], ns.steps)
    out.write("step,distance,alpha_power,ok\n")
    for i, d in enumerate(dists):
        if ns.alpha is not None:
            try:
                power = ns.alpha**i
            except OverflowError:
                power = math.inf
            ok = "true" if d <= power + ns.slack else "false"
            out.write(f"{i},{d!r},{power!r},{ok}\n")
        else:
            out.write(f"{i},{d!r},,\n")
    return 0


def _cmd_verify_theorem(ns, out, err) -> int:
    X, inputs = _load(ns)
    if ns.steps < 0:
        raise ParameterError(f"steps must be non-negative, got {ns.steps}")
    walk.check_walk_capacity(X.n_edges, ns.steps)
    results: dict = {}

    def finish(status: str) -> int:
        _emit(_report(ns, inputs, results, status), out)
        return _exit_code(status, ns.strict)

    if X.regular is None:
        results["reason"] = "complex is not (k0, k1)-regular"
        return finish(NOT_APPLICABLE)
    k0, k1 = X.regular
    results["degrees"] = {"k0": k0, "k1": k1}
    if k1 == 0:
        results["reason"] = "no triangles; the edge walk has no moves"
        return finish(NOT_APPLICABLE)

    G0 = graphs.underlying_graph(X)
    results["lambda2_g0"] = spectral.normalized_spectrum(G0, ns.tol).lambda2
    try:
        lambda2 = expansion.gap_lambda2(G0, "rate bound requires", ns.tol)
        cert = expansion.certify_exact(X, max_bits=ns.max_bits)
    except (DomainError, DegenerateComplexError) as exc:
        results["reason"] = str(exc)
        return finish(NOT_APPLICABLE)
    results["certificate"] = _jsonable(cert)
    # Regularity, triangles and the lambda2 gate are settled, so the walk audit applies.
    rate = expansion.mixing_rate_bound(cert.epsilon_cosystolic, lambda2)
    g1 = graphs.edge_graph(X)
    distances = walk.max_distances(g1, range(g1.n), ns.steps, ns.tol)
    lam = spectral.normalized_spectrum(g1, ns.tol).lambda_max_nontrivial
    bound_ok = [d <= rate**i + ns.slack for i, d in enumerate(distances)]
    results["rate_bound"] = rate
    results["edge_graph"] = {"n": g1.n, "k": g1.regular_k, "lambda_max_nontrivial": lam}
    results["walk"] = {
        "steps": ns.steps,
        "max_distances": list(distances),
        "bound_ok": bound_ok,
        "spectral_decay_ok": all(
            d <= lam**i * distances[0] + ns.slack for i, d in enumerate(distances)
        ),
    }
    return finish(PASS if all(bound_ok) else FAIL)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdx",
        description="2-dimensional simplicial complexes: expansion certification, "
        "spectral audits, and high-order random walks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a complex document")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("complete", help="complete complex on n vertices")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("random", help="full 1-skeleton, random triangles")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="check closure and incidence consistency")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("spectrum", help="normalized adjacency spectrum")
    p.add_argument("file")
    p.add_argument("--graph", choices=("g0", "g1"), default="g0")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("cheeger", help="exact normalized Cheeger constant")
    p.add_argument("file")
    p.add_argument("--graph", choices=("g0", "g1"), required=True)
    p.set_defaults(func=_cmd_cheeger)

    p = sub.add_parser("cocycles", help="cocycle and coboundary space bases")
    p.add_argument("file")
    p.add_argument("--dim", type=int, choices=(0, 1), required=True)
    p.set_defaults(func=_cmd_cocycles)

    p = sub.add_parser("certify", help="exact expansion certificate")
    p.add_argument("file")
    p.add_argument("--max-bits", type=int)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("audit", help="check the supporting inequalities on one complex")
    p.add_argument("file")
    p.add_argument(
        "--lemma",
        choices=("outgoing", "large-cuts", "distance", "local-views", "sum", "all"),
        required=True,
    )
    p.add_argument("--max-bits", type=int)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--slack", type=float, default=1e-9)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("walk", help="edge-walk trace (exact) or path ensemble (CSV)")
    p.add_argument("file")
    p.add_argument("--start", type=int, required=True, help="start edge index")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=int, default=None, help="Monte Carlo path count")
    p.add_argument("--alpha", type=float, default=None, help="rate bound to compare against")
    p.add_argument("--slack", type=float, default=1e-9)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser(
        "verify-theorem",
        help="degree check, spectrum, certificate, rate bound, and walk audit",
    )
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--max-bits", type=int)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--slack", type=float, default=1e-9)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_verify_theorem)

    return parser


def run(argv=None, stdout: Optional[TextIO] = None, stderr: Optional[TextIO] = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        # argparse writes --version, --help and usage errors to sys.stdout/stderr.
        with redirect_stdout(out), redirect_stderr(err):
            ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        # Before any work: audit and some verify-theorem runs never use these.
        # NaN or infinity would turn each comparison they enter into a constant.
        if "tol" in ns:
            spectral.check_tolerance(ns.tol)
        if "slack" in ns and not math.isfinite(ns.slack):
            raise ParameterError(f"slack must be finite, got {ns.slack!r}")
        if "max_bits" in ns and ns.max_bits is None:
            # The default is read here, so that building the parser executes no layer.
            ns.max_bits = expansion.CERTIFY_BIT_LIMIT
        if getattr(ns, "max_bits", 0) < 0:
            raise ParameterError(f"max-bits must be non-negative, got {ns.max_bits}")
        alpha = getattr(ns, "alpha", None)
        if alpha is not None and not (math.isfinite(alpha) and alpha >= 0):
            raise ParameterError(f"alpha must be finite and non-negative, got {alpha!r}")
        return ns.func(ns, out, err)
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
