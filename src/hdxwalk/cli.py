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
import hashlib
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from typing import Optional, TextIO

from . import __version__
from ._lazy import np
from ._record import Record
from .cochain import Chain, cocycle_space, coboundary_space, mask_bits
from .complexes import (
    Complex2,
    complete_complex,
    degree_profile,
    dumps_complex,
    load_complex,
    random_complex,
    validate,
)
from .errors import (
    CapacityError,
    DegenerateComplexError,
    DomainError,
    HdxError,
    ParameterError,
    RegularityError,
)
from .expansion import (
    CERTIFY_BIT_LIMIT,
    certify_exact,
    coboundary_size,
    distance_judgement,
    gap_lambda2,
    large_cuts_audit,
    local_view_bound_judgement,
    local_view_sums,
    mixing_rate_bound,
    sum_bound_judgement,
)
from .graphs import edge_graph, underlying_graph
from .spectral import (
    check_tolerance,
    cheeger_exhaustive,
    cut_sizes,
    normalized_spectrum,
    subset_sums,
)
from .walk import (
    Distribution,
    check_walk_capacity,
    evolve_exact,
    high_order_step_counts,
    rapid_mixing_audit,
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
ERROR = "error"


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Chain):
        return obj.to_list()
    if isinstance(obj, Record):
        return {name: _jsonable(value) for name, value in obj.asdict().items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    return obj


def _digest(path: str) -> str:
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
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _exit_code(status: str, strict: bool) -> int:
    return int(status == FAIL or (status == NOT_APPLICABLE and strict))


def _load(ns: argparse.Namespace) -> tuple[Complex2, dict]:
    return load_complex(ns.file), {"file": ns.file, "sha256": _digest(ns.file)}


def _pick_graph(X: Complex2, which: str):
    return underlying_graph(X) if which == "g0" else edge_graph(X)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(ns, out, err) -> int:
    if ns.kind == "complete":
        X = complete_complex(ns.n)
    else:
        X = random_complex(ns.n, ns.p, ns.seed)
    text = dumps_complex(X)
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def _cmd_validate(ns, out, err) -> int:
    X, inputs = _load(ns)
    report = validate(X)
    status = PASS if report.ok else ERROR
    _emit(_report(ns, inputs, {"findings": list(report.findings)}, status), out)
    if not report.ok:
        print(f"validate: {len(report.findings)} finding(s)", file=err)
        return 2
    return 0


def _cmd_spectrum(ns, out, err) -> int:
    X, inputs = _load(ns)
    G = _pick_graph(X, ns.graph)
    report = normalized_spectrum(G, ns.tol)
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
    result = cheeger_exhaustive(G)
    results = {
        "graph": ns.graph,
        "h_normalized": result.h_normalized,
        "witness": list(result.witness),
    }
    _emit(_report(ns, inputs, results, PASS), out)
    return 0


def _cmd_cocycles(ns, out, err) -> int:
    X, inputs = _load(ns)
    z = cocycle_space(X, ns.dim)
    b = coboundary_space(X, ns.dim)
    results = {
        "dimension": ns.dim,
        "cocycles": {"dim": z.dim, "basis": [c.to_list() for c in z.basis]},
        "coboundaries": {"dim": b.dim, "basis": [c.to_list() for c in b.basis]},
    }
    _emit(_report(ns, inputs, results, PASS), out)
    return 0


def _cmd_certify(ns, out, err) -> int:
    X, inputs = _load(ns)
    cert = certify_exact(X, max_bits=ns.max_bits)
    _emit(_report(ns, inputs, cert, PASS), out)
    return 0


def _lemma_result(name: str, fail: np.ndarray, violation, asserted=True, **extra) -> dict:
    """A lemma's report; ``violation(m)`` describes each of the first 10 failing edge masks."""
    first = np.flatnonzero(fail)[:10].tolist()
    violations = [{"edges": mask_bits(m), **violation(m)} for m in first]
    return {
        "lemma": name,
        "subsets_checked": fail.size,
        **extra,
        "violations": violations,
        "status": FAIL if violations else (PASS if asserted else NOT_APPLICABLE),
    }


def _view_lemma(name: str, X: Complex2, judge, asserted, **extra) -> dict:
    """A lemma failing at F where ``asserted(|F|)`` and not ``judge(F_v)`` at some vertex v."""
    fail = local_view_sums(X, lambda L: not judge(L)) > 0
    by_size = np.array([asserted(s) for s in range(X.n_edges + 1)])
    fail &= by_size[subset_sums([1] * X.n_edges, np.uint8)]

    def violation(m: int) -> dict:
        return {"vertices": [v for v, star in enumerate(X.vertex_edge_masks) if not judge(m & star)]}

    return _lemma_result(name, fail, violation, by_size.any(), **extra)


@lru_cache(maxsize=1)
def _coboundary_sums(X: Complex2) -> np.ndarray:
    """sum_v |coboundary(F_v)| for every edge mask F, one table for the outgoing and sum lemmas."""
    return local_view_sums(X, lambda L: coboundary_size(X, L))


def _audit_outgoing(X: Complex2, ns) -> dict:
    # The other edge-subset lemmas certify first, which refuses more than
    # --max-bits faces before this check could.
    if X.n_edges > ns.max_bits:
        raise CapacityError(
            f"lemma audit enumerates 2**edges subsets and is limited to "
            f"{ns.max_bits} edges; got {X.n_edges}"
        )
    # The cut of F in the edge-graph against sum_v |coboundary(F_v)|.
    cut = cut_sizes(edge_graph(X))
    sums = _coboundary_sums(X)
    return _lemma_result(
        "outgoing", cut != sums, lambda m: {"lhs": int(cut[m]), "rhs": int(sums[m])}
    )


def _audit_large_cuts(X: Complex2, ns) -> dict:
    result = large_cuts_audit(underlying_graph(X), tol=ns.tol)
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


def _audit_distance(X: Complex2, ns) -> dict:
    mu = certify_exact(X, max_bits=ns.max_bits).mu
    met, judge = distance_judgement(X, mu=mu, tol=ns.tol)
    return _view_lemma("distance", X, judge, lambda size: 0 < size < X.n_edges and met)


def _audit_local_views(X: Complex2, ns) -> dict:
    cert = certify_exact(X, max_bits=ns.max_bits)
    eps = cert.epsilon_cosystolic
    met, eta, judge = local_view_bound_judgement(X, eps, mu=cert.mu, slack=ns.slack, tol=ns.tol)
    return _view_lemma("local-views", X, judge, lambda size: met, eta=eta, epsilon=eps)


def _audit_sum(X: Complex2, ns) -> dict:
    eps = certify_exact(X, max_bits=ns.max_bits).epsilon_cosystolic
    judge = sum_bound_judgement(X, eps, slack=ns.slack, tol=ns.tol)
    sums = _coboundary_sums(X)
    sizes = subset_sums([1] * X.n_edges, np.uint8)
    rhs, holds = judge(sums, sizes)
    # The bound is stated for |F| <= |E|/2; larger sets are not checked.
    checked = 2 * sizes <= X.n_edges
    return _lemma_result(
        "sum",
        checked & ~holds,
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
    X, _ = _load(ns)
    if not (0 <= ns.start < X.n_edges):
        raise DomainError(f"start edge {ns.start} out of range (complex has {X.n_edges})")
    if ns.paths is not None:
        counts = high_order_step_counts(X, ns.start, ns.steps, ns.paths, ns.seed)
        total = ns.paths
        uniform = 1.0 / X.n_edges
        dists = [
            sum((c / total - uniform) ** 2 for c in row) ** 0.5 if total else float("nan")
            for row in counts
        ]
    else:
        g1 = edge_graph(X)
        dists = evolve_exact(g1, Distribution.point_mass(g1.n, ns.start), ns.steps)
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
    check_walk_capacity(X.n_edges, ns.steps)
    results: dict = {}

    def finish(status: str) -> int:
        _emit(_report(ns, inputs, results, status), out)
        return _exit_code(status, ns.strict)

    profile = degree_profile(X)
    if profile.regular is None:
        results["reason"] = "complex is not (k0, k1)-regular"
        return finish(NOT_APPLICABLE)
    k0, k1 = profile.regular
    results["degrees"] = {"k0": k0, "k1": k1}
    if k1 == 0:
        results["reason"] = "no triangles; the edge walk has no moves"
        return finish(NOT_APPLICABLE)

    G0 = underlying_graph(X)
    results["lambda2_g0"] = normalized_spectrum(G0, ns.tol).lambda2
    try:
        lambda2 = gap_lambda2(G0, "rate bound requires", ns.tol)
        cert = certify_exact(X, max_bits=ns.max_bits)
    except (DomainError, DegenerateComplexError) as exc:
        results["reason"] = str(exc)
        return finish(NOT_APPLICABLE)
    results["certificate"] = _jsonable(cert)
    # Regularity, triangles and the lambda2 gate are settled, so the audit applies.
    rate = mixing_rate_bound(cert.epsilon_cosystolic, lambda2)
    audit = rapid_mixing_audit(X, rate, ns.steps, slack=ns.slack, tol=ns.tol)
    results["rate_bound"] = rate
    g1 = edge_graph(X)
    results["edge_graph"] = {
        "n": g1.n,
        "k": g1.regular_k,
        "lambda_max_nontrivial": audit.edge_graph_lambda,
    }
    lam, d0 = audit.edge_graph_lambda, audit.max_distances[0]
    results["walk"] = {
        "steps": ns.steps,
        "max_distances": list(audit.max_distances),
        "bound_ok": list(audit.bound_ok),
        "spectral_decay_ok": all(
            d <= lam**i * d0 + ns.slack for i, d in enumerate(audit.max_distances)
        ),
    }
    return finish(PASS if audit.passes else FAIL)


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
    p.add_argument("--max-bits", type=int, default=CERTIFY_BIT_LIMIT)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("audit", help="check the supporting inequalities on one complex")
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
    p.add_argument("--max-bits", type=int, default=CERTIFY_BIT_LIMIT)
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
            check_tolerance(ns.tol)
        if "slack" in ns and not math.isfinite(ns.slack):
            raise ParameterError(f"slack must be finite, got {ns.slack!r}")
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
