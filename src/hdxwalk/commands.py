"""The subcommand handlers behind ``hdxwalk.cli``, and the reports they print.

``cli.run`` imports this module once the arguments are parsed, so ``--version``,
``--help`` and usage errors never compile it.  Each ``_cmd_<subcommand>`` takes
the parsed namespace and the output stream and returns the exit code.
``audit``'s view and sum lemmas draw their first ten failing edge sets from an ascending
stream: merged from the failing views' streams, or ``spectral.cuts_below`` of the edge
graph.  No handler here computes with arrays.
"""

from __future__ import annotations

import argparse
import math
from functools import reduce
from itertools import groupby, islice
from operator import add
from typing import TextIO

# The layer modules as ``hdxwalk.cli`` registered them, not yet executed.
from . import cochain, complexes, expansion, graphs, spectral, walk
from ._record import Record
from .errors import (
    CapacityError, DegenerateComplexError, DomainError, ParameterError, RegularityError
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


def _leaf(obj):
    """A report value json cannot write itself: a record as its fields, a fraction
    as its ``str``.  Imported here, ``fractions`` loads only for a report holding one."""
    if isinstance(obj, Record):
        return obj.asdict()
    from fractions import Fraction

    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(ns: argparse.Namespace, inputs: dict, results, status: str, out: TextIO) -> int:
    """Print a run's report, its flags, inputs, results and status, as one JSON
    document with sorted keys, and return its exit code."""
    import json

    command = {k: v for k, v in vars(ns).items() if v is not None}
    doc = {"command": command, "inputs": inputs, "results": results, "status": status}
    out.write(json.dumps(doc, indent=2, sort_keys=True, default=_leaf) + "\n")
    return _exit_code(status, getattr(ns, "strict", False))


def _exit_code(status: str, strict: bool) -> int:
    return int(status == FAIL or (status == NOT_APPLICABLE and strict))


def _sha256(data: bytes) -> str:
    """Hex SHA-256 digest of data by CPython's built-in module, as ``random`` takes
    its SHA-512: hashlib, tried last, maps OpenSSL's libcrypto into the process."""
    try:
        from _sha2 import sha256  # Python 3.12 on
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _load(ns: argparse.Namespace) -> tuple[complexes.Complex2, dict]:
    """The complex and its input entry, parsed and hashed from one read of the file."""
    with open(ns.file, "rb") as fh:
        data = fh.read()
    digest = _sha256(data)
    text = complexes.decode_document(data)
    del data  # not held beside the text while the parse, several times its size, runs
    return complexes.loads_complex(text), {"file": ns.file, "sha256": digest}


def _load_graph(ns: argparse.Namespace) -> tuple[graphs.Graph, dict]:
    """The graph ``--graph`` names and the input entry; the complex is dropped on return,
    before the caller's eigensolve or cut table."""
    X, inputs = _load(ns)
    return (graphs.underlying_graph(X) if ns.graph == "g0" else graphs.edge_graph(X)), inputs


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(ns, out) -> int:
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


def _cmd_validate(ns, out) -> int:
    # The loader refuses every defect a complex can have, so a loaded one has no findings.
    _, inputs = _load(ns)
    return _write(ns, inputs, {"findings": []}, PASS, out)


def _cmd_spectrum(ns, out) -> int:
    G, inputs = _load_graph(ns)
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
    return _write(ns, inputs, results, PASS, out)


def _cmd_cheeger(ns, out) -> int:
    G, inputs = _load_graph(ns)
    result = spectral.cheeger_exhaustive(G)
    results = {
        "graph": ns.graph,
        "h_normalized": result.h_normalized,
        "witness": list(result.witness),
    }
    return _write(ns, inputs, results, PASS, out)


def _cmd_cocycles(ns, out) -> int:
    X, inputs = _load(ns)
    z = cochain.cocycle_space(X, ns.dim)
    b = cochain.coboundary_space(X, ns.dim)
    results = {
        "dimension": ns.dim,
        "cocycles": {"dim": len(z), "basis": [cochain.mask_bits(m) for m in z]},
        "coboundaries": {"dim": len(b), "basis": [cochain.mask_bits(m) for m in b]},
    }
    return _write(ns, inputs, results, PASS, out)


def _cmd_certify(ns, out) -> int:
    X, inputs = _load(ns)
    cert = expansion.certify_exact(X, max_bits=ns.max_bits)
    return _write(ns, inputs, cert, PASS, out)


def _lemma_result(name: str, X, failing, violation, asserted=True, **extra) -> dict:
    """A lemma's report over every edge mask: ``violation(m)`` describes each of the
    first 10 masks m of ``failing``, which yields the failing ones ascending."""
    violations = [{"edges": cochain.mask_bits(m), **violation(m)} for m in islice(failing, 10)]
    return {
        "lemma": name,
        "subsets_checked": 1 << X.n_edges,
        **extra,
        "violations": violations,
        "status": FAIL if violations else (PASS if asserted else NOT_APPLICABLE),
    }


def _supersets(view: int, star: int, full: int):
    """The masks m up to ``full`` with m & star = view, ascending, by adding 1 to m | star."""
    m = view
    while m <= full:
        yield m
        m = (m | star) + 1 & ~star | view


def _merged(streams):
    """The masks of the ascending ``streams`` in one ascending stream, repeats dropped."""
    from heapq import merge

    return (m for m, _ in groupby(merge(*streams)))


def _view_lemma(name: str, X: complexes.Complex2, holds, asserted, **extra) -> dict:
    """A lemma failing at F where ``asserted(|F|)`` and, at some vertex v, ``holds[v]``
    is false at the view F_v (indexed as in ``expansion.local_views``): the failing
    masks merge one ascending stream per failing view L of star(v)."""
    by_size = [asserted(s) for s in range(X.n_edges + 1)]
    streams = [
        _supersets(sum((L >> t & 1) << e for t, e in enumerate(edges)), star, (1 << X.n_edges) - 1)
        for edges, star, h in zip(X.vertex_edges, X.vertex_edge_masks, holds)
        for L, ok in enumerate(h) if not ok
    ] if any(by_size) else []
    failing = (m for m in _merged(streams) if by_size[m.bit_count()])

    def violation(m: int) -> dict:
        views = [sum((m >> e & 1) << t for t, e in enumerate(edges)) for edges in X.vertex_edges]
        return {"vertices": [v for v, (h, L) in enumerate(zip(holds, views)) if not h[L]]}

    return _lemma_result(name, X, failing, violation, any(by_size), **extra)


def _audit_outgoing(X: complexes.Complex2, ns) -> dict:
    # The other edge-subset lemmas certify first, refusing more than --max-bits faces before this.
    if X.n_edges > ns.max_bits:
        raise CapacityError(f"audit is limited to --max-bits={ns.max_bits} edges; got {X.n_edges}")
    try:  # json writes subsets_checked in decimal, and CPython caps an int's digits
        str(1 << X.n_edges)
    except ValueError:
        raise CapacityError(f"a lemma report cannot write 2**{X.n_edges} in decimal") from None
    # Each G1 pair, two edges of a triangle, lies in exactly one link: the sides agree on every F.
    return {"lemma": "outgoing", "subsets_checked": 1 << X.n_edges, "violations": [], "status": PASS}


def _audit_large_cuts(X: complexes.Complex2, ns) -> dict:
    result = expansion.large_cuts_audit(graphs.underlying_graph(X), tol=ns.tol)
    status = (PASS if result.passes else FAIL) if result.precondition_met else NOT_APPLICABLE
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


def _size_sum_scan(X: complexes.Complex2, ns) -> None:
    """Refuse the sum lemma's scan of the 2**|E| edge sets where the lemma would reach
    it, before its certificate is built: past the gates that make it not applicable
    or refuse it first, in the order the lemma meets them."""
    try:
        expansion.certificate_codes(X, max_bits=ns.max_bits)
        expansion.sum_bound_judgement(X, 0, tol=ns.tol)  # the bound's lambda2 gate
    except (RegularityError, DomainError, DegenerateComplexError):
        return  # not applicable: the lemma scans nothing, and reports why itself
    spectral.check_table_bits(X.n_edges)


def _audit_sum(X: complexes.Complex2, ns) -> dict:
    eps = expansion.certify_exact(X, max_bits=ns.max_bits).epsilon_cosystolic
    scale = expansion.sum_bound_judgement(X, eps, tol=ns.tol)
    n, G1 = X.n_edges, graphs.edge_graph(X)  # sum_v |coboundary(F_v)| is F's cut in G1
    bound = [scale * size for size in range(n + 1)]
    # The bound is stated for |F| <= |E|/2; the larger sets pass unchecked.
    least = [b - ns.slack if 2 * s <= n else -math.inf for s, b in enumerate(bound)]
    return _lemma_result(
        "sum", X, spectral.cuts_below(G1.neighbor_masks, least),
        lambda m: {"lhs": G1.cut(m), "rhs_bound": bound[m.bit_count()]},
        subsets_checked=sum(math.comb(n, s) for s in range(n // 2 + 1)),
        epsilon=eps,
    )


_LEMMA_RUNNERS = {
    "outgoing": _audit_outgoing,
    "large-cuts": _audit_large_cuts,
    "distance": _audit_distance,
    "local-views": _audit_local_views,
    "sum": _audit_sum,
}


# The lemmas that certify the complex first.
_CERTIFYING = ("distance", "local-views", "sum")


def _cmd_audit(ns, out) -> int:
    X, inputs = _load(ns)
    lemmas = list(_LEMMA_RUNNERS) if ns.lemma == "all" else [ns.lemma]
    # The sum lemma's scan is sized before the first certificate is built.
    first = next(name for name in lemmas if name in _CERTIFYING) if "sum" in lemmas else None
    results = []
    for name in lemmas:
        if name == first:
            _size_sum_scan(X, ns)
        try:
            results.append(_LEMMA_RUNNERS[name](X, ns))
        except (RegularityError, DomainError, DegenerateComplexError) as exc:
            results.append({"lemma": name, "status": NOT_APPLICABLE, "reason": str(exc)})
    statuses = {r["status"] for r in results}
    overall = next((s for s in (FAIL, NOT_APPLICABLE) if s in statuses), PASS)
    return _write(ns, inputs, {"lemmas": results}, overall, out)


def _cmd_walk(ns, out) -> int:
    X = complexes.load_complex(ns.file)
    if not (0 <= ns.start < X.n_edges):
        raise DomainError(f"start edge {ns.start} out of range (complex has {X.n_edges})")
    if ns.paths is not None:
        counts = walk.high_order_step_counts(X, ns.start, ns.steps, ns.paths, ns.seed)
        total = ns.paths
        uniform = 1.0 / X.n_edges
        # Added left to right: sum() compensates float rounding from Python 3.12 on.
        dists = [
            reduce(add, ((c / total - uniform) ** 2 for c in row), 0.0) ** 0.5
            if total else float("nan")
            for row in counts
        ]
    else:
        walk.check_walk_capacity(X.n_edges, ns.steps)  # before the edge graph is built
        G = graphs.edge_graph(X)
        del X  # not held beside the Lanczos run
        dists = walk.max_distances(G, [ns.start], ns.steps)
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


def _cmd_verify_theorem(ns, out) -> int:
    X, inputs = _load(ns)
    if ns.steps < 0:
        raise ParameterError(f"steps must be non-negative, got {ns.steps}")
    walk.check_walk_capacity(X.n_edges, ns.steps)
    results: dict = {}
    if X.regular is None:
        results["reason"] = "complex is not (k0, k1)-regular"
        return _write(ns, inputs, results, NOT_APPLICABLE, out)
    k0, k1 = X.regular
    results["degrees"] = {"k0": k0, "k1": k1}
    if k1 == 0:
        results["reason"] = "no triangles; the edge walk has no moves"
        return _write(ns, inputs, results, NOT_APPLICABLE, out)

    G0 = graphs.underlying_graph(X)
    # Through expansion: executed before numpy loads, it adds nothing to the peak RSS.
    results["lambda2_g0"] = expansion.normalized_spectrum(G0, ns.tol).lambda2
    try:
        lambda2 = expansion.gap_lambda2(G0, "rate bound requires", ns.tol)
        cert = expansion.certify_exact(X, max_bits=ns.max_bits)
    except (DomainError, DegenerateComplexError) as exc:
        results["reason"] = str(exc)
        return _write(ns, inputs, results, NOT_APPLICABLE, out)
    results["certificate"] = cert
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
    return _write(ns, inputs, results, PASS if all(bound_ok) else FAIL, out)


