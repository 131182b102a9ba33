"""Output checks: goldens for deterministic jobs, invariants for seeded ones.

A golden is the (exit code, stdout) pair the job produced on the seed commit.
Exit codes, strings (which carry the exact fractions and statuses), integers
(counts and witnesses) and booleans must match exactly; floats must agree
within the CLI's own default tolerance.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

TOL = 1e-9  # the CLI's default --tol and --slack


def compare_numbers(want, got, tol: float = TOL) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return want is got
    if isinstance(want, int) and isinstance(got, int):
        return want == got
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(want - got) <= tol * max(1.0, abs(want))


def diff_json(want, got, path: str = "$", tol: float = TOL):
    """First difference between two parsed JSON documents, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return f"{path}: keys {sorted(want)} != {sorted(got)}"
        for key in want:
            found = diff_json(want[key], got[key], f"{path}.{key}", tol)
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{path}: length {len(want)} != {len(got)}"
        for i, (w, g) in enumerate(zip(want, got)):
            found = diff_json(w, g, f"{path}[{i}]", tol)
            if found:
                return found
        return None
    numbers = (int, float)
    if isinstance(want, numbers) and isinstance(got, numbers):
        return None if compare_numbers(want, got, tol) else f"{path}: {want!r} != {got!r}"
    return None if want == got and type(want) is type(got) else f"{path}: {want!r} != {got!r}"


def _csv_field(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_output(text: str):
    """A JSON report, or a CSV trace as a list of rows of typed fields."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [[_csv_field(f) for f in line.split(",")] for line in text.splitlines()]


def diff_golden(golden: dict, exit_code: int, stdout: str, tol: float = TOL):
    if exit_code != golden["exit"]:
        return f"exit {exit_code} != {golden['exit']}"
    return diff_json(parse_output(golden["stdout"]), parse_output(stdout), "$", tol)


# ---------------------------------------------------------------------------
# invariants of seeded jobs: hold whatever the workload seed


def certify_invariant(exit_code: int, stdout: str, golden_results=None):
    """Exit 0, epsilon_coboundary <= epsilon_cosystolic, and (for a relabelled
    complex) the same exact constants as the unrelabelled golden."""
    if exit_code != 0:
        return f"exit {exit_code} != 0"
    results = json.loads(stdout)["results"]
    if Fraction(results["epsilon_coboundary"]) > Fraction(results["epsilon_cosystolic"]):
        return "epsilon_coboundary > epsilon_cosystolic"
    if golden_results is not None:
        for key in ("epsilon_cosystolic", "epsilon_coboundary", "mu", "mu_vacuous", "connected"):
            if results[key] != golden_results[key]:
                return f"{key} {results[key]!r} != {golden_results[key]!r} under relabelling"
    return None


def report_invariant(exit_code: int, stdout: str, exits=(0,), statuses=None):
    """Exit code in the expected class; on exit 0 or 1 the report parses."""
    if exit_code not in exits:
        return f"exit {exit_code} not in {exits}"
    if exit_code in (0, 1):
        doc = json.loads(stdout)
        if statuses is not None and doc["status"] not in statuses:
            return f"status {doc['status']!r} not in {statuses}"
    return None


def paths_invariant(exit_code: int, stdout: str, steps: int, n_edges: int):
    """Exit 0; one CSV row per step; distance at step 0 is that of a point mass."""
    if exit_code != 0:
        return f"exit {exit_code} != 0"
    rows = parse_output(stdout)
    if rows[0] != ["step", "distance", "alpha_power", "ok"] or len(rows) != steps + 2:
        return f"{len(rows)} CSV lines for {steps} steps"
    first = math.sqrt(1.0 - 1.0 / n_edges)
    if not compare_numbers(first, rows[1][1]):
        return f"step-0 distance {rows[1][1]!r} != {first!r}"
    if any(row[0] != i or not 0.0 <= row[1] <= first + TOL for i, row in enumerate(rows[1:])):
        return "step index or distance out of range"
    return None


def gen_random_invariant(exit_code: int, stdout: str, n: int):
    """Exit 0; a document with n vertices, the full 1-skeleton and proper triangles."""
    if exit_code != 0:
        return f"exit {exit_code} != 0"
    doc = json.loads(stdout)
    if doc["vertices"] != list(range(n)) or len(doc["edges"]) != n * (n - 1) // 2:
        return "not a full 1-skeleton"
    if any(len(set(t)) != 3 or not all(0 <= v < n for v in t) for t in doc["triangles"]):
        return "malformed triangle"
    return None
