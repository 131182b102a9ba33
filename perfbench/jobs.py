"""The fixed job list of each workload, and the certification ladder.

A job is one `hdx` command line, run as a fresh process.  Deterministic jobs
are checked against goldens; seeded jobs (walk ensembles, relabelled and
`gen random` complexes) against invariants that hold whatever the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import checks
import corpus

# Per-command sums reported as end-to-end metrics, keyed by job kind.
KINDS = ("certify", "audit", "cheeger", "verify", "walk_paths", "walk_exact", "spectrum")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    # None: compare with the golden of the same command line.  Otherwise
    # check(exit_code, stdout, goldens) returns an error message or None.
    check: Optional[Callable] = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def kind(self) -> Optional[str]:
        cmd = self.argv[0]
        if cmd == "walk":
            return "walk_paths" if "--paths" in self.argv else "walk_exact"
        if cmd == "verify-theorem":
            return "verify"
        return cmd if cmd in KINDS else None

    def verdict(self, exit_code: int, stdout: str, goldens: dict) -> Optional[str]:
        try:
            if self.check is not None:
                return self.check(exit_code, stdout, goldens)
            if self.key not in goldens:
                return "no golden for this command"
            return checks.diff_golden(goldens[self.key], exit_code, stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"


def golden(*argv: str) -> Job:
    return Job(tuple(argv))


def seeded(check: Callable, *argv: str) -> Job:
    return Job(tuple(argv), check)


def _relabelled_certify(base: str, exit_code, stdout, goldens):
    base_results = json.loads(goldens[f"certify {base}.complex"]["stdout"])["results"]
    return checks.certify_invariant(exit_code, stdout, base_results)


def relabelled_certify(name: str) -> Job:
    check = partial(_relabelled_certify, corpus.RELABELLED[name])
    return seeded(check, "certify", f"{name}.complex")


def paths(name: str, steps: int, count: int, seed: int) -> Job:
    n_edges = corpus.FIXED[name][1].edges
    check = lambda code, out, _: checks.paths_invariant(code, out, steps, n_edges)  # noqa: E731
    return seeded(check, "walk", f"{name}.complex", "--start", "0", "--steps", str(steps),
                  "--seed", str(seed), "--paths", str(count))


def on_random(name: str, shape: corpus.Shape) -> list[Job]:
    """Jobs on a `gen random` complex; the expected exit class follows its regularity."""
    f = f"{name}.complex"
    report = lambda **kw: lambda code, out, _: checks.report_invariant(code, out, **kw)  # noqa: E731
    jobs = [
        seeded(report(statuses=("pass",)), "validate", f),
        seeded(report(), "spectrum", f, "--graph", "g0"),
        seeded(report(), "cocycles", f, "--dim", "0"),
        seeded(report(), "cocycles", f, "--dim", "1"),
        seeded(report(), "cheeger", f, "--graph", "g0"),
    ]
    if shape.regular is None or shape.regular[1] == 0:  # no edge walk, no certificate
        jobs += [
            seeded(report(exits=(2,)), "spectrum", f, "--graph", "g1"),
            seeded(report(exits=(2,)), "certify", f),
            seeded(report(statuses=("not-applicable",)), "verify-theorem", f),
        ]
    else:
        jobs += [
            seeded(report(), "spectrum", f, "--graph", "g1"),
            seeded(lambda code, out, _: checks.certify_invariant(code, out), "certify", f),
            seeded(report(exits=(0, 1)), "verify-theorem", f),
        ]
    return jobs


def gen_random(n: int, p: float, seed: int) -> Job:
    check = lambda code, out, _: checks.gen_random_invariant(code, out, n)  # noqa: E731
    return seeded(check, "gen", "random", "--n", str(n), "--p", str(p), "--seed", str(seed))


VERSION = golden("--version")
SMALL = ("k5", "octa", "k6", "rp2")


def exhaustive(seed: int, shapes: dict) -> list[Job]:
    # Many jobs of 0.3-1.2 s rather than a few long ones: each command's sum
    # needs samples spread over the whole run.
    return [
        golden("certify", "octa.complex"),
        golden("certify", "k6.complex"),
        golden("certify", "rp2.complex"),
        relabelled_certify("rp2p"),
        golden("audit", "k5.complex", "--lemma", "all"),
        golden("audit", "octa.complex", "--lemma", "distance"),
        golden("audit", "octa.complex", "--lemma", "local-views"),
        golden("audit", "k6.complex", "--lemma", "outgoing"),
        golden("cheeger", "k18.complex", "--graph", "g0"),
        golden("cheeger", "k5.complex", "--graph", "g1"),
        golden("cheeger", "k6.complex", "--graph", "g1"),
        golden("cheeger", "rp2.complex", "--graph", "g1"),
    ] + [golden("verify-theorem", f"{name}.complex") for name in SMALL] + [
        # The same commands at sizes where enumeration does not dominate.
        paths(name, 8, 10000, seed + i) for i, name in enumerate(SMALL)
    ] + [
        golden("walk", f"{name}.complex", "--start", "0", "--steps", "100") for name in SMALL
    ] + [
        golden("spectrum", f"{name}.complex", "--graph", "g1") for name in SMALL
    ] + [VERSION] * 8


def walk(seed: int, shapes: dict) -> list[Job]:
    return [
        paths("k5", 8, 100000, seed),
        paths("k12", 16, 50000, seed + 1),
        paths("k20", 32, 20000, seed + 2),
        paths("k24", 64, 10000, seed + 3),
    ] + [
        golden("walk", f"k{n}.complex", "--start", "0", "--steps", "2000") for n in (12, 20, 24, 40)
    ] + [
        golden("spectrum", f"k{n}.complex", "--graph", "g1") for n in (12, 20, 24, 40)
    ] + [
        golden("verify-theorem", f"{name}.complex", "--steps", "2000")
        for name in ("k4", "k5", "octa", "rp2")
    ] + [
        # The same commands at sizes where the walk engines do not dominate.
        golden("certify", "k4.complex"),
        golden("certify", "k5.complex"),
        golden("certify", "octa.complex"),
        golden("audit", "k4.complex", "--lemma", "all"),
        golden("audit", "k4.complex", "--lemma", "outgoing"),
        golden("audit", "k5.complex", "--lemma", "outgoing"),
        golden("cheeger", "k4.complex", "--graph", "g1"),
        golden("cheeger", "k5.complex", "--graph", "g1"),
        golden("cheeger", "octa.complex", "--graph", "g1"),
    ] + [VERSION] * 8


def many_small(seed: int, shapes: dict) -> list[Job]:
    jobs = [VERSION] * 8
    for name in ("k4", "k5", "octa", "rp2", "cubo"):
        f = f"{name}.complex"
        jobs += [
            golden("validate", f),
            golden("spectrum", f, "--graph", "g0"),
            golden("spectrum", f, "--graph", "g1"),
            golden("cocycles", f, "--dim", "1"),
            golden("cheeger", f, "--graph", "g0"),
            golden("walk", f, "--start", "0", "--steps", "50"),
        ]
    for name in corpus.RANDOM:
        jobs += on_random(name, shapes[name])
    small = ("k4", "k5", "octa", "rp2")
    jobs += [golden("certify", f"{name}.complex") for name in small]
    jobs += [golden("verify-theorem", f"{name}.complex") for name in small]
    jobs += [paths(name, 8, 2000, seed + i) for i, name in enumerate(small)]
    jobs += [
        relabelled_certify("octap"),
        golden("walk", "k5.complex", "--start", "3", "--steps", "40", "--alpha", "0.9"),
        golden("audit", "k4.complex", "--lemma", "all"),
        golden("audit", "k5.complex", "--lemma", "outgoing"),
        golden("audit", "k5.complex", "--lemma", "sum"),
        golden("audit", "octa.complex", "--lemma", "large-cuts"),
        golden("gen", "complete", "--n", "6"),
    ]
    jobs += [gen_random(8, 0.3, corpus.random_seed(seed, 10 + i)) for i in range(2)]
    # Expected usage (exit 2) and capacity (exit 3) outcomes.
    jobs += [
        golden("walk", "k4.complex", "--start", "99", "--steps", "5"),
        golden("validate", "missing.complex"),
        golden("spectrum", "k4.complex", "--graph", "g2"),
        golden("certify", "k8.complex"),
        golden("certify", "cubo.complex", "--max-bits", "20"),
        golden("cheeger", "k8.complex", "--graph", "g1"),
        golden("audit", "octa.complex", "--lemma", "outgoing", "--max-bits", "8"),
    ]
    return jobs


WORKLOADS = {"exhaustive": exhaustive, "walk": walk, "many-small": many_small}

# Timeout of one job, per workload: a hang counts as a failure, not a stall.
TIMEOUT_S = {"exhaustive": 60.0, "walk": 30.0, "many-small": 15.0}

# certify_max_edges: rungs of (edge count, jobs), each run within RUNG_BUDGET_S.
RUNG_BUDGET_S = 2.0
LADDER = (
    (15, (golden("certify", "k6.complex"), golden("certify", "rp2.complex"))),
    (21, (golden("certify", "k7.complex"),)),
    (24, (seeded(lambda code, out, _: checks.certify_invariant(code, out), "certify", "cubo.complex"),)),
)
