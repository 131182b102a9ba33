"""hdxwalk CLI benchmark.

    python3 perfbench/run.py --workload exhaustive|walk|many-small|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each job is a fresh `python -m hdxwalk.cli`
process (the library's lru_caches live for one process, as for a CLI user),
run closed loop: one client, one job at a time.  The workload's job list is
run in passes until S seconds have passed, and always at least once.  Every
job's output is checked (see checks.py).

--trace 0 reports the end-to-end metrics; --trace 1 runs each job untraced and
then under tracer.py, checks that both print the same bytes, and reports the
per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import corpus
import envinfo
import jobs as joblist
import proc
import stats
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "_work")
GOLDENS = os.path.join(BENCH, "goldens.json")
TRACER = os.path.join(BENCH, "tracer.py")
REFERENCE = os.path.join(BENCH, "reference.py")

SETUP_REPEATS = 3

# The host's speed drifts by 20-40% over minutes, and all jobs of a run move
# together.  So a run also times reference.py (fixed work that never imports
# hdxwalk) before the set-ups and before every REFERENCE_EVERY-th job, and
# scales the times it reports by REFERENCE_S / (median reference time):
# seconds at the speed at which the reference takes REFERENCE_S, its median
# on a 2-CPU Intel Xeon VM (Python 3.11, numpy 2.4).  Raw seconds are
# printed beside them.
REFERENCE_EVERY = 3
REFERENCE_S = 0.25
# No job starts later than HARD_LIMIT_S after the loop began, whatever
# --seconds says, and none runs past KILL_LIMIT_S, so even a run of hanging
# jobs ends in bounded time.
HARD_LIMIT_S = 120.0
KILL_LIMIT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    **{f"{kind}_s": "s" for kind in joblist.KINDS},
    "job_p50_s": "s",
    "startup_s": "s",
    "certify_max_edges": "edges",
}

LAYER_METRICS = [f"{layer}.{m}" for layer in tracer.LAYERS for m in ("calls", "self_s", "errors")]
PER_LAYER_UNITS = {
    **{name: ("s" if name.endswith("_s") else "count") for name in LAYER_METRICS},
    "process.startup_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "process.exit_s": "s",
    "cochain.codewords_scanned": "count",
    "spectral.eigh_calls": "count",
    "spectral.cut_subsets": "count",
    "expansion.subsets": "count",
    "expansion.cache_hit_ratio": "ratio",
    "walk.path_steps": "count",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}


class SetupError(Exception):
    @classmethod
    def exited(cls, what: str, done: proc.Outcome) -> "SetupError":
        return cls(f"{what} exited {done.exit_code}: {done.stderr.decode(errors='replace')[-500:]}")


@dataclass
class Sample:
    wall_s: float
    maxrss_kb: int
    error: Optional[str]
    # trace runs only: untraced wall and the flattened trace figures
    untraced_wall_s: float = 0.0
    figures: dict = field(default_factory=dict)


def job_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def hdx(args) -> list[str]:
    return [sys.executable, "-m", "hdxwalk.cli", *args]


def setup(directory: str, seed: int, env: dict) -> dict:
    """Build the corpus and check every complex's face counts and regularity."""
    shapes = corpus.write_fixed(directory, seed)
    for name, (n, p, offset) in corpus.RANDOM.items():
        args = ["gen", "random", "--n", str(n), "--p", str(p),
                "--seed", str(corpus.random_seed(seed, offset)), "-o", f"{name}.complex"]
        done = proc.run(hdx(args), cwd=directory, env=env, timeout=20.0)
        if done.exit_code != 0:
            raise SetupError.exited(f"hdx {' '.join(args)}", done)
        shapes[name] = corpus.check_random(os.path.join(directory, f"{name}.complex"), n)
    return shapes


def run_once(job, *, cwd, env, goldens, timeout, traced, trace_path) -> Sample:
    plain = proc.run(hdx(job.argv), cwd=cwd, env=env, timeout=timeout)
    stdout = plain.stdout.decode(errors="replace")
    error = "timeout" if plain.timed_out else job.verdict(plain.exit_code, stdout, goldens)
    if not traced:
        return Sample(plain.wall_s, plain.maxrss_kb, error)
    if os.path.exists(trace_path):
        os.remove(trace_path)
    traced_run = proc.run([sys.executable, TRACER, trace_path, *job.argv],
                          cwd=cwd, env=env, timeout=timeout)
    if error is None:
        if traced_run.timed_out:
            error = "traced run timed out"
        elif (traced_run.exit_code, traced_run.stdout) != (plain.exit_code, plain.stdout):
            error = "traced output differs from untraced output"
        elif not os.path.exists(trace_path):
            error = "tracer wrote no trace"
    figures = {}
    if error is None:
        with open(trace_path, encoding="utf-8") as fh:
            figures = flatten_trace(json.load(fh), job, stdout)
        figures["process.startup_s"] = figures.pop("main_start") - traced_run.spawned
        figures["process.exit_s"] = traced_run.reaped - figures.pop("main_end")
    return Sample(traced_run.wall_s, traced_run.maxrss_kb, error, plain.wall_s, figures)


def flatten_trace(doc: dict, job, stdout: str) -> dict:
    figures = {key: doc[key] for key in ("main_start", "main_end")}
    figures.update({"cli.import_s": doc["import_s"], "cli.self_s": doc["cli_self_s"]})
    for layer, values in doc["layers"].items():
        for key, value in values.items():
            figures[f"{layer}.{key}"] = value
    figures.update(doc["counters"])
    for name, info in doc["caches"].items():
        figures[f"{name}.hits"] = info["hits"]
        figures[f"{name}.misses"] = info["misses"]
    if job.argv[0] == "audit" and stdout:
        lemmas = json.loads(stdout)["results"]["lemmas"]
        checked = sum(lemma.get("subsets_checked", 0) for lemma in lemmas)
        figures["expansion.subsets"] = figures.get("expansion.subsets", 0) + checked
    return figures


def time_reference(env) -> float:
    """Wall seconds of one reference process."""
    done = proc.run([sys.executable, REFERENCE], cwd=BENCH, env=env, timeout=60.0)
    if done.exit_code != 0:
        raise SetupError.exited("reference.py", done)
    return done.wall_s


def run_loop(jobs, *, seed, seconds, cwd, env, goldens, timeout, traced,
             references) -> list[list[Sample]]:
    """Closed loop over the job list: passes until `seconds` have passed, at least one.

    Each pass runs the jobs in a fresh seeded order, so every job's samples,
    and every command's, are spread over the whole run: the machine's speed
    drifts over tens of seconds, and a job always run at the same point of
    the run would measure that drift instead of the job.  Untraced runs append
    a reference time to `references` before every REFERENCE_EVERY-th job.
    """
    samples: list[list[Sample]] = [[] for _ in jobs]
    trace_path = os.path.join(cwd, "trace.json")
    start = time.perf_counter()
    count = 0
    for n_pass in itertools.count():
        order = list(range(len(jobs)))
        random.Random(f"{seed}/{n_pass}").shuffle(order)
        for i in order:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_LIMIT_S or (n_pass > 0 and elapsed >= seconds):
                return samples
            if not traced and count % REFERENCE_EVERY == 0:
                references.append(time_reference(env))
            count += 1
            limit = min(timeout, KILL_LIMIT_S - elapsed)
            samples[i].append(run_once(jobs[i], cwd=cwd, env=env, goldens=goldens, timeout=limit,
                                       traced=traced, trace_path=trace_path))


def run_ladder(*, cwd, env, goldens, scale) -> tuple[int, int, list[str]]:
    """certify_max_edges: edges of the last rung certified within its budget.

    The budget is RUNG_BUDGET_S at reference speed (see REFERENCE_S).  A rung
    over budget ends the ladder and is not a failure; a wrong output is.
    Returns (max edges, jobs attempted, failures).
    """
    budget = joblist.RUNG_BUDGET_S / scale
    best, attempted, failures = 0, 0, []
    for edges, rung in joblist.LADDER:
        start = time.perf_counter()
        for job in rung:
            remaining = budget - (time.perf_counter() - start)
            if remaining <= 0:
                return best, attempted, failures
            done = proc.run(hdx(job.argv), cwd=cwd, env=env, timeout=remaining)
            if done.timed_out:
                return best, attempted, failures
            attempted += 1
            error = job.verdict(done.exit_code, done.stdout.decode(errors="replace"), goldens)
            if error:
                failures.append(f"ladder {job.key}: {error}")
                return best, attempted, failures
        if time.perf_counter() - start > budget:
            return best, attempted, failures
        best = edges
    return best, attempted, failures


def end_to_end(jobs, samples, setup_times, max_edges) -> dict:
    walls = [[s.wall_s for s in per_job] for per_job in samples]
    everything = [w for per_job in walls for w in per_job]
    version = [w for job, per_job in zip(jobs, walls) if job.argv == ("--version",) for w in per_job]
    values = {
        "setup_s": (stats.median(setup_times), len(setup_times)),
        "wall_s": (stats.sum_of_medians(walls), len(everything)),
        "peak_rss_mb": (max(s.maxrss_kb for per_job in samples for s in per_job) / 1024.0,
                        len(everything)),
    }
    for kind in joblist.KINDS:
        chosen = [w for job, w in zip(jobs, walls) if job.kind == kind]
        values[f"{kind}_s"] = (stats.sum_of_medians(chosen), sum(len(w) for w in chosen))
    # Over the jobs of the list, one median each, so that the rank does not
    # move with the mix of long and short samples a run happened to take.
    per_job = [stats.median(w) for w in walls if w]
    p50 = stats.percentile(per_job, 50)
    values["job_p50_s"] = (p50.value, p50.count)
    # Printed only: no workload has the ten jobs beyond p90 a tail needs.
    values["job_p90_s"] = (stats.percentile(per_job, 90).value, len(per_job))
    values["startup_s"] = (stats.median(version), len(version))
    values["certify_max_edges"] = (max_edges, 1)
    return values


def per_layer(samples) -> dict:
    totals: dict[str, float] = {}
    traced_wall = untraced_wall = 0.0
    for per_job in samples:
        ok = [s for s in per_job if s.error is None]
        if not ok:
            continue
        traced_wall += stats.median([s.wall_s for s in ok])
        untraced_wall += stats.median([s.untraced_wall_s for s in ok])
        for name in set().union(*(s.figures for s in ok)):
            totals[name] = totals.get(name, 0) + stats.median([s.figures.get(name, 0) for s in ok])
    n = sum(len(per_job) for per_job in samples)
    values = {name: (totals.get(name, 0), n) for name in PER_LAYER_UNITS}
    hits = totals.get("expansion.certify_exact.hits", 0)
    lookups = hits + totals.get("expansion.certify_exact.misses", 0)
    values["expansion.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, n)
    values["spectral.eigh_calls"] = (totals.get("spectral.normalized_spectrum.misses", 0), n)
    values["trace.overhead_ratio"] = (traced_wall / untraced_wall if untraced_wall else 0.0, n)
    accounted = sum(totals.get(name, 0) for name in
                    ("process.startup_s", "cli.import_s", "cli.self_s", "process.exit_s"))
    accounted += sum(totals.get(name, 0) for name in LAYER_METRICS if name.endswith(".self_s"))
    values["trace.accounted_ratio"] = (accounted / traced_wall if traced_wall else 0.0, n)
    return values


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "hdxwalk", "cli.py")):
        raise SetupError(f"no hdxwalk sources under {os.path.join(ROOT, 'src')}")
    env = job_env()
    cwd = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    try:
        setup_times = []
        references = [] if traced else [time_reference(env)]
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(cwd, ignore_errors=True)
            start = time.perf_counter()
            shapes = setup(cwd, seed, env)
            setup_times.append(time.perf_counter() - start)
        with open(GOLDENS, encoding="utf-8") as fh:
            goldens = json.load(fh)
        jobs = joblist.WORKLOADS[workload](seed, shapes)
        environment = envinfo.collect(ROOT, env)
        samples = run_loop(jobs, seed=seed, seconds=seconds, cwd=cwd, env=env, goldens=goldens,
                           timeout=joblist.TIMEOUT_S[workload], traced=traced, references=references)
        failures = [f"{job.key}: {s.error}" for job, per_job in zip(jobs, samples)
                    for s in per_job if s.error]
        failures += [f"{job.key}: never ran" for job, per_job in zip(jobs, samples) if not per_job]
        attempted = sum(max(len(per_job), 1) for per_job in samples)
        scale = None
        if traced:
            values, units = per_layer(samples), PER_LAYER_UNITS
        else:
            scale = REFERENCE_S / stats.median(references)
            max_edges, ladder_attempted, ladder_failures = run_ladder(cwd=cwd, env=env, goldens=goldens,
                                                                      scale=scale)
            attempted += ladder_attempted
            failures += ladder_failures
            values, units = end_to_end(jobs, samples, setup_times, max_edges), END_TO_END_UNITS
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "environment": environment,
        "failures": failures,
        "attempted": attempted,
        "values": values,
        "units": units,
        "references": references,
        "scale": scale,
    }


def report(result: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    print(f"workload {result['workload']} seed {result['seed']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    failed = len(result["failures"])
    for line in result["failures"][:20]:
        print(f"FAILED {line}")
    attempted = result["attempted"]
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    if result["references"]:
        print(f"  reference.py median {stats.median(result['references']):.4f} s "
              f"(n={len(result['references'])}); seconds below are at {REFERENCE_S} s per reference")
    metrics = {}
    for name, (value, count) in result["values"].items():
        unit = result["units"].get(name, "s")
        raw = ""
        if unit == "s" and result["scale"] is not None:
            raw, value = f"; raw {value:.6g} s", value * result["scale"]
        print(f"  {name:28s} {value:.6g} {unit} (n={count}{raw})")
        if name in result["units"]:
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*joblist.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(joblist.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [report(measure(w, args.seed, args.seconds, bool(args.trace))) for w in workloads]
    except (SetupError, corpus.CorpusError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({w: r for w, r in zip(workloads, results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
