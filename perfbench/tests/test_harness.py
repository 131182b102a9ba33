"""Tests of the benchmark harness's own logic (no hdxwalk process is started).

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import jobs as joblist  # noqa: E402
import proc  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402


# ---------------------------------------------------------------------------
# percentile selection


def test_nearest_rank_percentile_reports_its_sample_count():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    values.reverse()
    p50 = stats.percentile(values, 50)
    p90 = stats.percentile(values, 90)
    assert (p50.value, p50.count, p50.beyond) == (50, 100, 50)
    assert (p90.value, p90.count, p90.beyond) == (90, 100, 10)
    assert stats.percentile([7.0], 90) == stats.Percentile(90, 7.0, 1, 0)


def test_percentile_rank_is_exact():
    # 99.9% of 10000 is rank 9990 exactly, with 10 samples beyond it
    p = stats.percentile(range(10000), 99.9)
    assert (p.value, p.beyond) == (9989, 10)
    assert stats.percentile(range(99), 90).beyond == 9  # too few beyond for a p90 tail


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_sum_of_medians_skips_jobs_without_samples():
    assert stats.sum_of_medians([[1.0, 3.0, 2.0], [], [5.0, 4.0]]) == 2.0 + 4.5


# ---------------------------------------------------------------------------
# self time on a synthetic nested call tree


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_directly_enclosed_spans():
    clock = FakeClock()
    rec = tracer.Recorder(clock)

    gf2_leaf = rec.wrap("gf2", lambda: clock.advance(3))

    def cochain_body():
        clock.advance(2)
        gf2_leaf()

    cochain_mid = rec.wrap("cochain", cochain_body)

    def expansion_body():
        clock.advance(1)
        cochain_mid()
        clock.advance(4)
        cochain_mid()

    expansion_top = rec.wrap("expansion", expansion_body)

    def cli_body():
        clock.advance(0.5)
        expansion_top()
        clock.advance(0.25)
        return 7

    result, total, cli_self = rec.run_root(cli_body)
    assert result == 7
    assert rec.layers["gf2"] == [2, 6.0, 0]
    assert rec.layers["cochain"] == [2, 4.0, 0]
    assert rec.layers["expansion"] == [1, 5.0, 0]
    assert (total, cli_self) == (15.75, 0.75)
    # self times plus the root's self time account for the whole root span
    assert sum(v[1] for v in rec.layers.values()) + cli_self == total


def test_same_layer_recursion_and_errors():
    clock = FakeClock()
    rec = tracer.Recorder(clock)

    def fails():
        clock.advance(2)
        raise KeyError("boom")

    failing = rec.wrap("walk", fails)

    def outer_body():
        clock.advance(1)
        try:
            failing()
        except KeyError:
            pass
        clock.advance(1)

    outer = rec.wrap("walk", outer_body)
    _, total, cli_self = rec.run_root(outer)
    assert rec.layers["walk"] == [2, 4.0, 1]
    assert (total, cli_self) == (4.0, 0.0)
    assert rec.stack == [4.0]  # the failed span popped its own frame


def test_counters_are_taken_from_the_call_arguments():
    rec = tracer.Recorder(FakeClock())
    counted = rec.wrap("walk", lambda X, e0, steps, paths, seed: None,
                       tracer.COUNTERS[("walk", "high_order_step_counts")])
    rec.run_root(lambda: (counted("X", 0, 8, 1000, 1), counted("X", 0, 4, 10, seed=2)))
    assert rec.counters == {"walk.path_steps": 8 * 1000 + 4 * 10}


# ---------------------------------------------------------------------------
# golden comparison


def golden(stdout, exit_code=0):
    return {"exit": exit_code, "stdout": stdout}


def test_floats_match_within_the_cli_tolerance():
    want = '{"lambda2": 0.25, "eigs": [1.0, -0.5], "status": "pass"}'
    assert checks.diff_golden(golden(want), 0, '{"lambda2": 0.2500000004, "eigs": [1.0, -0.5], "status": "pass"}') is None
    assert checks.diff_golden(golden(want), 0, '{"lambda2": 0.250000004, "eigs": [1.0, -0.5], "status": "pass"}') == "$.lambda2: 0.25 != 0.250000004"
    # the tolerance is relative once values exceed 1
    assert checks.compare_numbers(1000.0, 1000.0 + 5e-7)
    assert not checks.compare_numbers(1000.0, 1000.0 + 5e-6)


def test_exact_fields_must_match_exactly():
    want = '{"epsilon": "1/3", "witness": [0, 2], "subsets_checked": 64, "ok": true}'
    assert checks.diff_golden(golden(want), 0, want) is None
    assert checks.diff_golden(golden(want), 0, want.replace("1/3", "2/7")) is not None
    assert checks.diff_golden(golden(want), 0, want.replace("[0, 2]", "[0, 3]")) is not None
    assert checks.diff_golden(golden(want), 0, want.replace("64", "63")) is not None
    assert checks.diff_golden(golden(want), 0, want.replace("true", "1")) is not None
    assert checks.diff_golden(golden(want), 0, want.replace(', "ok": true', "")) is not None
    assert checks.diff_golden(golden(want), 1, want) == "exit 1 != 0"


def test_csv_traces_compare_field_by_field():
    want = "step,distance,alpha_power,ok\n0,0.9,1.0,true\n1,0.3,0.5,true\n"
    assert checks.diff_golden(golden(want), 0, want.replace("0.3,", "0.3000000001,")) is None
    assert checks.diff_golden(golden(want), 0, want.replace("0.3,", "0.31,")) is not None
    assert checks.diff_golden(golden(want), 0, want.replace("1,0.3,0.5,true", "1,0.3,0.5,false")) is not None
    assert checks.diff_golden(golden("", 2), 2, "") is None  # an expected usage error prints nothing


def test_relabelled_certificate_must_keep_its_constants():
    base = {"epsilon_cosystolic": "1/2", "epsilon_coboundary": "1/3", "mu": "1",
            "mu_vacuous": True, "connected": True}
    same = '{"results": {"epsilon_cosystolic": "1/2", "epsilon_coboundary": "1/3", "mu": "1", "mu_vacuous": true, "connected": true}}'
    assert checks.certify_invariant(0, same, base) is None
    assert "mu" in checks.certify_invariant(0, same.replace('"mu": "1"', '"mu": "1/2"'), base)
    swapped = same.replace('"1/2", "epsilon_coboundary": "1/3"', '"1/3", "epsilon_coboundary": "1/2"')
    assert checks.certify_invariant(0, swapped) == "epsilon_coboundary > epsilon_cosystolic"


# ---------------------------------------------------------------------------
# the certification ladder's stop rule


def fake_ladder(monkeypatch, behaviour):
    """behaviour(job key) -> (exit code, stdout, wall seconds); None means 'times out'."""
    calls = []

    def fake_run(argv, *, cwd, env, timeout):
        key = " ".join(argv[3:])
        calls.append((key, timeout))
        outcome = behaviour(key)
        if outcome is None:
            return proc.Outcome(-1, timeout, 0, b"", b"")
        code, stdout, wall = outcome
        fake_now[0] += wall
        return proc.Outcome(code, wall, 0, stdout.encode(), b"")

    fake_now = [0.0]
    monkeypatch.setattr(run.proc, "run", fake_run)
    monkeypatch.setattr(run.time, "perf_counter", lambda: fake_now[0])
    return calls


GOLDENS = {
    job.key: golden('{"results": {"epsilon_cosystolic": "1/2", "epsilon_coboundary": "1/3", '
                    '"mu": "1", "mu_vacuous": true, "connected": true}}')
    for _, rung in joblist.LADDER for job in rung
}


def test_ladder_stops_at_first_rung_over_budget_without_failing(monkeypatch):
    calls = fake_ladder(monkeypatch, lambda key: None if "k7" in key else (0, GOLDENS[key]["stdout"], 0.5))
    assert run.run_ladder(cwd=".", env={}, goldens=GOLDENS, scale=1.0) == (15, 2, [])
    assert [key for key, _ in calls] == ["certify k6.complex", "certify rp2.complex", "certify k7.complex"]
    assert calls[-1][1] == joblist.RUNG_BUDGET_S  # a rung's budget starts when the rung does


def test_ladder_budget_is_per_rung_not_per_job(monkeypatch):
    # Each job fits, but the two together exceed the rung's budget.
    per_job = joblist.RUNG_BUDGET_S / 1.5
    fake_ladder(monkeypatch, lambda key: (0, GOLDENS.get(key, golden("{}"))["stdout"], per_job))
    assert run.run_ladder(cwd=".", env={}, goldens=GOLDENS, scale=1.0)[0] == 0


def test_ladder_climbs_every_rung_and_counts_wrong_output_as_failure(monkeypatch):
    stdout = GOLDENS["certify k7.complex"]["stdout"]
    fake_ladder(monkeypatch, lambda key: (0, stdout, 0.1))
    assert run.run_ladder(cwd=".", env={}, goldens=GOLDENS, scale=1.0) == (24, 4, [])
    fake_ladder(monkeypatch, lambda key: (0, stdout.replace('"1/2"', '"1/5"') if "k7" in key else stdout, 0.1))
    best, attempted, failures = run.run_ladder(cwd=".", env={}, goldens=GOLDENS, scale=1.0)
    assert (best, attempted, len(failures)) == (15, 3, 1)
