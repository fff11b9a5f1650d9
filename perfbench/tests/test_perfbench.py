"""Self-tests of the benchmark: its counts are exact and its workloads keep their shape.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

Each workload runs at full size, as the benchmark runs it, so the suite
takes a few minutes.
"""

import math

import pytest

import run
from workloads import WORKLOADS, run_workload


def _profile(workload):
    calls, profiled, counters = run.count_calls(workload, workload.default_seed)
    assert not profiled.problems
    metrics = run.count_metrics(workload, calls, profiled, counters)
    return calls, profiled, metrics


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def unpatched(request):
    """Two profiled repeats of one workload, after an untimed warm-up."""
    workload = WORKLOADS[request.param]
    run_workload(workload, workload.default_seed, engine="in-process")
    return workload, _profile(workload), _profile(workload)


def test_call_counts_repeat_exactly(unpatched):
    _workload, (calls_a, _, metrics_a), (calls_b, _, metrics_b) = unpatched
    assert calls_a.layer_calls == calls_b.layer_calls
    per_msg = [k for k in metrics_a if k.endswith("calls_per_msg")]
    assert per_msg
    assert {k: metrics_a[k] for k in per_msg} == {k: metrics_b[k] for k in per_msg}


def test_planted_schedule_call_is_detected(unpatched, monkeypatch):
    """An extra no-op call inside ``Clock.schedule`` shows in ``sim.calls_per_msg``.

    The no-op is compiled under clock.py's file name, so the call profile
    files it where a real extra call in ``Clock.schedule`` would live.
    """
    import repro.sim.clock as clock_module

    workload, (base_calls, base, base_metrics), _ = unpatched
    namespace: dict = {}
    exec(compile("def planted_noop():\n    return None\n",
                 clock_module.__file__, "exec"), namespace)
    planted_noop = namespace["planted_noop"]
    original = clock_module.Clock.schedule

    def schedule(self, delay, callback):
        planted_noop()
        return original(self, delay, callback)

    monkeypatch.setattr(clock_module.Clock, "schedule", schedule)
    calls, profiled, metrics = _profile(workload)

    schedules = base_calls.calls_of("sim/clock.py:schedule")
    assert schedules > 0
    assert calls.calls_of("sim/clock.py:planted_noop") == schedules
    assert calls.layer_calls["sim"] - base_calls.layer_calls["sim"] == schedules
    assert math.isclose(
        metrics["sim.calls_per_msg"] - base_metrics["sim.calls_per_msg"],
        schedules / base.delivered,
    )
    assert profiled.fingerprint == base.fingerprint


def test_workload_keeps_its_shape(unpatched):
    """Each workload still exercises the layer it exists for."""
    workload, (_, profiled, metrics), _ = unpatched
    if workload.name == "incast_saturated":
        assert metrics["traffic.steps_per_msg"] > 10
    elif workload.name == "all_to_all_fastlane":
        assert profiled.fingerprint["retries"] == 0
        assert metrics["userlib.fast_send_ratio"] > 0.95
    elif workload.name == "tenant_churn":
        assert metrics["cpu.xlat_hit_rate"] < 0.01
        assert profiled.fingerprint["churns"] > 0
    else:
        assert workload.name == "mesh64_2shard"
        relayed = run_workload(workload, workload.default_seed, engine="worker")
        assert not relayed.problems
        assert relayed.fingerprint["rounds"] > 1


def _repeat(**fingerprint):
    from workloads import Repeat

    return Repeat(attempted=10, delivered=10, host_seconds=1.0,
                  setup_seconds=0.1, sim_cycles=100, fingerprint=fingerprint)


def test_fingerprint_mismatch_fails_every_message_of_the_run():
    checker = run.Checker(recorded={"sim_cycles": 100, "events": 4})
    checker.check(_repeat(sim_cycles=100, events=4), "first")
    assert checker.correct and checker.failed == 0
    checker.check(_repeat(sim_cycles=101, events=4), "second")
    assert not checker.correct
    assert (checker.attempted, checker.failed) == (20, 10)


def test_unrecorded_seed_must_still_repeat_itself():
    checker = run.Checker(recorded=None)
    checker.check(_repeat(sim_cycles=100), "first")
    checker.check(_repeat(sim_cycles=100), "second")
    assert checker.correct
    checker.check(_repeat(sim_cycles=99), "third")
    assert not checker.correct


def test_worker_rounds_are_checked_only_against_worker_runs():
    recorded = {"sim_cycles": 100, "rounds": 56}
    checker = run.Checker(recorded=recorded)
    checker.check(_repeat(sim_cycles=100), "in-process reference")
    checker.check(_repeat(sim_cycles=100, rounds=56), "worker")
    assert checker.correct
    checker.check(_repeat(sim_cycles=100, rounds=57), "worker")
    assert not checker.correct


def test_host_metrics_from_another_host_are_not_comparable():
    workload = WORKLOADS["incast_saturated"]
    facts = {"nproc": 2, "python": "3.11.7", "platform": "p"}
    baseline = {
        "host": dict(facts, nproc=4),
        "workloads": {workload.name: {"end_to_end": {
            "host_msg_per_s": 100.0, "sim_goodput_mb_s": 50.0,
        }}},
    }
    seed = workload.default_seed
    host = run.comparison("host_msg_per_s", 90.0, workload, seed, baseline, facts)
    assert "not comparable" in host and "nproc 4 vs 2" in host
    sim = run.comparison("sim_goodput_mb_s", 50.0, workload, seed, baseline, facts)
    assert "not comparable" not in sim and "+0.0%" in sim
