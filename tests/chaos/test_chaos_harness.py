"""The chaos harness's own contract: determinism, oracles, bug-finding.

Four properties make the harness trustworthy:

1. **Determinism** -- the same seed yields byte-identical audit logs,
   counters and memory digests across independent runs (including the
   acceptance workload: seed 7, 200 steps, 2 nodes).
2. **Oracle equivalence** -- on a *healthy* kernel, replaying any
   schedule with the fast paths disabled is bit-identical: same logs,
   same cycles, same memory.  Several seeds, both world shapes.
3. **Bug-finding** -- a kernel with the I1 Inval removed is caught by
   the always-on auditor; a kernel that skips the translation-cache
   generation bumps (invisible to the invariant checkers) is caught by
   the auditor or the differential oracle.  Both yield minimal shrunk
   reproducers (<= 20 actions) that still fail when replayed.
4. **Schedule/shrinker mechanics** -- generation is seed-stable, and
   ddmin only ever returns a subsequence that fails.
"""

import json

import pytest

from repro.chaos import generate_schedule, run_chaos, schedule_campaign, shrink
from repro.chaos.explorer import ScheduleExplorer
from repro.chaos.oracles import fast_paths_twin
from repro.cli import main


# ------------------------------------------------------------ determinism
def test_schedule_generation_is_seed_stable():
    a = generate_schedule(seed=42, steps=50)
    b = generate_schedule(seed=42, steps=50)
    c = generate_schedule(seed=43, steps=50)
    assert a == b
    assert a != c


def test_acceptance_run_is_deterministic_and_clean():
    """The headline acceptance check: seed 7, 200 steps, 2 nodes runs
    clean, and two independent campaigns agree on every observable."""
    first = run_chaos(seed=7, steps=200, nodes=2)
    second = run_chaos(seed=7, steps=200, nodes=2)
    assert first.ok, first.failure_message
    assert second.ok
    assert first.primary.audit_log == second.primary.audit_log
    assert first.primary.counters == second.primary.counters
    assert first.primary.mem_digest == second.primary.mem_digest
    # auditing really ran, continuously
    assert first.primary.boundary_audits == 201  # one per action + settle
    assert first.primary.event_audits > 0


# ------------------------------------------------------ oracle equivalence
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("nodes", [1, 2])
def test_fast_and_reference_runs_are_bit_identical(seed, nodes):
    report = run_chaos(seed=seed, steps=80, nodes=nodes)
    assert report.primary.ok, report.failure_message
    assert report.verdict("fast-paths") is not None
    assert report.verdict("fast-paths").ok, report.verdict("fast-paths").mismatches[:3]


def test_oracle_flags_a_seeded_divergence():
    """Sanity-check the oracle itself: two worlds that really differ must
    not compare equal (guards against a vacuous comparator)."""
    actions = generate_schedule(seed=5, steps=40)
    explorer = ScheduleExplorer(nodes=1)
    fast = explorer.run(actions, fast_paths=True)
    # Compare against a *different* schedule's reference run.
    other = ScheduleExplorer(nodes=1)
    report = fast_paths_twin(other).compare(generate_schedule(seed=6, steps=40))
    assert report.ok  # healthy in itself...
    tampered = fast_paths_twin(explorer).compare(actions, a=fast)
    assert tampered.ok
    fast.audit_log[0] = "tampered"
    assert not fast_paths_twin(explorer).compare(actions, a=fast).ok


# ------------------------------------------------------------- bug finding
@pytest.mark.parametrize("nodes", [1, 2])
def test_missing_inval_is_caught_and_shrunk(nodes):
    """Scheduler forgets the I1 Inval: the always-on auditor must catch
    it, and ddmin must hand back a tiny reproducer that still fails."""
    report = run_chaos(
        seed=7, steps=200, nodes=nodes, break_mode="no-inval", diff=False
    )
    assert not report.ok
    assert report.primary.failure is not None
    assert report.primary.failure.kind == "invariant"
    assert "I1" in report.primary.failure.message
    assert report.shrunk is not None
    assert 1 <= len(report.shrunk.actions) <= 20
    # the shrunk schedule is a genuine reproducer
    replay = run_chaos(
        nodes=nodes, break_mode="no-inval", diff=False,
        actions=report.shrunk.actions,
    )
    assert not replay.ok
    assert "I1" in replay.failure_message


@pytest.mark.parametrize("nodes", [1, 2])
def test_stale_translation_cache_is_caught_and_shrunk(nodes):
    """Kernel skips the generation bumps the CPU translation cache needs:
    page tables stay self-consistent, so only downstream damage (invariant
    fallout in the fast run) or the differential oracle can expose it."""
    report = run_chaos(seed=7, steps=200, nodes=nodes, break_mode="stale-xlat")
    assert not report.ok
    assert report.shrunk is not None
    assert 1 <= len(report.shrunk.actions) <= 20
    replay = run_chaos(
        nodes=nodes, break_mode="stale-xlat",
        actions=report.shrunk.actions,
    )
    assert not replay.ok
    assert report.repro  # paste-ready reproducer text was produced
    assert "--replay" in report.repro


def test_reproducer_carries_every_campaign_flag(tmp_path, capsys):
    """The printed command replays the campaign that failed: with the
    reliable transport and the IOMMU tier on, both flags are in it, and
    running it reaches the shrunk schedule's failure identity."""
    report = run_chaos(
        seed=7, steps=60, nodes=2, break_mode="no-inval",
        reliability=True, iommu=True, max_shrink_evals=60,
    )
    assert not report.ok and report.shrunk is not None
    expected = schedule_campaign(**report.flags).run(report.shrunk.actions)
    assert not expected.ok

    lines = report.repro.splitlines()
    command = next(line for line in lines if "python -m repro chaos" in line).split()
    assert "--reliable" in command and "--iommu" in command
    argv = command[command.index("chaos"):]
    artifact = json.loads(lines[-1])
    # Replay both the full artifact and a bare action list, which carries
    # no flags of its own: the command alone must rebuild the campaign.
    for payload in (artifact, artifact["actions"]):
        path = tmp_path / "repro.json"
        path.write_text(json.dumps(payload))
        argv[argv.index("--replay") + 1] = str(path)
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert f"result: FAIL -- {expected.failure_message}" in out
        assert "delivery oracle" in out and "convergence oracle" in out


def test_replay_refuses_an_unknown_artifact_kind(tmp_path, capsys):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"kind": "bogus", "actions": []}))
    assert main(["chaos", "--replay", str(path)]) == 2
    assert "unknown artifact kind 'bogus'" in capsys.readouterr().err


# --------------------------------------------------------------- shrinker
def test_shrinker_returns_minimal_failing_subsequence():
    """ddmin on a synthetic predicate: fails iff both sentinel actions
    survive -- the shrinker must isolate exactly those two."""
    actions = generate_schedule(seed=11, steps=64)
    sentinels = {actions[10], actions[40]}

    def still_fails(candidate):
        return sentinels <= set(candidate)

    result = shrink(actions, still_fails, max_evals=500)
    assert set(result.actions) == sentinels
    assert not result.exhausted_budget


def test_shrinker_respects_evaluation_budget():
    actions = generate_schedule(seed=12, steps=64)

    def still_fails(candidate):
        return len(candidate) >= 1

    result = shrink(actions, still_fails, max_evals=5)
    assert result.evaluations <= 5
