"""The eventual-delivery oracle's contract: faults absorbed, not counted.

With the ack/retransmit transport enabled, a chaos campaign is held to a
stronger standard than "no invariant broke": every wire fault the
schedule injects must be *absorbed* -- the faulted run ends with the
same memory image as its fault-free twin, every tracked message
delivered, zero retry budgets exhausted.  These tests cover the oracle
itself (twin construction, verdicts, non-vacuousness) and the reliable
campaign entry point, and pin that reliability-off campaigns are
untouched by any of it.
"""

import pytest

from repro.chaos import (
    WIRE_FAULT_KINDS,
    generate_schedule,
    run_chaos,
    strip_wire_faults,
)
from repro.chaos.explorer import ScheduleExplorer
from repro.chaos.oracles import delivery_twin


# ----------------------------------------------------- twin construction
def test_strip_wire_faults_removes_only_wire_faults():
    actions = generate_schedule(seed=9, steps=200)
    stripped = strip_wire_faults(actions)
    # A 200-step schedule at the default weights always draws some faults.
    assert len(stripped) < len(actions)
    assert all(a.kind not in WIRE_FAULT_KINDS for a in stripped)
    # Everything else survives, in original order.
    assert stripped == [a for a in actions if a.kind not in WIRE_FAULT_KINDS]


def test_strip_is_idempotent():
    actions = generate_schedule(seed=9, steps=100)
    once = strip_wire_faults(actions)
    assert strip_wire_faults(once) == once


# ------------------------------------------------------- reliable campaigns
@pytest.mark.parametrize("seed", [7, 11, 23])
def test_reliable_campaign_converges(seed):
    """Drop/dup/corrupt/reorder schedules with reliability on: the run is
    clean AND the delivery oracle proves convergence to the fault-free
    memory image with zero lost messages."""
    report = run_chaos(seed=seed, steps=100, nodes=2, reliability=True)
    assert report.ok, report.failure_message
    assert report.verdict("delivery") is not None
    assert report.verdict("delivery").ok, report.verdict("delivery").mismatches[:3]
    assert report.verdict("delivery").a.counters.get("rel.delivery_failed", 0) == 0
    sent = report.verdict("delivery").a.counters.get("rel.messages_sent", 0)
    got = report.verdict("delivery").a.counters.get("rel.messages_delivered", 0)
    assert sent == got


def test_reliable_campaign_three_nodes():
    report = run_chaos(seed=7, steps=120, nodes=3, reliability=True)
    assert report.ok, report.failure_message
    assert report.verdict("delivery") is not None and report.verdict("delivery").ok


def test_reliable_campaign_is_deterministic():
    first = run_chaos(seed=11, steps=80, nodes=2, reliability=True)
    second = run_chaos(seed=11, steps=80, nodes=2, reliability=True)
    assert first.ok and second.ok
    assert first.primary.counters == second.primary.counters
    assert first.primary.mem_digest == second.primary.mem_digest
    # the reliability counters are part of the deterministic surface
    rel = {k for k in first.primary.counters if k.startswith("rel.")}
    assert "rel.messages_sent" in rel


# ----------------------------------------------------- off-mode unchanged
def test_reliability_off_campaign_has_no_delivery_verdict():
    """Default campaigns are byte-for-byte the historical harness: no
    delivery oracle, no ``rel.*`` counters in the observable surface."""
    report = run_chaos(seed=7, steps=80, nodes=2)
    assert report.ok
    assert report.verdict("delivery") is None
    assert not any(k.startswith("rel.") for k in report.primary.counters)


# ------------------------------------------------------------- the oracle
def test_oracle_requires_a_reliable_explorer():
    with pytest.raises(ValueError):
        delivery_twin(ScheduleExplorer(nodes=2))


def test_oracle_flags_planted_loss():
    """Non-vacuousness: a faulted run whose transport counters admit a
    lost message, or whose memory diverges, must be rejected."""
    actions = generate_schedule(seed=13, steps=60)
    explorer = ScheduleExplorer(nodes=2, reliability=True)
    oracle = delivery_twin(explorer)
    healthy = oracle.compare(actions)
    assert healthy.ok, healthy.mismatches[:3]

    faulted = explorer.run(actions)
    faulted.counters["rel.messages_delivered"] -= 1
    lost = oracle.compare(actions, a=faulted)
    assert not lost.ok
    assert any("lost messages" in m for m in lost.mismatches)

    faulted = explorer.run(actions)
    faulted.counters["rel.delivery_failed"] = 1
    exhausted = oracle.compare(actions, a=faulted)
    assert not exhausted.ok
    assert any("retry budget" in m for m in exhausted.mismatches)

    faulted = explorer.run(actions)
    faulted.mem_digest = "not-the-real-digest"
    diverged = oracle.compare(actions, a=faulted)
    assert not diverged.ok
    assert any("memory digest" in m for m in diverged.mismatches)
