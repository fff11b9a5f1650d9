"""Differential test: the grouped traffic pump against one entry per driver.

:meth:`TrafficEngine.run` keys its wake heap by ``(wake, seq, group)``,
stepping every driver re-armed for one wake from a single heap entry and
checking credit inline.  The reference below is the plain pump it
replaces -- one ``(wake, seq, driver)`` entry per re-arm, the credit
check, then ``engine._step`` -- and lives only here.  Both must leave
every simulated bit identical: results, per-driver counts, per-node
clocks and counters, and every byte of every node's memory.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.cluster import node_counters
import repro.traffic.engine as engine_module
from repro.traffic import TrafficEngine, TrafficResult, run_scenario
from repro.traffic.generators import Xorshift, _mix_seed

#: TrafficResult fields measured on the host, not simulated
HOST_FIELDS = {"host_seconds", "messages_per_sec", "host_mb_per_sec"}


def reference_run(engine: TrafficEngine) -> TrafficResult:
    """``TrafficEngine.run`` with the one-driver-per-entry pump."""
    cluster = engine.cluster
    engine.placement.build(cluster, engine.payload)
    clock = cluster.clock
    engine._incoming = [cluster.nic(i).incoming for i in range(cluster.num_nodes)]
    base_events = clock.events_fired
    base_cycles = clock.now
    base_delivered = engine._packets_received()
    heap = []
    for i, d in enumerate(engine._drivers):
        jitter = Xorshift(
            _mix_seed(engine.placement.pattern.seed, d.src, d.tenant) ^ 0x117E4
        )
        heapq.heappush(
            heap, (clock.now + 1 + jitter.below(engine.gap_cycles), i, d)
        )
    seq = len(engine._drivers)
    while heap:
        wake, _, d = heapq.heappop(heap)
        if wake > clock.now:
            clock.run(until=wake)
        incoming = engine._incoming[d.next_dst]
        if incoming.used_bytes * 2 > incoming.capacity_bytes:
            d.retries += 1
            rearm = engine.retry_gap_cycles
        else:
            rearm = engine._step(d)
        if rearm:
            heapq.heappush(heap, (clock.now + rearm, seq, d))
            seq += 1
    cluster.run_until_idle(max_events=engine.messages * 64 + 100_000)

    cpus = [cluster.node(i).cpu for i in range(cluster.num_nodes)]
    hits = sum(c.xlat_hits for c in cpus)
    lookups = hits + sum(c.xlat_misses for c in cpus)
    return TrafficResult(
        scenario=engine.scenario,
        pattern=engine.placement.pattern.name,
        num_nodes=cluster.num_nodes,
        tenants_per_node=engine.placement.tenants_per_node,
        messages=sum(d.sent for d in engine._drivers),
        msg_bytes=engine.msg_bytes,
        retries=sum(d.retries for d in engine._drivers),
        churns=engine.placement.churns,
        sim_cycles=clock.now - base_cycles,
        events=clock.events_fired - base_events,
        delivered=engine._packets_received() - base_delivered,
        xlat_hit_rate=(hits / lookups) if lookups else 0.0,
        pooling=cluster.pooling,
        pipelining=cluster.pipelining,
        host_seconds=0.0,
        messages_per_sec=0.0,
        host_mb_per_sec=0.0,
    )


def build_engine(monkeypatch, fifo_bytes: int, **scenario) -> TrafficEngine:
    """The engine ``run_scenario`` builds, captured before it runs.

    Every incoming FIFO shrinks to ``fifo_bytes``, so the credit check
    starts refusing within a few hundred messages instead of the
    thousand-odd a 1 MiB FIFO takes to half fill.
    """
    engines = []
    with monkeypatch.context() as patch:
        patch.setattr(
            TrafficEngine, "run", lambda self, max_events=None: engines.append(self)
        )
        run_scenario("pump", **scenario)
    engine = engines[0]
    for i in range(engine.cluster.num_nodes):
        engine.cluster.nic(i).incoming.capacity_bytes = fifo_bytes
    return engine


def simulated_state(engine: TrafficEngine, result: TrafficResult) -> dict:
    cluster = engine.cluster
    nodes = []
    for i in range(cluster.num_nodes):
        machine = cluster.node(i)
        nic = cluster.nic(i)
        nodes.append({
            "now": machine.clock.now,
            "counters": node_counters(i, machine, nic),
            "xlat": (machine.cpu.xlat_hits, machine.cpu.xlat_misses),
            "nic_bytes_sent": nic.bytes_sent,
            "memory": hashlib.sha256(
                machine.physmem.view(0, machine.physmem.size)
            ).hexdigest(),
        })
    return {
        "result": {
            f.name: getattr(result, f.name)
            for f in fields(result)
            if f.name not in HOST_FIELDS
        },
        "drivers": [(d.src, d.tenant, d.sent, d.retries) for d in engine._drivers],
        "nodes": nodes,
    }


SCENARIOS = {
    "saturating_incast": dict(
        pattern="incast", num_nodes=8, messages=400, seed=3, gap_cycles=200,
        fifo_bytes=8192,
    ),
    "gap_below_retry_gap": dict(
        pattern="incast", num_nodes=8, messages=400, seed=5, gap_cycles=300,
        retry_gap_cycles=700, fifo_bytes=8192,
    ),
    "uniform_with_churn": dict(
        pattern="uniform", num_nodes=6, messages=400, seed=9, gap_cycles=100,
        churn_every=7, degree=1, fifo_bytes=4096,
    ),
    "two_tenants": dict(
        pattern="incast", num_nodes=8, tenants_per_node=2, messages=400,
        seed=11, gap_cycles=200, fifo_bytes=8192,
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_grouped_pump_matches_one_entry_per_driver(monkeypatch, name):
    scenario = SCENARIOS[name]
    grouped = build_engine(monkeypatch, **scenario)
    reference = build_engine(monkeypatch, **scenario)
    got = simulated_state(grouped, grouped.run())
    want = simulated_state(reference, reference_run(reference))
    assert got == want
    assert got["result"]["messages"] == scenario["messages"]
    assert got["result"]["delivered"] == scenario["messages"]
    assert got["result"]["retries"] > 0


@pytest.mark.parametrize("name", ["saturating_incast", "gap_below_retry_gap"])
def test_saturated_scenarios_step_multi_driver_groups(monkeypatch, name):
    """Credit refusals at one cycle must share a heap entry, or the
    differential test above never exercises a group of two or more."""
    sizes = []

    def heappop(heap):
        entry = heapq.heappop(heap)
        sizes.append(len(entry[2]))
        return entry

    engine = build_engine(monkeypatch, **SCENARIOS[name])
    monkeypatch.setattr(
        engine_module, "heapq",
        SimpleNamespace(heappush=heapq.heappush, heappop=heappop),
    )
    engine.run()
    assert max(sizes) > 1
    assert sum(sizes) > len(sizes) + 50
