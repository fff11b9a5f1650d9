"""Directed per-subsystem snapshot tests.

Each test targets one stateful component in a configuration that has
historically been hard to serialise correctly: a clock mid-burst with a
tombstone and a same-cycle burst queued, a TLB carrying stale
generation stamps, a packet pool with recycled buffers, detached sampled
metrics, the NULL_TRACER singleton.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.errors import ConfigurationError
from repro.mem.physmem import PhysicalMemory
from repro.net.packet import Packet
from repro.net.pool import PacketPool
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import Clock
from repro.sim.trace import NULL_TRACER, Tracer
from repro.snapshot import Snapshottable, fork, restore, snapshot
from repro.vm.tlb import TLB, TlbEntry


def _burst_clock() -> "tuple[Clock, list]":
    """A clock stopped mid-burst.

    Pending events include a same-cycle burst (three events at one
    cycle) and one has already fired.  Callbacks append to ``fired`` (a
    plain list, so the whole graph stays inside the snapshot module
    allow-list).
    """
    clock = Clock()
    fired: list = []
    clock.schedule(5, partial(fired.append, "early"))
    doomed = clock.schedule(7, partial(fired.append, "cancelled"))
    doomed.cancel()
    for tag in ("b0", "b1", "b2"):  # same-cycle burst at t=20
        clock.schedule(20, partial(fired.append, tag))
    clock.schedule(30, partial(fired.append, "late"))
    clock.run(until=10)  # fire "early", pop the tombstone
    assert clock.pending() == 4
    return clock, fired


def test_clock_mid_burst_restore_equivalence():
    clock, fired = _burst_clock()
    ref_clock, ref_fired = _burst_clock()

    clock2, fired2 = restore(snapshot((clock, fired)))
    clock2.run_until_idle()
    ref_clock.run_until_idle()
    assert fired2 == ref_fired == ["early", "b0", "b1", "b2", "late"]
    assert clock2.now == ref_clock.now
    assert clock2.events_fired == ref_clock.events_fired
    assert clock2.pending() == 0


def test_clock_audit_hook_not_captured():
    clock, fired = _burst_clock()
    clock.audit_hook = lambda: None  # external observer (the auditor's)
    clock2 = restore(snapshot((clock, fired)))[0]
    assert clock2.audit_hook is None


def test_clock_state_dict_round_trip():
    clock, _fired = _burst_clock()
    assert isinstance(clock, Snapshottable)
    twin = Clock()
    twin.load_state(clock.state_dict())
    assert twin.now == clock.now
    assert twin.pending() == clock.pending()
    assert twin.events_fired == clock.events_fired
    assert twin.next_event_time() == clock.next_event_time()


def _stale_tlb() -> TLB:
    tlb = TLB(capacity=8)
    tlb.insert(1, 0x10, TlbEntry(pfn=3, writable=True, user=True))
    tlb.insert(1, 0x11, TlbEntry(pfn=4, writable=False, user=True))
    tlb.insert(2, 0x10, TlbEntry(pfn=9, writable=True, user=False))
    tlb.note_context_switch()   # stamp staleness into the generation
    tlb.invalidate(1, 0x11)
    tlb.lookup(1, 0x10)
    tlb.lookup(1, 0x55)         # miss
    return tlb


def test_tlb_stale_generation_stamps_survive():
    tlb = _stale_tlb()
    generation, hits, misses = tlb.generation, tlb.hits, tlb.misses
    tlb2 = restore(snapshot(tlb))
    assert tlb2.generation == generation == 2
    assert tlb2.hits == hits and tlb2.misses == misses
    assert tlb2.lookup(1, 0x10) == tlb.lookup(1, 0x10)
    assert tlb2.lookup(1, 0x11) is None
    # Entries stay entries, shootdowns keep advancing the generation.
    tlb2.flush_all()
    assert tlb2.generation == generation + 1
    assert tlb.generation == generation  # original untouched
    assert tlb.lookup(2, 0x10) is not None


def test_tlb_state_dict_round_trip():
    tlb = _stale_tlb()
    twin = TLB(capacity=8)
    twin.load_state(tlb.state_dict())
    assert twin.generation == tlb.generation
    assert dict(twin._entries) == dict(tlb._entries)
    assert twin._asid_keys == tlb._asid_keys


def test_physical_memory_round_trip_and_memoryview_rebuilt():
    mem = PhysicalMemory(size=1 << 14)
    mem.write(0x100, b"shrimp dma payload")
    mem.write_word(0x200, 0xDEADBEEF)
    mem2 = restore(snapshot(mem))
    assert mem2.read(0x100, 18) == b"shrimp dma payload"
    assert mem2.read_word(0x200) == 0xDEADBEEF
    # The cached memoryview must be a live view of the restored data.
    mem2.write(0x300, b"post-restore write")
    assert mem2.read(0x300, 18) == b"post-restore write"
    assert mem.read(0x300, 18) != b"post-restore write"


def test_physical_memory_fork_is_independent():
    mem = PhysicalMemory(size=1 << 12)
    mem.write(0, b"original")
    twin = fork(mem)
    twin.write(0, b"branched")
    assert mem.read(0, 8) == b"original"
    assert twin.read(0, 8) == b"branched"


def _used_pool() -> PacketPool:
    pool = PacketPool(debug=True)
    packets = [pool.acquire(0, 1, i * 64, b"x" * 64, seq=i) for i in range(4)]
    for packet in packets[:3]:
        pool.release(packet)
    pool.acquire(1, 0, 0, b"y" * 64, seq=9)  # one reuse
    return pool


def test_packet_pool_round_trip_rebuilds_ownership():
    pool = _used_pool()
    pool2 = restore(snapshot(pool))
    assert pool2.stats() == pool.stats()
    # id()-keyed ownership ledgers must be rebuilt against the restored
    # free lists, or debug-mode double-release detection misfires.
    assert pool2._owned_packet_ids == {id(p) for p in pool2._packets}
    assert pool2._owned_buffer_ids == {
        id(b) for bufs in pool2._buffers.values() for b in bufs
    }
    # The restored pool must keep recycling correctly.
    packet = pool2.acquire(2, 3, 128, b"z" * 64, seq=11)
    assert isinstance(packet, Packet)
    pool2.release(packet)


def test_null_tracer_restores_by_identity():
    obj = {"tracer": NULL_TRACER, "also": NULL_TRACER}
    out = restore(snapshot(obj))
    assert out["tracer"] is NULL_TRACER
    assert out["also"] is NULL_TRACER
    assert fork(obj)["tracer"] is NULL_TRACER


def test_tracer_subscribers_dropped_on_capture():
    tracer = Tracer(record=True)
    tracer.subscribe(lambda event: None)
    tracer.emit(17, "udma", "udma.start", n=1)
    tracer2 = restore(snapshot(tracer))
    assert tracer2._subscribers == []
    assert [e.kind for e in tracer2.events] == ["udma.start"]
    assert tracer2.enabled  # recording tracer stays enabled


def test_detached_metric_read_raises_until_rebound():
    reg = MetricsRegistry()
    backing = {"n": 41}
    counter = reg.counter("chaos.sends", lambda: backing["n"])
    assert counter.value() == 41
    reg2 = restore(snapshot(reg))
    with pytest.raises(ConfigurationError, match="detached"):
        reg2.get("chaos.sends").value()
    # Rebinding re-attaches the read on the *existing* instrument.
    with reg2.rebinding():
        rebound = reg2.counter("chaos.sends", lambda: backing["n"] + 1)
    assert rebound is reg2.get("chaos.sends")
    assert rebound.value() == 42


def test_rebinding_kind_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("m", lambda: 0)
    reg2 = restore(snapshot(reg))
    with reg2.rebinding():
        with pytest.raises(ConfigurationError):
            reg2.gauge("m", lambda: 0.0)


def test_histogram_distribution_survives_restore():
    reg = MetricsRegistry()
    hist = reg.histogram("udma.transfer_cycles")
    for v in (10, 20, 30, 40, 1000):
        hist.observe(v)
    reg2 = restore(snapshot(reg))
    with reg2.rebinding():
        hist2 = reg2.histogram("udma.transfer_cycles")
    assert hist2 is reg2.get("udma.transfer_cycles")
    assert hist2.value() == hist.value()
    hist2.observe(50)
    assert hist2.value()["count"] == hist.value()["count"] + 1
