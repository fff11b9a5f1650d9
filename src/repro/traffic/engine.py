"""Event-driven traffic engine: millions of messages, one shared clock.

Each *driver* is a (source node, tenant) pair with a message quota and a
wake time.  The engine is a top-level pump loop over a wake-time heap of
``(wake, seq, group)`` entries, a group being the drivers re-armed one
after another for the same wake: coast the clock to the earliest wake
once (``clock.run(until=...)`` fires any due network events), then step
the group's drivers in order.  A step checks the destination's credit and
then performs exactly one non-blocking send (:meth:`Sender.try_send`).
On success the driver draws its next destination from its seeded stream
and re-arms ``gap_cycles`` later; on a credit refusal or a transient
refusal (the node's UDMA engine is still draining the previous message)
it retries the *same* destination after ``retry_gap_cycles``.  Grouping
replays a one-entry-per-driver heap's pop order exactly (see ``run``), so
a refused retry costs a compare and an append, not a heap round trip.

CPU work never happens inside a clock-event callback.  A send charges
cycles (context switch, initiation stores), and a charge fires any due
events -- if those events performed their *own* CPU work, they would
context-switch a node away mid-instruction-sequence.  The pump loop keeps
every send at the top level, so the run is one deterministic interleaving
-- identical, by construction, with pooling/pipelining on or off.

Host throughput (messages/s, MB/s moved through simulated host memory)
is measured around the pump; simulated results (cycles, counters,
deliveries) are pure functions of the scenario parameters.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass
from typing import List, Optional

from repro.cluster import ShrimpCluster
from repro.errors import ConfigurationError
from repro.traffic.generators import TrafficPattern, Xorshift, _mix_seed, make_pattern
from repro.traffic.tenants import TenantPlacement
from repro.config import ClusterConfig

#: Retry delay after a busy UDMA engine; the sharded workload
#: (:mod:`repro.sharding.shard`) imports it, so both back off alike.
RETRY_GAP_CYCLES = 512


@dataclass
class TrafficResult:
    """Everything a scenario run produced, simulated and host-side."""

    scenario: str
    pattern: str
    num_nodes: int
    tenants_per_node: int
    messages: int
    msg_bytes: int
    retries: int
    churns: int
    sim_cycles: int
    events: int
    delivered: int
    xlat_hit_rate: float
    pooling: bool
    pipelining: bool
    host_seconds: float
    messages_per_sec: float
    host_mb_per_sec: float

    def as_dict(self) -> dict:
        return asdict(self)


class _Driver:
    __slots__ = ("src", "tenant", "quota", "sent", "retries", "stream",
                 "next_dst", "since_churn", "senders")

    def __init__(self, src: int, tenant: int, quota: int, stream) -> None:
        self.src = src
        self.tenant = tenant
        self.quota = quota
        self.sent = 0
        self.retries = 0
        self.stream = stream
        self.next_dst = stream()
        self.since_churn = 0
        #: dst -> Sender, filled lazily from the placement and refreshed
        #: on churn (host-side lookup cache for the per-message path)
        self.senders: dict = {}


class TrafficEngine:
    """Drive a built :class:`TenantPlacement` to its message quota."""

    def __init__(
        self,
        cluster: ShrimpCluster,
        placement: TenantPlacement,
        messages: int,
        msg_bytes: int = 512,
        gap_cycles: int = 4000,
        retry_gap_cycles: int = RETRY_GAP_CYCLES,
        churn_every: int = 0,
        scenario: str = "custom",
    ) -> None:
        if messages < 1:
            raise ConfigurationError(f"messages must be >= 1, got {messages}")
        if msg_bytes < 4 or msg_bytes % 4:
            raise ConfigurationError(
                f"msg_bytes must be a positive multiple of 4, got {msg_bytes}"
            )
        if gap_cycles < 1 or retry_gap_cycles < 1:
            raise ConfigurationError("gap cycles must be >= 1")
        channel_bytes = placement.channel_pages * cluster.costs.page_size
        if msg_bytes > channel_bytes:
            raise ConfigurationError(
                f"msg_bytes {msg_bytes} exceeds the {channel_bytes}-byte channel"
            )
        self.cluster = cluster
        self.placement = placement
        self.messages = messages
        self.msg_bytes = msg_bytes
        self.gap_cycles = gap_cycles
        self.retry_gap_cycles = retry_gap_cycles
        self.churn_every = churn_every
        self.scenario = scenario
        self.payload = bytes(
            (0x41 + (i % 23)) for i in range(min(msg_bytes, channel_bytes))
        )
        self._drivers = self._make_drivers()

    def _make_drivers(self) -> List[_Driver]:
        pattern = self.placement.pattern
        keys = [
            (src, tenant)
            for tenant in range(self.placement.tenants_per_node)
            for src in range(pattern.num_nodes)
            if pattern.peers(src)
        ]
        if not keys:
            raise ConfigurationError("pattern has no sending nodes")
        base, extra = divmod(self.messages, len(keys))
        drivers = []
        for i, (src, tenant) in enumerate(keys):
            quota = base + (1 if i < extra else 0)
            if quota:
                drivers.append(
                    _Driver(src, tenant, quota, pattern.dst_stream(src, tenant))
                )
        return drivers

    # --------------------------------------------------------------- run
    def run(self, max_events: Optional[int] = None) -> TrafficResult:
        """Build, drive to quota, drain in-flight traffic, and measure."""
        cluster = self.cluster
        self.placement.build(cluster, self.payload)
        clock = cluster.clock
        self._incoming = [
            cluster.nic(i).incoming for i in range(cluster.num_nodes)
        ]
        base_events = clock.events_fired
        base_cycles = clock.now
        base_delivered = self._packets_received()
        if max_events is None:
            max_events = self.messages * 64 + 100_000

        host_start = time.perf_counter()
        # Pump heap entries are (wake, seq, group): a group collects the
        # drivers re-armed one after another for the same wake.  Their
        # one-driver-per-entry seqs would have been consecutive, so no
        # other entry could sort between them, and stepping a group's
        # members in list order is the original pop order exactly.
        heap: List = []
        for i, d in enumerate(self._drivers):
            jitter = Xorshift(
                _mix_seed(self.placement.pattern.seed, d.src, d.tenant) ^ 0x117E4
            )
            heapq.heappush(
                heap, (clock.now + 1 + jitter.below(self.gap_cycles), i, [d])
            )
        seq = len(self._drivers)
        last_wake = -1
        last_group: List[_Driver] = []
        incoming = self._incoming
        retry_gap = self.retry_gap_cycles
        step = self._step
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            wake, _, group = heappop(heap)
            if wake > clock.now:
                clock.run(until=wake)
            for d in group:
                # Credit-style flow control: while the destination's
                # incoming FIFO is more than half full (incast fan-in
                # outrunning receive-side DMA), hold the message and
                # retry -- a deterministic stand-in for the
                # return-channel backpressure real deliberate-update
                # systems apply, and the reason a million-message incast
                # cannot overflow the sink regardless of gap settings.
                fifo = incoming[d.next_dst]
                if fifo.used_bytes * 2 > fifo.capacity_bytes:
                    d.retries += 1
                    rearm = retry_gap
                else:
                    rearm = step(d)
                    if not rearm:
                        continue
                wake = clock.now + rearm
                if wake == last_wake:
                    last_group.append(d)
                else:
                    last_wake = wake
                    last_group = [d]
                    heappush(heap, (wake, seq, last_group))
                    seq += 1
        cluster.run_until_idle(max_events=max_events)
        host_seconds = time.perf_counter() - host_start

        sent = sum(d.sent for d in self._drivers)
        retries = sum(d.retries for d in self._drivers)
        hits = sum(cluster.node(i).cpu.xlat_hits for i in range(cluster.num_nodes))
        misses = sum(
            cluster.node(i).cpu.xlat_misses for i in range(cluster.num_nodes)
        )
        lookups = hits + misses
        return TrafficResult(
            scenario=self.scenario,
            pattern=self.placement.pattern.name,
            num_nodes=cluster.num_nodes,
            tenants_per_node=self.placement.tenants_per_node,
            messages=sent,
            msg_bytes=self.msg_bytes,
            retries=retries,
            churns=self.placement.churns,
            sim_cycles=clock.now - base_cycles,
            events=clock.events_fired - base_events,
            delivered=self._packets_received() - base_delivered,
            xlat_hit_rate=(hits / lookups) if lookups else 0.0,
            pooling=cluster.pooling,
            pipelining=cluster.pipelining,
            host_seconds=host_seconds,
            messages_per_sec=sent / host_seconds if host_seconds > 0 else 0.0,
            host_mb_per_sec=(
                sent * self.msg_bytes / 1e6 / host_seconds
                if host_seconds > 0
                else 0.0
            ),
        )

    def _packets_received(self) -> int:
        return sum(
            self.cluster.nic(i).packets_received
            for i in range(self.cluster.num_nodes)
        )

    def _step(self, d: _Driver) -> int:
        """One send attempt; returns the re-arm delay (0 = quota reached).

        The pump calls it only once the destination has credit.
        """
        dst = d.next_dst
        sender = d.senders.get(dst)
        if sender is None:
            sender = self.placement.sender(d.src, d.tenant, dst)
            d.senders[dst] = sender
        if sender.try_send(self.msg_bytes):
            d.sent += 1
            d.since_churn += 1
            if self.churn_every and d.since_churn >= self.churn_every:
                d.since_churn = 0
                d.senders[dst] = self.placement.churn(
                    self.cluster, d.src, d.tenant, dst, self.payload
                )
            if d.sent >= d.quota:
                return 0
            d.next_dst = d.stream()
            return self.gap_cycles
        d.retries += 1
        return self.retry_gap_cycles


def run_scenario(
    name: str,
    pattern: str,
    num_nodes: int,
    tenants_per_node: int = 1,
    messages: int = 10_000,
    msg_bytes: int = 512,
    seed: int = 0,
    gap_cycles: int = 4000,
    retry_gap_cycles: int = RETRY_GAP_CYCLES,
    churn_every: int = 0,
    channel_pages: int = 1,
    pooling: bool = True,
    pipelining: bool = True,
    topology: str = "linear",
    mesh_width: int = 0,
    nipt_entries: Optional[int] = None,
    max_events: Optional[int] = None,
    **pattern_kwargs,
) -> TrafficResult:
    """Build pattern + cluster + placement, run, and return the result.

    The cluster is sized from the placement's own demand accounting:
    enough frames per node for every receive export, send buffer, and the
    worst-case churn re-allocations, and (unless overridden) a NIPT just
    big enough for the busiest node -- so churn genuinely cycles the NIC
    page table through its free list rather than rattling around in an
    oversized one.
    """
    pat = make_pattern(pattern, num_nodes, seed=seed, **pattern_kwargs)
    placement = TenantPlacement(
        pat, tenants_per_node=tenants_per_node, channel_pages=channel_pages
    )
    senders = sum(
        tenants_per_node for src in range(num_nodes) if pat.peers(src)
    )
    per_driver = -(-messages // max(senders, 1))
    churns_per_driver = per_driver // churn_every if churn_every else 0
    pages = 0
    nipt_need = 8
    for node in range(num_nodes):
        churn_pages = (
            tenants_per_node * churns_per_driver * channel_pages
            if pat.peers(node)
            else 0
        )
        pages = max(pages, placement.required_pages(node) + churn_pages)
        nipt_need = max(nipt_need, placement.nipt_demand(node))
    mem_size = max((pages + 64) * 4096, 1 << 22)
    cluster = ShrimpCluster(
                  config=ClusterConfig(
                      num_nodes=num_nodes,
                      mem_size=mem_size,
                      nipt_entries=nipt_entries if nipt_entries is not None else nipt_need,
                      topology=topology,
                      mesh_width=mesh_width,
                      pooling=pooling,
                      pipelining=pipelining,
                  ),
              )
    engine = TrafficEngine(
        cluster,
        placement,
        messages=messages,
        msg_bytes=msg_bytes,
        gap_cycles=gap_cycles,
        retry_gap_cycles=retry_gap_cycles,
        churn_every=churn_every,
        scenario=name,
    )
    return engine.run(max_events=max_events)
