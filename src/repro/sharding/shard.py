"""One shard of a partitioned SHRIMP cluster.

A :class:`Shard` owns a contiguous block of nodes, each built on its own
:class:`~repro.sim.clock.ShardClock`, plus a :class:`ShardInterconnect`
that intercepts the routing backplane: deliveries to local nodes are
scheduled as keyed arrival events, deliveries to remote nodes become
cross-shard handoffs (the *only* inter-shard channel).

Execution is conservative PDES.  A node's next **operation** is either
its earliest queued event or its next workload step; operations execute
strictly in canonical ``(time, key)`` order per node, and an operation
may only execute while it is provably safe: earlier than every in-link's
*bound* (the link source's promised next-operation time plus the link's
lookahead -- the minimum wire latency).  Bounds only ever gate
execution, never reorder it, which is the whole determinism argument:
the per-node operation sequence -- and hence every cycle count, counter
and memory image -- is a pure function of the
:class:`~repro.sharding.spec.ClusterSpec`, identical at any shard count
and under either engine.

Workload steps are *atomic*: the node's CPU charges cycles without
firing events (:class:`~repro.sim.clock.ShardClock` defers them), so a
step is one indivisible operation.  That is why the workload uses only
the paper's raw two-instruction initiation (``UdmaUser.initiate``,
never ``wait=True`` polling): a bounded, non-blocking step that cannot
need to coast the clock.
"""

from __future__ import annotations

import hashlib
from functools import partial
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.workloads import make_payload
from repro.cluster import build_node, export_receive_buffer, node_counters
from repro.config import ClusterConfig
from repro.errors import ConfigurationError, DmaError
from repro.kernel.invariants import InvariantChecker
from repro.kernel.process import Process
from repro.machine import Machine
from repro.net.interconnect import Interconnect
from repro.net.nic import ShrimpNic
from repro.net.packet import Packet
from repro.net.pool import PacketPool
from repro.obs import Observability, ObsConfig
from repro.params import CostModel, shrimp
from repro.sharding.spec import ClusterSpec, ShardSpec
from repro.sim.clock import Clock, ShardClock
from repro.sim.trace import NULL_TRACER, Tracer
from repro.traffic.engine import RETRY_GAP_CYCLES
from repro.userlib.udma import UdmaUser

#: canonical key class of a workload step: sorts after every hardware
#: event (empty key) and every network arrival ((1, src, seq)) at the
#: same cycle
STEP_KEY: Tuple = (2,)

#: "no bound" sentinel (an unreachable simulated time)
INFINITY = float("inf")


class ShardInterconnect(Interconnect):
    """The backplane as seen from inside one shard.

    Latency accounting (hops, per-hop cycles) is inherited; delivery is
    redirected to the owning shard's :meth:`Shard.handoff`, which either
    schedules a keyed arrival on a local node's clock or emits a
    cross-shard handoff.  Fault injectors and span tracking are not
    supported in sharded mode (the chaos wire-fault harness drives the
    single-clock engine).
    """

    def __init__(self, shard: "Shard", costs: CostModel, spec: ClusterSpec) -> None:
        super().__init__(
            Clock(),  # never consulted: tracing is off and delivery is keyed
            costs,
            NULL_TRACER,
            topology=spec.topology,
            mesh_width=spec.mesh_width,
        )
        self.validate_topology(spec.num_nodes)
        self._shard = shard
        if spec.pooling:
            # One pool per shard: free lists never cross a process
            # boundary (the worker engine pickles only wire bytes).
            self.packet_pool = PacketPool()

    def route(self, src_node: int, dst_node: int, wire) -> None:
        if self.fault_injector is not None:
            raise ConfigurationError(
                "wire-fault injection is not supported in sharded mode"
            )
        nbytes = wire.wire_bytes if isinstance(wire, Packet) else len(wire)
        delay = self.hops(src_node, dst_node) * self.costs.hop_cycles
        self.packets_routed += 1
        self.bytes_routed += nbytes
        self._shard.handoff(src_node, dst_node, delay, wire)


@dataclass
class NodeRuntime:
    """One node's simulation state plus its self-driving send schedule."""

    node_id: int
    machine: Machine
    nic: ShrimpNic
    clock: ShardClock
    tx_proc: Process
    udma: UdmaUser
    buffer: int
    src_proxy: int
    dst_proxy: int
    msg_bytes: int
    messages_total: int
    gap: int
    next_step: Optional[int]
    rx_proc: Process
    rx_buf: int
    #: what NIPT entries name: frames, or (asid, vpage) under the IOMMU
    rx_pages: Tuple
    in_links: List[Tuple[int, int]] = field(default_factory=list)
    sent: int = 0
    steps: int = 0
    retries: int = 0
    log: List[str] = field(default_factory=list)


def setup_node(
    spec: ClusterSpec,
    costs: CostModel,
    node_id: int,
    machine: Machine,
    nic: ShrimpNic,
) -> NodeRuntime:
    """Run the per-node OS setup and return the workload runtime.

    Every node performs the identical sequence -- receive process and
    buffer, export, sender NIPT install, send process, grant, buffer
    fill -- so a node's own receive pages are its ring successor's, and
    its NIPT entries name the pages it just exported.  The shards and
    engines compare every node's ``rx_pages`` (:func:`check_rx_pages`).
    """
    ps = costs.page_size
    npages = spec.channel_pages
    nbytes = npages * ps
    kernel = machine.kernel

    rx_proc = machine.create_process(f"rx{node_id}")
    rx_buf = kernel.syscalls.alloc(rx_proc, nbytes)
    dst = spec.dst_of(node_id)
    if spec.iommu:
        # Virtual-address tier: export the window to the IOMMU and leave
        # the buffer *cold* -- no residency, no pin -- so the first
        # delivery to each page parks, fault-services and replays.  The
        # NIPT names (asid, vpage); frames come at fault-service time.
        assert machine.iommu is not None
        base_vpage = rx_buf // ps
        rx_pages: Tuple = tuple(
            (rx_proc.asid, base_vpage + k) for k in range(npages)
        )
        for k, (asid, vpage) in enumerate(rx_pages):
            machine.iommu.register_window(asid, vpage, writable=True)
            nic.nipt.set_entry(k, dst, vpage, asid)
    else:
        # Sender side of the ring channel node_id -> dst.
        rx_pages = export_receive_buffer(machine, rx_proc, rx_buf, npages)
        for k, frame in enumerate(rx_pages):
            nic.nipt.set_entry(k, dst, frame)

    tx_proc = machine.create_process(f"tx{node_id}")
    grant = kernel.syscalls.grant_device_proxy(
        tx_proc, nic.name, writable=True, pages=(0, npages)
    )
    buffer = kernel.syscalls.alloc(tx_proc, nbytes)
    kernel.scheduler.switch_to(tx_proc)
    machine.cpu.write_bytes(
        buffer, make_payload(spec.msg_bytes, seed=1 + node_id % 251)
    )
    return NodeRuntime(
        node_id=node_id,
        machine=machine,
        nic=nic,
        clock=machine.clock,  # type: ignore[arg-type]
        tx_proc=tx_proc,
        udma=UdmaUser(machine, tx_proc),
        buffer=buffer,
        src_proxy=machine.layout.proxy(buffer),
        dst_proxy=grant,
        msg_bytes=spec.msg_bytes,
        messages_total=spec.messages_per_node,
        gap=spec.gap_cycles,
        rx_proc=rx_proc,
        rx_buf=rx_buf,
        rx_pages=rx_pages,
        # Setup itself charges the node's clock (identically on every
        # node); the schedule is relative to that end so the per-node
        # jitter survives whatever setup costs.
        next_step=machine.clock.now + spec.start_cycle + spec.start_offset(node_id),
    )


def check_rx_pages(node_id: int, pages: Tuple, canonical: Tuple) -> None:
    """Refuse a node whose receive pages (see :func:`setup_node`) diverged."""
    if pages != canonical:
        raise ConfigurationError(
            f"node {node_id} receive pages {pages} diverged from the "
            f"canonical {canonical}; deterministic construction is broken"
        )


class Shard:
    """A block of nodes plus the conservative execution machinery."""

    def __init__(
        self,
        spec: ClusterSpec,
        shard_spec: ShardSpec,
        tracer: "Tracer | None" = None,
        audit: bool = False,
    ) -> None:
        self.spec = spec
        self.shard_spec = shard_spec
        self.costs = shrimp()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: per-shard observability plane; node metrics land as node{i}.*
        self.obs = Observability(ObsConfig(metrics=True))
        self.interconnect = ShardInterconnect(self, self.costs, spec)
        self.runtimes: Dict[int, NodeRuntime] = {}
        self.order: List[int] = list(shard_spec.nodes)
        self.ops_executed = 0
        self.audit_count = 0
        self._checkers: Dict[int, InvariantChecker] = {}
        self._audit = audit
        #: per-(src, dst) channel sequence numbers, assigned in source
        #: causal order -- the second component of every arrival key
        self._chseq: Dict[Tuple[int, int], int] = {}
        #: cross-shard messages awaiting relay: (src, dst, arrival,
        #: chseq, wire_bytes)
        self.outbox: List[Tuple[int, int, int, int, bytes]] = []
        #: absolute safe bounds for cross-shard in-links, from null
        #: messages: (src, dst) -> promised time + lookahead
        self.chan_bound: Dict[Tuple[int, int], float] = {}
        #: engine override: called for cross-shard deliveries instead of
        #: the outbox (the in-process engine delivers immediately)
        self.deliver_remote: Optional[Callable[[int, int, int, int, bytes], None]] = None
        #: engine override: live bound for a cross-shard in-link (the
        #: in-process engine reads the peer shard's promise directly)
        self.remote_bound: Optional[Callable[[int, int, int], float]] = None

        lookaheads = spec.lookaheads(self.costs)
        local = set(shard_spec.nodes)
        node_config = ClusterConfig(
            costs=self.costs, mem_size=spec.mem_size,
            nipt_entries=spec.nipt_entries, iommu=spec.iommu, obs=self.obs,
        )
        #: receive pages every node of this shard yields (see setup_node)
        self.rx_pages: Tuple = ()
        for node_id in self.order:
            machine, nic = build_node(
                node_config, node_id, ShardClock(),
                self.interconnect,
            )
            rt = setup_node(spec, self.costs, node_id, machine, nic)
            if node_id == self.order[0]:
                self.rx_pages = rt.rx_pages
            check_rx_pages(node_id, rt.rx_pages, self.rx_pages)
            rt.in_links = [
                (s, lookaheads[(s, d)])
                for (s, d) in spec.links()
                if d == node_id
            ]
            self.runtimes[node_id] = rt
            if audit:
                self._checkers[node_id] = InvariantChecker(machine.kernel)
        self._cross_out = [
            (s, d, lookaheads[(s, d)])
            for (s, d) in spec.links()
            if s in local and d not in local
        ]
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Register the shard-level backplane and execution counters."""
        reg = self.obs.registry
        ic = self.interconnect
        p = f"shard{self.shard_spec.index}."
        reg.counter(p + "backplane.packets_routed", lambda: ic.packets_routed)
        reg.counter(p + "backplane.bytes_routed", lambda: ic.bytes_routed)
        reg.counter(p + "ops_executed", lambda: self.ops_executed)

    def _reattach_after_restore(self) -> None:
        """Rebind sampled metric reads after a snapshot restore.

        Node machines rebind their own instruments first (each takes the
        registry's rebinding window itself), then the shard-level
        backplane counters get fresh closures over the restored
        interconnect.
        """
        for rt in self.runtimes.values():
            rt.machine._reattach_after_restore()
        with self.obs.registry.rebinding():
            self._bind_metrics()

    # ----------------------------------------------------------- delivery
    def handoff(self, src: int, dst: int, delay: int, wire) -> None:
        """Deliver a routed packet: keyed local arrival or cross-shard.

        The arrival time is the sending node's *current* cycle plus the
        wire delay; the key ``(1, src, chseq)`` fixes the arrival's rank
        among same-cycle operations at the destination, independent of
        which shard -- or which worker process -- performed the delivery.
        """
        arrival = self.runtimes[src].clock.now + delay
        chseq = self._chseq.get((src, dst), 0)
        self._chseq[(src, dst)] = chseq + 1
        if self.tracer.enabled:
            self.tracer.emit(
                self.runtimes[src].clock.now,
                f"shard{self.shard_spec.index}",
                "handoff",
                src=src,
                dst=dst,
                arrival=arrival,
                seq=chseq,
            )
        rt = self.runtimes.get(dst)
        if rt is not None:
            # partial (not a lambda): in-flight handoffs are snapshot
            # state and must pickle with the shard clock's event queue.
            rt.clock.schedule_keyed(
                arrival, (1, src, chseq), partial(rt.nic.deliver, wire)
            )
            return
        if isinstance(wire, Packet):
            data = wire.encode()
            # Cross-shard transit is always wire bytes; the pooled shell
            # has served its purpose and can go straight home.
            pool = self.interconnect.packet_pool
            if pool is not None:
                pool.release(wire)
        else:
            data = bytes(wire)
        if self.deliver_remote is not None:
            self.deliver_remote(src, dst, arrival, chseq, data)
        else:
            self.outbox.append((src, dst, arrival, chseq, data))

    def ingest(self, src: int, dst: int, arrival: int, chseq: int, data: bytes) -> None:
        """Accept a cross-shard arrival (wire bytes; the decode path)."""
        rt = self.runtimes[dst]
        rt.clock.schedule_keyed(
            arrival, (1, src, chseq), partial(rt.nic.deliver, data)
        )

    def set_chan_bound(self, src: int, dst: int, bound: "float | None") -> None:
        """Apply a null message: link (src, dst) is safe strictly below
        ``bound`` (None = the source is finished; no further traffic)."""
        self.chan_bound[(src, dst)] = INFINITY if bound is None else bound
        if self.tracer.enabled:
            self.tracer.emit(
                0, f"shard{self.shard_spec.index}", "lbts",
                src=src, dst=dst, bound=bound,
            )

    # ---------------------------------------------------------- operations
    def next_op(self, rt: NodeRuntime) -> Optional[Tuple[int, Tuple, str]]:
        """The node's earliest potential operation: (time, key, kind)."""
        event = rt.clock.next_op()
        step: Optional[Tuple[int, Tuple, str]] = None
        if rt.next_step is not None:
            # A step that fell behind the node's own clock (a long event
            # burst) runs at `now`; both inputs are per-node deterministic.
            step = (max(rt.next_step, rt.clock.now), STEP_KEY, "step")
        if event is not None:
            candidate = (event[0], event[1], "event")
            if step is None or candidate[:2] <= step[:2]:
                return candidate
        return step

    def promise(self, rt: NodeRuntime) -> Optional[int]:
        """Lower bound on the node's next operation time (None = done)."""
        op = self.next_op(rt)
        return None if op is None else op[0]

    def bound_for(self, rt: NodeRuntime) -> float:
        """Conservative safe horizon: min over in-links of promise + L."""
        bound = INFINITY
        for src, lookahead in rt.in_links:
            peer = self.runtimes.get(src)
            if peer is not None:
                p = self.promise(peer)
                b = INFINITY if p is None else p + lookahead
            elif self.remote_bound is not None:
                b = self.remote_bound(src, rt.node_id, lookahead)
            else:
                b = self.chan_bound.get((src, rt.node_id), 0)
            if b < bound:
                bound = b
        return bound

    @staticmethod
    def executable(op: Tuple[int, Tuple, str], bound: float) -> bool:
        """Safe to execute now?

        Local hardware events (empty key) may run at the bound itself: a
        same-cycle arrival sorts after them anyway.  Arrivals and steps
        need the strict inequality -- an in-flight arrival at exactly
        the bound could still sort before them.
        """
        time, key, _kind = op
        if key == ():
            return time <= bound
        return time < bound

    def execute(self, rt: NodeRuntime, op: Tuple[int, Tuple, str]) -> None:
        _time, _key, kind = op
        if kind == "event":
            rt.clock.fire_next()
        else:
            self._execute_step(rt)
        self.ops_executed += 1
        checker = self._checkers.get(rt.node_id)
        if checker is not None:
            checker.check_all()
            self.audit_count += 1

    def _execute_step(self, rt: NodeRuntime) -> None:
        """One atomic workload step: mark the message, initiate the send.

        Exactly the paper's user-level critical path -- alignment check,
        STORE to the destination proxy, fence, LOAD of the status word --
        with a busy device folded into the schedule as a deterministic
        retry.  No polling, no coasting: the step is bounded CPU work.
        """
        assert rt.next_step is not None
        step_t = max(rt.next_step, rt.clock.now)
        if rt.clock.now < step_t:
            rt.clock.advance(step_t - rt.clock.now)  # idle until the step
        cpu = rt.machine.cpu
        cpu.store(rt.buffer, rt.sent + 1)  # the app stamps its message
        cpu.execute(self.costs.udma_align_check_cycles)
        status = rt.udma.initiate(rt.dst_proxy, rt.src_proxy, rt.msg_bytes)
        if status.hard_error:
            raise DmaError(
                f"node {rt.node_id} initiation failed: {status.describe()}"
            )
        if status.started:
            rt.sent += 1
            outcome = "sent"
            rt.next_step = (
                step_t + rt.gap if rt.sent < rt.messages_total else None
            )
        else:
            rt.retries += 1
            outcome = "busy"
            rt.next_step = step_t + RETRY_GAP_CYCLES
        rt.steps += 1
        rt.log.append(
            f"n{rt.node_id:03d} {rt.steps:04d} {outcome:<5} "
            f"m={rt.sent}/{rt.messages_total} t={rt.clock.now} r={rt.retries}"
        )

    # ------------------------------------------------------------- running
    def run_until_blocked(self) -> bool:
        """Execute every provably-safe operation; True if any ran.

        Node-at-a-time batching: executing a node's operations can only
        *raise* other nodes' bounds (promises are monotone), so a stale
        bound is merely conservative, never unsafe.
        """
        progress = False
        advanced = True
        while advanced:
            advanced = False
            for node_id in self.order:
                rt = self.runtimes[node_id]
                while True:
                    op = self.next_op(rt)
                    if op is None:
                        break
                    if not self.executable(op, self.bound_for(rt)):
                        break
                    self.execute(rt, op)
                    advanced = True
                    progress = True
        return progress

    def idle(self) -> bool:
        """No operations remain on any node."""
        return all(self.next_op(rt) is None for rt in self.runtimes.values())

    def out_promises(self) -> Dict[Tuple[int, int], "float | None"]:
        """Null-message payload: per cross-shard out-link safe bound."""
        promises: Dict[Tuple[int, int], "float | None"] = {}
        for src, dst, lookahead in self._cross_out:
            p = self.promise(self.runtimes[src])
            promises[(src, dst)] = None if p is None else p + lookahead
        return promises

    # ------------------------------------------------------------ observers
    def report(self) -> dict:
        """Everything the engine needs to merge: logs, counters, digests.

        Keys are per-node, so merging across shards is a plain union and
        the merged artefacts are bit-identical at any shard count.
        """
        logs: Dict[int, List[str]] = {}
        counters: Dict[str, int] = {}
        digests: Dict[str, str] = {}
        events = 0
        now = 0
        sent = retries = 0
        for node_id in self.order:
            rt = self.runtimes[node_id]
            summary = (
                f"n{node_id:03d} done  sent={rt.sent} retries={rt.retries} "
                f"rx={rt.nic.packets_received} t={rt.clock.now}"
            )
            logs[node_id] = rt.log + [summary]
            counters.update(node_counters(node_id, rt.machine, rt.nic))
            cpu = rt.machine.cpu
            counters[f"n{node_id}.now"] = rt.clock.now
            counters[f"n{node_id}.xlat_hits"] = cpu.xlat_hits
            counters[f"n{node_id}.xlat_misses"] = cpu.xlat_misses
            h = hashlib.blake2b(digest_size=16)
            h.update(rt.machine.physmem.view(0, rt.machine.physmem.size))
            digests[f"n{node_id}"] = h.hexdigest()
            events += rt.clock.events_fired
            now = max(now, rt.clock.now)
            sent += rt.sent
            retries += rt.retries
        counters[f"shard{self.shard_spec.index}.net.routed"] = (
            self.interconnect.packets_routed
        )
        counters[f"shard{self.shard_spec.index}.net.bytes"] = (
            self.interconnect.bytes_routed
        )
        return {
            "shard": self.shard_spec.index,
            "logs": logs,
            "counters": counters,
            "digests": digests,
            "events_fired": events,
            "now": now,
            "sent": sent,
            "retries": retries,
            "ops": self.ops_executed,
            "audits": self.audit_count,
            "metrics": self.obs.registry.snapshot(),
        }
