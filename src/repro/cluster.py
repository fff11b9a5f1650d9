"""Multi-node assembly: the SHRIMP multicomputer.

A :class:`ShrimpCluster` builds N :class:`~repro.machine.Machine` nodes on
one shared clock, gives each a :class:`~repro.net.nic.ShrimpNic`, and
plugs them all into one routing backplane -- the shape of the real
four-node prototype ("each node ... is an Intel Pentium Xpress PC system
and the interconnect is an Intel Paragon routing backplane").

Communication setup follows the paper's model: the *receiving* side
exports physical pages, the *sending* side's OS installs NIPT entries
naming them, and from then on user processes send with pure UDMA
initiations -- no kernel involvement per message.

Design note (documented substitution): NIPT entries name physical frames
on the receiving node, so the receiving kernel must keep exported frames
resident for the lifetime of the export.  We model that as a *mapping-time*
pin, taken once per buffer export.  This preserves the paper's claim that
no **per-transfer** pinning ever happens; the export is the analogue of
SHRIMP's receive-buffer mapping setup.  Exported pages are also marked
dirty, the receiving-side I3 discipline for device-to-memory writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import ClusterConfig
from repro.errors import ConfigurationError, SyscallError
from repro.kernel.process import Process
from repro.machine import Machine
from repro.net.interconnect import Interconnect
from repro.net.nic import ShrimpNic
from repro.net.pool import PacketPool
from repro.net.reliable import ReliabilityConfig, ReliabilityPlane
from repro.obs import Observability, unflatten
from repro.params import shrimp
from repro.sim.clock import Clock
from repro.sim.trace import Tracer


@dataclass(frozen=True)
class Channel:
    """A configured deliberate-update path from one node to another.

    Attributes:
        src_node: sender node index.
        dst_node: receiver node index.
        nipt_base: first NIPT index of the channel on the sender's NIC.
        npages: channel length in pages.
        dst_vaddr: receiver-process virtual base address of the buffer.
        dst_frames: receiver physical frames, one per page.
        page_size: the cluster's page size (offset arithmetic).
        dst_asid: receiver address-space id when the channel rides the
            virtual-address RDMA tier (sender NIPT entries name (asid,
            vpage) and the receiver's IOMMU translates at delivery);
            -1 for the paper's physical, pin-at-export channels.
    """

    src_node: int
    dst_node: int
    nipt_base: int
    npages: int
    dst_vaddr: int
    dst_frames: Tuple[int, ...]
    page_size: int
    dst_asid: int = -1

    @property
    def virtual(self) -> bool:
        """True when this channel rides the IOMMU tier."""
        return self.dst_asid >= 0

    def device_offset(self, byte_offset: int) -> int:
        """NIC device-proxy offset addressing ``byte_offset`` in the channel."""
        if byte_offset < 0:
            raise ConfigurationError(f"negative channel offset {byte_offset}")
        return self.nipt_base * self.page_size + byte_offset

    @property
    def nbytes(self) -> int:
        """Channel capacity in bytes."""
        return self.npages * self.page_size


def export_receive_buffer(
    machine: Machine,
    process: Process,
    vaddr: int,
    npages: int,
    physical: bool = True,
) -> Tuple[int, ...]:
    """Receiver-side export: make pages resident, dirty, and pinned.

    Returns the physical frames backing the buffer (what NIPT entries
    will name).  See the module docstring for the pinning rationale.
    Both the cluster's channel setup and the sharded engine's per-node
    setup export through here.

    Under the virtual-address RDMA tier (``physical=False``) the export
    takes *no pin* and sets no dirty bit: it registers (asid, vpage)
    windows with the machine's IOMMU instead, and delivery-time
    translation marks pages dirty as the device actually writes them.
    Pages are still touched resident once so the fault-free path starts
    warm; they may be evicted freely afterwards -- that is the whole
    point of the tier.
    """
    if vaddr % machine.layout.page_size:
        raise SyscallError("EINVAL", "receive buffers must be page aligned")
    if not physical and machine.iommu is None:
        raise ConfigurationError(
            f"{machine.name} has no IOMMU; virtual exports need "
            "ClusterConfig(iommu=...)"
        )
    frames: List[int] = []
    base_vpage = vaddr // machine.layout.page_size
    for i in range(npages):
        vpage = base_vpage + i
        if not process.owns_vpage(vpage):
            raise SyscallError("EFAULT", f"vpage {vpage:#x} not owned")
        if not process.vpage_is_writable(vpage):
            raise SyscallError("EFAULT", f"vpage {vpage:#x} is read-only")
        frame = machine.kernel.vm.touch_resident(process, vpage)
        if physical:
            pte = process.page_table.get(vpage)
            assert pte is not None
            pte.dirty = True  # receiving-side I3: incoming DMA will write it
            machine.kernel.frames.pin(frame)
        else:
            machine.iommu.register_window(process.asid, vpage, writable=True)
        frames.append(frame)
    return tuple(frames)


def build_node(
    config: ClusterConfig,
    node_id: int,
    clock: Clock,
    interconnect: Interconnect,
    tracer: Optional[Tracer] = None,
    reliability: Optional[ReliabilityPlane] = None,
) -> Tuple[Machine, ShrimpNic]:
    """Build one node (machine + NIC on the backplane).

    The only node constructor: :class:`ShrimpCluster` and the sharded
    engine's shards both build here, each passing one config per
    assembly whose ``obs`` is its shared observability plane; the other
    arguments are the assembly's live wiring.
    """
    machine = Machine(
        config=config.node_config(),
        clock=clock,
        tracer=tracer,
        name=f"node{node_id}",
    )
    nic = ShrimpNic(
        node_id=node_id,
        costs=machine.costs,
        physmem=machine.physmem,
        nipt_entries=config.nipt_entries,
        cut_through=config.cut_through,
    )
    machine.attach_device(nic)
    nic.connect(interconnect)
    if reliability is not None:
        nic.enable_reliability(reliability)
    # Wire the bus snooper for the automatic-update extension.
    machine.cpu.store_snoop = nic.snoop_store
    return machine, nic


def node_counters(
    i: int, machine: Machine, nic: Optional[ShrimpNic]
) -> Dict[str, int]:
    """Curated counters of node ``i`` that every differential oracle compares.

    Translation-cache totals are absent: they legitimately differ
    between fast and reference paths.  ``nic{i}.*`` needs a NIC, and the
    ``io{i}.*`` park/replay ledger exists only under the IOMMU tier.
    """
    cpu, vm = machine.cpu, machine.kernel.vm
    sched = machine.kernel.scheduler
    p = f"n{i}."
    counters = {
        p + "loads": cpu.loads,
        p + "stores": cpu.stores,
        p + "instructions": cpu.instructions,
        p + "charged": cpu.charged_cycles,
        p + "faults": vm.faults_handled,
        p + "proxy_faults": vm.proxy_faults,
        p + "mmu_faults": machine.mmu.faults,
        p + "switches": sched.switches,
        p + "invals": sched.invals_fired,
    }
    if nic is not None:
        p = f"nic{i}."
        counters[p + "tx"] = nic.packets_sent
        counters[p + "rx"] = nic.packets_received
        counters[p + "rx_err"] = nic.rx_errors
        counters[p + "bytes_rx"] = nic.bytes_received
    if machine.iommu is not None:
        for name, value in machine.iommu.counters().items():
            counters[f"io{i}.{name}"] = value
    return counters


class ShrimpCluster:
    """N SHRIMP nodes on one backplane.

    The front door is a typed config (see :mod:`repro.config`)::

        from repro import ShrimpCluster
        from repro.config import ClusterConfig

        cluster = ShrimpCluster(config=ClusterConfig(num_nodes=2, iommu=True))

    With ``iommu`` on, sender NIPT entries name (asid, virtual page) on the
    receiver, exports take no pin, and receiver-side faults
    park-and-replay through each node's IOMMU (:mod:`repro.iommu`).
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        if config is None:
            config = ClusterConfig()
        elif not isinstance(config, ClusterConfig):
            raise ConfigurationError(
                f"config must be a ClusterConfig, got {type(config).__name__}"
            )
        if config.num_nodes <= 0:
            raise ConfigurationError(
                f"num_nodes must be positive, got {config.num_nodes}"
            )
        self.config = config
        num_nodes = config.num_nodes
        self.costs = config.costs if config.costs is not None else shrimp()
        #: fast-lane toggles: ``pooling`` recycles packets and buffers,
        #: ``pipelining`` lets senders reuse cached initiation plans.  Both
        #: are exact -- simulated cycles and every curated counter are
        #: bit-identical on or off (chaos ``--no-pool`` gates this).
        self.pooling = config.pooling
        self.pipelining = config.pipelining
        #: protection-backend spec applied to every node (each node gets
        #: its own backend instance; see repro.protection)
        self.protection = (
            config.protection if config.protection is not None else "proxy"
        )
        self.clock = Clock()
        # One shared observability plane: every node registers its metrics
        # under a node{i}. namespace and all spans land on one tracker, so
        # a transfer's causality survives crossing the backplane.
        obs = config.obs
        if isinstance(obs, Observability):
            self.obs = obs
        else:
            self.obs = Observability(obs, clock=self.clock)
        self.obs.adopt_clock(self.clock)
        if self.obs.tracer is not None:
            self.tracer = self.obs.tracer
        else:
            self.tracer = Tracer(
                record=config.record_trace or self.obs.config.record_trace
            )
            self.obs.tracer = self.tracer
        self._metrics_bound = False
        self.interconnect = Interconnect(
            self.clock, self.costs, self.tracer,
            topology=config.topology, mesh_width=config.mesh_width,
        )
        # Fail fast on a node count that does not fill the configured
        # grid (ragged meshes would silently skew hop distances).
        self.interconnect.validate_topology(num_nodes)
        if config.pooling:
            self.interconnect.packet_pool = PacketPool(debug=config.pool_debug)
        if self.obs.spans is not None:
            self.interconnect._spans = self.obs.spans
        # Optional ack/retransmit transport: one shared plane for the whole
        # backplane (channels are keyed per (src, dst) node pair).  The
        # default -- no plane -- leaves every NIC exactly as before.
        self.reliability: Optional[ReliabilityPlane] = None
        if config.reliability:
            rel_config = (
                config.reliability
                if isinstance(config.reliability, ReliabilityConfig)
                else None
            )
            self.reliability = ReliabilityPlane(
                rel_config,
                clock=self.clock,
                spans=self.obs.spans,
                tracer=self.tracer,
            )
        self.nodes: List[Machine] = []
        self.nics: List[ShrimpNic] = []
        # Per-node NIPT allocator: free (base, length) ranges, first-fit.
        # Starts as one big range, so allocation order matches the old
        # bump allocator until something is released.
        self._nipt_free: List[List[Tuple[int, int]]] = []
        node_config = config.replace(
            costs=self.costs, protection=self.protection, obs=self.obs
        )
        for i in range(num_nodes):
            node, nic = build_node(
                node_config, i, self.clock, self.interconnect,
                tracer=self.tracer, reliability=self.reliability,
            )
            self.nodes.append(node)
            self.nics.append(nic)
            self._nipt_free.append([(0, config.nipt_entries)])
        if self.obs.config.metrics:
            self._bind_metrics()

    # ------------------------------------------------------- observability
    def _bind_metrics(self) -> None:
        """Register backplane and NIC metrics on the shared registry.

        Node-level metrics are bound by each :class:`Machine` under its
        ``node{i}.`` namespace; the cluster adds the backplane counters
        and each NIC's (NICs are cluster-assembled, so their names live
        beside the owning node's).
        """
        if self._metrics_bound:
            return
        self._metrics_bound = True
        reg = self.obs.registry
        ic = self.interconnect
        reg.counter("backplane.packets_routed", lambda: ic.packets_routed)
        reg.counter("backplane.bytes_routed", lambda: ic.bytes_routed)
        reg.gauge("backplane.topology", lambda: ic.topology)
        reg.gauge("now_cycles", lambda: self.clock.now)
        if self.reliability is not None:
            # The net.* transport surface exists only when the transport
            # does: reliability-off clusters keep the historical name set
            # bit-identical (golden-file gated).
            plane = self.reliability
            reg.counter("net.retransmits", lambda: plane.retransmits)
            reg.counter("net.acks", lambda: plane.acks_sent)
            reg.counter("net.dup_suppressed", lambda: plane.dup_suppressed)
            reg.counter("net.delivery_failed", lambda: plane.delivery_failed)
            reg.counter("net.messages_sent", lambda: plane.messages_sent)
            reg.counter(
                "net.messages_delivered", lambda: plane.messages_delivered
            )
        for i, nic in enumerate(self.nics):
            p = f"node{i}.nic."
            reg.counter(p + "packets_sent", (lambda n: lambda: n.packets_sent)(nic))
            reg.counter(
                p + "packets_received", (lambda n: lambda: n.packets_received)(nic)
            )
            reg.counter(p + "bytes_sent", (lambda n: lambda: n.bytes_sent)(nic))
            reg.counter(
                p + "bytes_received", (lambda n: lambda: n.bytes_received)(nic)
            )
            reg.counter(p + "rx_errors", (lambda n: lambda: n.rx_errors)(nic))
            reg.gauge(
                p + "out_fifo_high_water",
                (lambda n: lambda: n.outgoing.high_water)(nic),
            )
            reg.gauge(
                p + "in_fifo_high_water",
                (lambda n: lambda: n.incoming.high_water)(nic),
            )

    def _reattach_after_restore(self) -> None:
        """Re-attach observers dropped by snapshotting (see repro.snapshot).

        Rebinds the backplane/NIC metric samples and then each node's
        (all on the one shared registry); see
        :meth:`Machine._reattach_after_restore` for the mechanism.
        """
        if self._metrics_bound:
            self._metrics_bound = False
            with self.obs.registry.rebinding():
                self._bind_metrics()
        for node in self.nodes:
            node._reattach_after_restore()

    def metrics(self) -> dict:
        """Whole-multicomputer counters: per node plus the backplane.

        A nested view over the shared registry, sampled at call time.
        """
        self._bind_metrics()
        for node in self.nodes:
            node._bind_metrics()
        return unflatten(self.obs.registry.snapshot())

    # ------------------------------------------------------------- access
    def node(self, index: int) -> Machine:
        """Node by index."""
        return self.nodes[index]

    def nic(self, index: int) -> ShrimpNic:
        """NIC by node index."""
        return self.nics[index]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # ----------------------------------------------------------- channels
    def create_channel(
        self,
        src_node: int,
        dst_node: int,
        dst_process: Process,
        dst_vaddr: int,
        nbytes: int,
        physical: Optional[bool] = None,
    ) -> Channel:
        """Wire a deliberate-update channel (the OS-level setup path).

        Exports the receive buffer on ``dst_node`` and installs NIPT
        entries on ``src_node``'s NIC.  After this returns, any process on
        ``src_node`` holding a grant for the NIC window pages can send
        with pure user-level UDMA.

        ``physical`` selects the tier: ``None`` (default) follows the
        cluster config -- virtual channels when the IOMMU tier is on,
        the paper's physical channels otherwise.  ``True`` forces the
        physical path even under the tier (automatic-update bindings
        need their fixed mappings); ``False`` demands the tier.
        """
        if src_node == dst_node:
            raise ConfigurationError("loopback channels are not supported")
        if physical is None:
            physical = self.nodes[dst_node].iommu is None
        page_size = self.costs.page_size
        npages = -(-nbytes // page_size)
        frames = export_receive_buffer(
            self.nodes[dst_node], dst_process, dst_vaddr, npages, physical=physical
        )
        base = self._alloc_nipt(src_node, npages)
        nic = self.nics[src_node]
        dst_asid = -1
        if physical:
            for i, frame in enumerate(frames):
                nic.nipt.set_entry(base + i, dst_node, frame)
        else:
            # Virtual entries: name the destination (asid, vpage); the
            # receiver's IOMMU resolves frames at delivery time.
            dst_asid = dst_process.asid
            base_vpage = dst_vaddr // page_size
            for i in range(npages):
                nic.nipt.set_entry(base + i, dst_node, base_vpage + i, dst_asid)
        return Channel(
            src_node=src_node,
            dst_node=dst_node,
            nipt_base=base,
            npages=npages,
            dst_vaddr=dst_vaddr,
            dst_frames=frames,
            page_size=page_size,
            dst_asid=dst_asid,
        )

    def bind_automatic_update(
        self,
        src_node: int,
        src_process: Process,
        src_vaddr: int,
        dst_node: int,
        dst_process: Process,
        dst_vaddr: int,
        nbytes: int,
    ) -> Channel:
        """Wire an *automatic update* binding (the earlier SHRIMP strategy).

        "Our current design retains the automatic update transfer strategy
        ... which still relies upon fixed mappings between source and
        destination pages" (section 9).  Every ordinary store the source
        process makes to the bound pages is snooped off the memory bus and
        propagated, word by word, to the fixed remote page -- no
        initiation sequence at all, but one packet per store.

        Both sides' pages are made resident and pinned for the lifetime of
        the binding (the mapping is fixed by definition).  Returns a
        :class:`Channel` describing the destination side.
        """
        if src_node == dst_node:
            raise ConfigurationError("loopback bindings are not supported")
        node = self.nodes[src_node]
        page_size = self.costs.page_size
        if src_vaddr % page_size:
            raise SyscallError("EINVAL", "automatic-update source must be page aligned")
        npages = -(-nbytes // page_size)
        # Automatic update relies on fixed source->destination mappings,
        # so its channel stays on the paper's physical, pinned path even
        # when the IOMMU tier is on.
        channel = self.create_channel(
            src_node, dst_node, dst_process, dst_vaddr, nbytes, physical=True
        )
        nic = self.nics[src_node]
        base_vpage = src_vaddr // page_size
        for i in range(npages):
            vpage = base_vpage + i
            if not src_process.owns_vpage(vpage):
                raise SyscallError("EFAULT", f"vpage {vpage:#x} not owned")
            frame = node.kernel.vm.touch_resident(src_process, vpage)
            node.kernel.frames.pin(frame)  # the fixed mapping must hold
            nic.bind_automatic(frame, channel.nipt_base + i)
        return channel

    def unbind_automatic_update(
        self, src_node: int, src_process: Process, src_vaddr: int, npages: int
    ) -> None:
        """Tear down an automatic-update binding (unpins the source pages)."""
        node = self.nodes[src_node]
        nic = self.nics[src_node]
        base_vpage = src_vaddr // self.costs.page_size
        for i in range(npages):
            frame = node.kernel.vm.resident_frame(src_process, base_vpage + i)
            if frame is not None:
                nic.unbind_automatic(frame)
                if node.kernel.frames.is_pinned(frame):
                    node.kernel.frames.unpin(frame)

    def release_channel(self, channel: Channel) -> None:
        """Tear down a deliberate-update channel (the tenant-churn path).

        Invalidates the sender-side NIPT entries, returns the index range
        to the allocator, and unpins the receiver frames the export
        pinned.  This is the OS-level unmap a multi-tenant node performs
        when a process exits -- or when the kernel evicts a mapping to
        make room under NIPT pressure (see :mod:`repro.traffic.tenants`).
        In-flight packets for a physical channel are unaffected: they
        already carry resolved physical addresses, exactly like the
        hardware.  A *virtual* channel's release additionally revokes
        the receiver-side IOMMU windows (no unpin -- the export never
        pinned), so an in-flight packet that arrives after the release
        is refused at translation time: revocation is enforced at
        delivery, a protection property the physical tier cannot offer.
        """
        nic = self.nics[channel.src_node]
        for i in range(channel.npages):
            nic.nipt.clear_entry(channel.nipt_base + i)
        self._free_nipt(channel.src_node, channel.nipt_base, channel.npages)
        node = self.nodes[channel.dst_node]
        if channel.virtual:
            assert node.iommu is not None
            base_vpage = channel.dst_vaddr // channel.page_size
            for i in range(channel.npages):
                node.iommu.unregister_window(channel.dst_asid, base_vpage + i)
            return
        for frame in channel.dst_frames:
            if node.kernel.frames.is_pinned(frame):
                node.kernel.frames.unpin(frame)

    def _alloc_nipt(self, node_index: int, npages: int) -> int:
        ranges = self._nipt_free[node_index]
        for i, (base, length) in enumerate(ranges):
            if length >= npages:
                if length == npages:
                    del ranges[i]
                else:
                    ranges[i] = (base + npages, length - npages)
                return base
        raise SyscallError("ENOSPC", "sender NIPT exhausted")

    def _free_nipt(self, node_index: int, base: int, npages: int) -> None:
        """Return a NIPT index range, coalescing with neighbours."""
        ranges = self._nipt_free[node_index]
        ranges.append((base, npages))
        ranges.sort()
        merged = [ranges[0]]
        for start, length in ranges[1:]:
            prev_start, prev_len = merged[-1]
            if prev_start + prev_len == start:
                merged[-1] = (prev_start, prev_len + length)
            else:
                merged.append((start, length))
        ranges[:] = merged

    # ----------------------------------------------------------- running
    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Drain all in-flight packets and DMA on every node.

        ``max_events`` bounds the drain (million-message traffic runs
        need head-room beyond the clock's default guard).
        """
        self.clock.run_until_idle(max_events=max_events)

    @property
    def now(self) -> int:
        """Current shared cycle time."""
        return self.clock.now
