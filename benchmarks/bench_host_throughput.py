"""Host-throughput benchmarks: how fast the *simulator itself* runs.

Every other bench in this directory measures **simulated** time (cycles on
the modelled 60 MHz node).  This module measures **host** time: simulated
bytes moved per wall-clock second of the Python process, and clock events
fired per second.  It is the instrument behind ``run_bench.py`` and the
committed ``BENCH_core.json`` trajectory file that future PRs regress
against (see ``docs/PERFORMANCE.md``).

Four scenarios cover the hot paths the zero-copy data plane and the
translation fast path optimise:

* ``udma_send`` -- the single-node UDMA send path (initiate, DMA fill,
  completion polling) into a sink device;
* ``cluster_pingpong`` -- the 2-node deliberate-update round trip: UDMA
  fill, packetise, wire, route, receive-DMA into remote physical memory;
* ``stepping_dma`` -- the word-stepping engine, where per-burst events
  dominate and event-queue overhead is the bottleneck;
* ``translate_storm`` -- a multi-page working set hammered with word
  loads and page-run buffer I/O, with periodic context switches to force
  translation-cache refills (the CPU's software-TLB worst case).

CPU-bound scenarios also report the translation fast path's hit rate
(``xlat%``), so a change that silently degrades the cache shows up even
when raw MB/s noise hides it.

The scenarios hold *simulated* behaviour fixed (same cycle counts before
and after any host-side optimisation) so MB/s numbers are comparable
across commits.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import (
    ClusterConfig,
    Machine,
    MachineConfig,
    ObsConfig,
    ShrimpCluster,
)
from repro.bench.workloads import make_payload
from repro.devices import SinkDevice
from repro.dma.engine import DmaEngine, MemoryEndpoint
from repro.snapshot import fork as snapshot_fork
from repro.userlib import DeviceRef, MemoryRef, Sender, UdmaUser


@dataclass
class HostResult:
    """One scenario's host-side throughput measurement."""

    scenario: str
    sim_bytes: int
    sim_cycles: int
    messages: int
    host_seconds: float
    events_fired: int
    xlat_hits: int = 0
    xlat_misses: int = 0

    @property
    def mb_per_s(self) -> float:
        """Simulated payload bytes moved per host second, in MB/s."""
        return self.sim_bytes / self.host_seconds / 1e6 if self.host_seconds else 0.0

    @property
    def events_per_s(self) -> float:
        """Clock events fired per host second."""
        return self.events_fired / self.host_seconds if self.host_seconds else 0.0

    @property
    def messages_per_s(self) -> float:
        return self.messages / self.host_seconds if self.host_seconds else 0.0

    @property
    def xlat_hit_rate(self) -> float:
        """Translation fast-path hit rate over the timed window (0..1)."""
        total = self.xlat_hits + self.xlat_misses
        return self.xlat_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "sim_bytes": self.sim_bytes,
            "sim_cycles": self.sim_cycles,
            "messages": self.messages,
            "host_seconds": round(self.host_seconds, 6),
            "events_fired": self.events_fired,
            "mb_per_s": round(self.mb_per_s, 3),
            "events_per_s": round(self.events_per_s, 1),
            "messages_per_s": round(self.messages_per_s, 1),
            "xlat_hits": self.xlat_hits,
            "xlat_misses": self.xlat_misses,
            "xlat_hit_rate": round(self.xlat_hit_rate, 4),
        }


def _events_fired(clock) -> int:
    """Events fired so far (0 on clocks without the counter)."""
    return getattr(clock, "events_fired", 0)


def _xlat_counters(*cpus) -> "tuple[int, int]":
    """Summed (hits, misses) of the CPUs' translation fast path.

    Zero on trees whose CPU predates the cache, so the harness stays
    runnable for before/after comparison.
    """
    hits = sum(getattr(cpu, "xlat_hits", 0) for cpu in cpus)
    misses = sum(getattr(cpu, "xlat_misses", 0) for cpu in cpus)
    return hits, misses


# ------------------------------------------------- warm-start templates
@dataclass
class _WarmContext:
    """A fully-constructed scenario world, ready for its timed loop.

    ``root`` is the object whose ``_reattach_after_restore`` hook rebinds
    sampled metrics after a fork; ``handles`` carries the scenario's
    working references (processes, buffers, senders, engines) so a fork
    of the context keeps them pointing into the forked world, never back
    at the template.
    """

    root: object
    handles: Dict[str, object] = field(default_factory=dict)

    def _reattach_after_restore(self) -> None:
        hook = getattr(self.root, "_reattach_after_restore", None)
        if hook is not None:
            hook()


#: (scenario, setup-kwargs) -> template context; populated on first use
#: under --warm-start, then only ever forked -- never mutated.
_TEMPLATE_CACHE: Dict[tuple, _WarmContext] = {}


def _warm(
    scenario: str,
    key: tuple,
    build: Callable[[], _WarmContext],
    warm_start: bool,
) -> _WarmContext:
    """Build a scenario world, via the fork template cache when asked.

    With ``warm_start`` the first call per (scenario, key) pays full
    construction; every later call gets ``repro.snapshot.fork`` of the
    cached template instead of rebuilding machines from scratch.
    Restore-equivalence (``tests/snapshot/``) guarantees the fork's timed
    loop is simulated bit-identically to a freshly built world's, so
    warm-started MB/s numbers gate against the same baselines.
    """
    if not warm_start:
        return build()
    cache_key = (scenario,) + key
    template = _TEMPLATE_CACHE.get(cache_key)
    if template is None:
        template = build()
        _TEMPLATE_CACHE[cache_key] = template
    return snapshot_fork(template)


# ------------------------------------------------------------- scenarios
def _udma_send_setup(msg_bytes: int, obs: Optional[ObsConfig]) -> _WarmContext:
    machine = Machine(config=MachineConfig(mem_size=1 << 21, obs=obs))
    sink = SinkDevice("sink", size=1 << 16)
    machine.attach_device(sink)
    process = machine.create_process("bench")
    buf = machine.kernel.syscalls.alloc(process, msg_bytes)
    grant = machine.kernel.syscalls.grant_device_proxy(process, "sink")
    udma = UdmaUser(machine, process)
    machine.cpu.write_bytes(buf, make_payload(msg_bytes))
    machine.run_until_idle()
    return _WarmContext(
        root=machine, handles={"udma": udma, "buf": buf, "grant": grant}
    )


def bench_udma_send(
    messages: int = 400,
    msg_bytes: int = 4096,
    obs: Optional[ObsConfig] = None,
    warm_start: bool = False,
) -> HostResult:
    """Single-node UDMA sends of ``msg_bytes`` into a sink device.

    The send buffer is filled once outside the timed window; the loop is
    pure UDMA initiation + DMA + completion polling -- the critical path
    of the paper's section 8.  ``obs`` selects the observability plane
    configuration, so the same scenario doubles as the obs-overhead A/B
    instrument (see :func:`run_obs_overhead`).  ``warm_start`` forks the
    constructed machine from a template instead of rebuilding it.
    """
    ctx = _warm(
        "udma_send",
        (msg_bytes, repr(obs)),
        lambda: _udma_send_setup(msg_bytes, obs),
        warm_start,
    )
    return _udma_send_loop(ctx, messages, msg_bytes)


def _udma_send_loop(ctx: _WarmContext, messages: int, msg_bytes: int) -> HostResult:
    """Time ``messages`` sends on a built ``udma_send`` world."""
    machine = ctx.root
    udma = ctx.handles["udma"]
    buf = ctx.handles["buf"]
    grant = ctx.handles["grant"]

    start_cycles = machine.now
    start_events = _events_fired(machine.clock)
    hits0, misses0 = _xlat_counters(machine.cpu)
    t0 = time.perf_counter()
    for _ in range(messages):
        udma.transfer(MemoryRef(buf), DeviceRef(grant), msg_bytes)
        machine.run_until_idle()
    elapsed = time.perf_counter() - t0
    hits1, misses1 = _xlat_counters(machine.cpu)
    return HostResult(
        scenario="udma_send",
        sim_bytes=messages * msg_bytes,
        sim_cycles=machine.now - start_cycles,
        messages=messages,
        host_seconds=elapsed,
        events_fired=_events_fired(machine.clock) - start_events,
        xlat_hits=hits1 - hits0,
        xlat_misses=misses1 - misses0,
    )


def _cluster_pingpong_setup(
    msg_bytes: int, obs: Optional[ObsConfig]
) -> _WarmContext:
    cluster = ShrimpCluster(
                  config=ClusterConfig(num_nodes=2, mem_size=1 << 21, obs=obs),
              )
    procs = [cluster.node(i).create_process(f"p{i}") for i in range(2)]
    bufs = [
        cluster.node(i).kernel.syscalls.alloc(procs[i], msg_bytes)
        for i in range(2)
    ]
    ch01 = cluster.create_channel(0, 1, procs[1], bufs[1], msg_bytes)
    ch10 = cluster.create_channel(1, 0, procs[0], bufs[0], msg_bytes)
    senders = [
        Sender(cluster, procs[0], ch01),
        Sender(cluster, procs[1], ch10),
    ]
    for sender in senders:
        sender._ensure_current()
        sender.machine.cpu.write_bytes(sender.buffer, make_payload(msg_bytes))
    cluster.run_until_idle()
    return _WarmContext(root=cluster, handles={"senders": senders})


def bench_cluster_pingpong(
    rounds: int = 200,
    msg_bytes: int = 4096,
    obs: Optional[ObsConfig] = None,
    warm_start: bool = False,
) -> HostResult:
    """2-node deliberate-update ping-pong over the routing backplane.

    Each round is one message node0 -> node1 and one message back, each
    drained to remote-memory delivery (the full Figure 6 pipeline).  The
    payload buffers are filled once outside the timed window.
    """
    ctx = _warm(
        "cluster_pingpong",
        (msg_bytes, repr(obs)),
        lambda: _cluster_pingpong_setup(msg_bytes, obs),
        warm_start,
    )
    cluster = ctx.root
    senders = ctx.handles["senders"]

    cpus = [cluster.node(i).cpu for i in range(2)]
    start_cycles = cluster.now
    start_events = _events_fired(cluster.clock)
    hits0, misses0 = _xlat_counters(*cpus)
    t0 = time.perf_counter()
    for _ in range(rounds):
        senders[0].send_buffer(msg_bytes)
        cluster.run_until_idle()
        senders[1].send_buffer(msg_bytes)
        cluster.run_until_idle()
    elapsed = time.perf_counter() - t0
    hits1, misses1 = _xlat_counters(*cpus)
    return HostResult(
        scenario="cluster_pingpong",
        sim_bytes=2 * rounds * msg_bytes,
        sim_cycles=cluster.now - start_cycles,
        messages=2 * rounds,
        host_seconds=elapsed,
        events_fired=_events_fired(cluster.clock) - start_events,
        xlat_hits=hits1 - hits0,
        xlat_misses=misses1 - misses0,
    )


def _stepping_dma_setup(
    nbytes: int, burst_bytes: int, bursts_per_event: int
) -> _WarmContext:
    machine = Machine(config=MachineConfig(mem_size=1 << 21))
    clock = machine.clock
    try:
        engine = DmaEngine(
            clock,
            machine.costs,
            name="bench-step",
            burst_bytes=burst_bytes,
            bursts_per_event=bursts_per_event,
        )
    except TypeError:  # pre-chunking engine: one event per burst
        engine = DmaEngine(
            clock, machine.costs, name="bench-step", burst_bytes=burst_bytes
        )
    machine.physmem.write(0, make_payload(nbytes))
    return _WarmContext(root=machine, handles={"engine": engine})


def bench_stepping_dma(
    transfers: int = 40,
    nbytes: int = 1 << 16,
    burst_bytes: int = 64,
    bursts_per_event: int = 8,
    warm_start: bool = False,
) -> HostResult:
    """Word-stepping memory-to-memory DMA, where events are the cost.

    ``bursts_per_event`` batches burst events on engines that support
    chunked stepping; older engines fall back to one event per burst, so
    the scenario stays runnable for before/after comparison.
    """
    ctx = _warm(
        "stepping_dma",
        (nbytes, burst_bytes, bursts_per_event),
        lambda: _stepping_dma_setup(nbytes, burst_bytes, bursts_per_event),
        warm_start,
    )
    machine = ctx.root
    engine = ctx.handles["engine"]
    clock = machine.clock
    physmem = machine.physmem
    src_paddr, dst_paddr = 0, nbytes

    start_cycles = clock.now
    start_events = _events_fired(clock)
    t0 = time.perf_counter()
    for _ in range(transfers):
        engine.start(
            MemoryEndpoint(physmem, src_paddr),
            MemoryEndpoint(physmem, dst_paddr),
            nbytes,
        )
        clock.run_until_idle()
    elapsed = time.perf_counter() - t0
    assert physmem.read(dst_paddr, nbytes) == physmem.read(src_paddr, nbytes)
    return HostResult(
        scenario="stepping_dma",
        sim_bytes=transfers * nbytes,
        sim_cycles=clock.now - start_cycles,
        messages=transfers,
        host_seconds=elapsed,
        events_fired=_events_fired(clock) - start_events,
    )


def _translate_storm_setup(pages: int) -> _WarmContext:
    machine = Machine(config=MachineConfig(mem_size=1 << 22))
    nbytes = pages * machine.costs.page_size
    storm = machine.create_process("storm")
    other = machine.create_process("other")
    machine.kernel.scheduler.switch_to(storm)
    buf = machine.kernel.syscalls.alloc(storm, nbytes)
    machine.cpu.write_bytes(buf, make_payload(nbytes))
    machine.run_until_idle()
    return _WarmContext(
        root=machine, handles={"storm": storm, "other": other, "buf": buf}
    )


def bench_translate_storm(
    iterations: int = 120, pages: int = 64, warm_start: bool = False
) -> HostResult:
    """Translation-heavy CPU work: the software-TLB's stress case.

    Each iteration walks a ``pages``-page working set with one word LOAD
    per page (pure translation traffic), then streams the whole buffer
    through ``read_into`` and ``write_bytes`` (one translation per page
    run).  Every eighth iteration context-switches away and back, which
    bumps the TLB generation and forces the CPU's translation cache to
    re-validate via full MMU walks -- so the measured hit rate reflects
    shootdown-correct caching, not an unrealistic 100%.
    """
    ctx = _warm(
        "translate_storm",
        (pages,),
        lambda: _translate_storm_setup(pages),
        warm_start,
    )
    machine = ctx.root
    storm, other, buf = (
        ctx.handles["storm"], ctx.handles["other"], ctx.handles["buf"]
    )
    page_size = machine.costs.page_size
    nbytes = pages * page_size
    scheduler = machine.kernel.scheduler
    cpu = machine.cpu

    scratch = bytearray(nbytes)
    start_cycles = machine.now
    start_events = _events_fired(machine.clock)
    start_instructions = cpu.instructions
    hits0, misses0 = _xlat_counters(cpu)
    t0 = time.perf_counter()
    for i in range(iterations):
        for offset in range(0, nbytes, page_size):
            cpu.load(buf + offset)
        cpu.read_into(buf, scratch)
        cpu.write_bytes(buf, scratch)
        if i % 8 == 7:
            scheduler.switch_to(other)
            scheduler.switch_to(storm)
    elapsed = time.perf_counter() - t0
    hits1, misses1 = _xlat_counters(cpu)
    return HostResult(
        scenario="translate_storm",
        sim_bytes=iterations * 2 * nbytes,
        sim_cycles=machine.now - start_cycles,
        messages=iterations,
        host_seconds=elapsed,
        # Pure CPU work never schedules a clock event, so the event
        # column would read 0; the simulator's unit of work here is the
        # retired instruction, and that is what events/s must reflect.
        events_fired=(
            _events_fired(machine.clock) - start_events
            + cpu.instructions - start_instructions
        ),
        xlat_hits=hits1 - hits0,
        xlat_misses=misses1 - misses0,
    )


def bench_cluster_mesh_64(messages: int = 16, shards: int = 1) -> HostResult:
    """A 64-node 8x8 mesh of self-driving senders on the sharded kernel.

    Every node streams ``messages`` deliberate-update sends around the
    node ring under the conservative-PDES engine (``repro.sharding``).
    Construction of the 64 machines happens *outside* the timed window;
    what is measured is pure event execution -- the metric that the
    shard-scaling sweep (``run_bench.py --shards N``) must scale.
    """
    from repro.sharding import ClusterSpec, InProcessEngine

    spec = ClusterSpec(num_nodes=64, messages_per_node=messages)
    engine = InProcessEngine(spec, num_shards=shards)
    t0 = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - t0
    return HostResult(
        scenario="cluster_mesh_64",
        sim_bytes=result.sent * spec.msg_bytes,
        sim_cycles=result.now,
        messages=result.sent,
        host_seconds=elapsed,
        events_fired=result.events_fired,
        xlat_hits=result.xlat_hits,
        xlat_misses=result.xlat_misses,
    )


def bench_cluster_mesh_worker(messages: int = 16, shards: int = 1) -> HostResult:
    """The same 64-node mesh on the multi-process worker engine.

    The timed window starts when every worker has built its shard and
    ends when the relay drains (``WorkerEngine.timed_seconds``), so the
    scaling sweep compares execution, not process spawning.  Not in
    :data:`SCENARIOS` -- worker timings depend on the host's core count,
    so they must not gate the regression check.
    """
    from repro.sharding import ClusterSpec, WorkerEngine

    spec = ClusterSpec(num_nodes=64, messages_per_node=messages)
    engine = WorkerEngine(spec, num_shards=shards)
    result = engine.run()
    assert engine.timed_seconds is not None
    return HostResult(
        scenario=f"cluster_mesh_64@{shards}shard",
        sim_bytes=result.sent * spec.msg_bytes,
        sim_cycles=result.now,
        messages=result.sent,
        host_seconds=engine.timed_seconds,
        events_fired=result.events_fired,
        xlat_hits=result.xlat_hits,
        xlat_misses=result.xlat_misses,
    )


def run_scaling_sweep(
    max_shards: int = 8, quick: bool = False, repeats: int = 3
) -> "Dict[int, HostResult]":
    """Worker-engine events/s at 1/2/4/.../``max_shards`` shards.

    Single-schedule, best-of-N per point; every point simulates the
    identical workload (the determinism contract), so events/s is
    directly comparable across shard counts.
    """
    messages = 4 if quick else 16
    counts = [c for c in (1, 2, 4, 8, 16) if c <= max_shards]
    if max_shards not in counts:
        counts.append(max_shards)
    results: "Dict[int, HostResult]" = {}
    for shards in counts:
        best: Optional[HostResult] = None
        for _ in range(max(1, repeats)):
            result = bench_cluster_mesh_worker(
                messages=messages, shards=shards
            )
            if best is None or result.host_seconds < best.host_seconds:
                best = result
        assert best is not None
        results[shards] = best
    return results


def format_scaling(results: "Dict[int, HostResult]") -> str:
    """The scaling table appended to the bench report."""
    lines = [
        "shard scaling (cluster_mesh_64, worker engine):",
        f"{'shards':>7} {'events/s':>12} {'host s':>9} {'speedup':>8}",
    ]
    base = results.get(1)
    for shards in sorted(results):
        r = results[shards]
        speedup = (
            r.events_per_s / base.events_per_s
            if base is not None and base.events_per_s
            else 0.0
        )
        lines.append(
            f"{shards:>7} {r.events_per_s:>12.0f} "
            f"{r.host_seconds:>9.3f} {speedup:>7.2f}x"
        )
    return "\n".join(lines)


def bench_reliable_pingpong(
    rounds: int = 100,
    msg_bytes: int = 4096,
    reliability: bool = False,
    drop_every: int = 0,
) -> HostResult:
    """Ping-pong with the ack/retransmit transport in the loop.

    Deliberately NOT registered in :data:`SCENARIOS`: the transport is an
    opt-in feature, so it must not perturb the ``BENCH_core.json``
    regression gate.  Run via ``run_bench.py --reliability-overhead``.

    ``drop_every`` > 0 installs a deterministic counting injector that
    drops every Nth routed packet (data and ACKs alike -- both must
    heal), forcing the full encode/decode wire path plus retransmission
    timeouts.  ``drop_every=100`` is the "1% loss" point.
    """
    cluster = ShrimpCluster(
                  config=ClusterConfig(
                      num_nodes=2,
                      mem_size=1 << 21,
                      reliability=reliability,
                  ),
              )
    if drop_every > 0:
        routed = {"n": 0}

        def drop_nth(wire):
            routed["n"] += 1
            return None if routed["n"] % drop_every == 0 else wire

        cluster.interconnect.fault_injector = drop_nth
    procs = [cluster.node(i).create_process(f"p{i}") for i in range(2)]
    bufs = [
        cluster.node(i).kernel.syscalls.alloc(procs[i], msg_bytes)
        for i in range(2)
    ]
    ch01 = cluster.create_channel(0, 1, procs[1], bufs[1], msg_bytes)
    ch10 = cluster.create_channel(1, 0, procs[0], bufs[0], msg_bytes)
    senders = [
        Sender(cluster, procs[0], ch01),
        Sender(cluster, procs[1], ch10),
    ]
    for sender in senders:
        sender._ensure_current()
        sender.machine.cpu.write_bytes(sender.buffer, make_payload(msg_bytes))
    cluster.run_until_idle()

    start_cycles = cluster.now
    start_events = _events_fired(cluster.clock)
    t0 = time.perf_counter()
    for _ in range(rounds):
        senders[0].send_buffer(msg_bytes)
        cluster.run_until_idle()
        senders[1].send_buffer(msg_bytes)
        cluster.run_until_idle()
    elapsed = time.perf_counter() - t0
    label = "reliable_pingpong" if reliability else "pingpong_unreliable"
    if drop_every:
        label += f"_loss{100 // drop_every}pct"
    return HostResult(
        scenario=label,
        sim_bytes=2 * rounds * msg_bytes,
        sim_cycles=cluster.now - start_cycles,
        messages=2 * rounds,
        host_seconds=elapsed,
        events_fired=_events_fired(cluster.clock) - start_events,
    )


# --------------------------------------------------------------- running
#: scenario name -> (full kwargs, quick kwargs)
SCENARIOS: Dict[str, "ScenarioSpec"] = {}


@dataclass
class ScenarioSpec:
    name: str
    fn: Callable[..., HostResult]
    full: Dict[str, int] = field(default_factory=dict)
    quick: Dict[str, int] = field(default_factory=dict)
    #: supports warm_start= (fork-based template cache); the sharded mesh
    #: builds its worlds inside the engine, so it stays cold
    warm: bool = True


def _register(name, fn, full, quick, warm=True):
    SCENARIOS[name] = ScenarioSpec(name, fn, full, quick, warm)


# Quick workloads stay CI-cheap (< ~100 ms total) but are sized so each
# timed region is ~10 ms+ -- shorter regions make MB/s too noisy for the
# --check regression gate.
_register("udma_send", bench_udma_send,
          {"messages": 400}, {"messages": 200})
_register("cluster_pingpong", bench_cluster_pingpong,
          {"rounds": 200}, {"rounds": 100})
_register("stepping_dma", bench_stepping_dma,
          {"transfers": 40}, {"transfers": 15})
_register("translate_storm", bench_translate_storm,
          {"iterations": 120}, {"iterations": 40})
_register("cluster_mesh_64", bench_cluster_mesh_64,
          {"messages": 16}, {"messages": 4}, warm=False)


def run_all(
    quick: bool = False, repeats: int = 3, warm_start: bool = False
) -> Dict[str, HostResult]:
    """Run every scenario ``repeats`` times; keep the fastest host time.

    Best-of-N damps scheduler noise; simulated results are identical
    across repeats (the simulator is deterministic).  ``warm_start``
    builds each scenario's world once and forks it per repeat
    (``repro.snapshot.fork``), cutting sweep wall-clock without changing
    any simulated number -- restore-equivalence makes the forked repeats
    bit-identical to cold ones.
    """
    results: Dict[str, HostResult] = {}
    for spec in SCENARIOS.values():
        kwargs = dict(spec.quick if quick else spec.full)
        if warm_start and spec.warm:
            kwargs["warm_start"] = True
        best: Optional[HostResult] = None
        for _ in range(max(1, repeats)):
            result = spec.fn(**kwargs)
            if best is None or result.host_seconds < best.host_seconds:
                best = result
        assert best is not None
        results[spec.name] = best
    return results


# ------------------------------------------------- observability overhead
#: obs-overhead A/B modes: label -> ObsConfig handed to the scenario.
#: ``baseline`` disables the whole plane, ``metrics`` is the library
#: default (registry bound, spans off), ``spans`` turns everything on.
OBS_MODES: Dict[str, Optional[ObsConfig]] = {
    "baseline": ObsConfig(metrics=False, spans=False),
    "metrics": None,
    "spans": ObsConfig(metrics=True, spans=True),
}


#: every obs-overhead timed window lasts at least this long, even under
#: ``--quick``: 8 ms windows swing by several percent between runs of one
#: commit, more than the 2% the gate has to resolve
OBS_WINDOW_SECONDS = 0.1

#: fewest interleaved rounds the obs-overhead gate takes a median over
OBS_MIN_ROUNDS = 7

#: host time of one slice of a round; the modes take turns slice by
#: slice, so host-speed drift slower than this hits them all alike
OBS_SLICE_SECONDS = 0.002


@dataclass
class ObsOverhead:
    """Interleaved obs-overhead runs: ``runs[mode][i]`` is round ``i``."""

    runs: Dict[str, List[HostResult]]

    def ratios(self, mode: str) -> List[float]:
        """Per-round host MB/s of ``mode`` over the same round's baseline."""
        return [
            r.mb_per_s / b.mb_per_s
            for b, r in zip(self.runs["baseline"], self.runs[mode])
        ]

    def median_ratio(self, mode: str) -> float:
        return statistics.median(self.ratios(mode))

    def as_dict(self) -> dict:
        return {
            "rounds": len(self.runs["baseline"]),
            "median_ratio": {
                mode: round(self.median_ratio(mode), 4)
                for mode in self.runs if mode != "baseline"
            },
            "runs": {
                mode: [r.as_dict() for r in results]
                for mode, results in self.runs.items()
            },
        }


def run_obs_overhead(
    quick: bool = False, repeats: int = OBS_MIN_ROUNDS
) -> ObsOverhead:
    """A/B the observability plane's host cost on the ``udma_send`` path.

    Runs ``max(repeats, OBS_MIN_ROUNDS)`` rounds, each on freshly built
    machines.  In a round, ``baseline`` and ``metrics`` -- the gated pair
    -- take turns in slices of about :data:`OBS_SLICE_SECONDS` (sized by
    a calibration run), in an order that flips every slice, until each
    one's summed timed window reaches :data:`OBS_WINDOW_SECONDS`; so
    host-speed drift and run-order effects hit both alike, and the gate
    judges the median of the per-round metrics/baseline ratios.  Every
    other mode (``spans``) then runs the same message count in one
    window, after the pair, so its garbage never lands in theirs.  The
    metrics registry samples live counters only at snapshot time and the
    span tracker is never constructed when disabled, so ``metrics`` is
    expected to land within noise of ``baseline`` (CI gates it at 2%).
    """
    kwargs = SCENARIOS["udma_send"].quick if quick else SCENARIOS["udma_send"].full
    msg_bytes = 4096
    probe = bench_udma_send(obs=OBS_MODES["baseline"], **kwargs)
    slice_messages = max(
        1, round(OBS_SLICE_SECONDS * probe.messages / probe.host_seconds)
    )
    pair = ("baseline", "metrics")
    runs: Dict[str, List[HostResult]] = {mode: [] for mode in OBS_MODES}
    for _ in range(max(repeats, OBS_MIN_ROUNDS)):
        gc.collect()
        worlds = {
            mode: _udma_send_setup(msg_bytes, OBS_MODES[mode]) for mode in pair
        }
        parts: Dict[str, List[HostResult]] = {mode: [] for mode in pair}
        timed = dict.fromkeys(pair, 0.0)
        while min(timed.values()) < OBS_WINDOW_SECONDS:
            order = pair if len(parts["baseline"]) % 2 == 0 else reversed(pair)
            for mode in order:
                part = _udma_send_loop(worlds[mode], slice_messages, msg_bytes)
                parts[mode].append(part)
                timed[mode] += part.host_seconds
        for mode in pair:
            runs[mode].append(_merge(parts[mode]))
        del worlds
        messages = runs["baseline"][-1].messages
        for mode, config in OBS_MODES.items():
            if mode not in pair:
                runs[mode].append(
                    bench_udma_send(messages=messages, msg_bytes=msg_bytes, obs=config)
                )
    return ObsOverhead(runs)


def _merge(parts: List[HostResult]) -> HostResult:
    """One HostResult for consecutive slices of one scenario."""
    return HostResult(
        scenario=parts[0].scenario,
        sim_bytes=sum(p.sim_bytes for p in parts),
        sim_cycles=sum(p.sim_cycles for p in parts),
        messages=sum(p.messages for p in parts),
        host_seconds=sum(p.host_seconds for p in parts),
        events_fired=sum(p.events_fired for p in parts),
        xlat_hits=sum(p.xlat_hits for p in parts),
        xlat_misses=sum(p.xlat_misses for p in parts),
    )


# ------------------------------------------------- reliability overhead
#: reliability A/B modes: label -> bench_reliable_pingpong kwargs.
#: ``off`` is today's default (paper-faithful, lossless backplane);
#: ``on-0%`` prices sequencing + cumulative ACK traffic alone;
#: ``on-1%`` adds one dropped packet per hundred routed, so timeouts,
#: backoff, and retransmissions are in the measured loop.
RELIABILITY_MODES: Dict[str, Dict[str, int]] = {
    "off": {"reliability": False, "drop_every": 0},
    "on-0%": {"reliability": True, "drop_every": 0},
    "on-1%": {"reliability": True, "drop_every": 100},
}


def run_reliability_overhead(
    quick: bool = False, repeats: int = 3
) -> Dict[str, HostResult]:
    """A/B the reliable transport's host cost on the ping-pong path.

    Interleaves the modes within each repeat (like
    :func:`run_obs_overhead`) and keeps the fastest run per mode.  The
    ``off`` mode is the reference: it must match plain
    ``cluster_pingpong`` behaviour, since a disabled transport is a
    single ``is None`` branch per packet.
    """
    rounds = 50 if quick else 100
    best: Dict[str, HostResult] = {}
    for _ in range(max(1, repeats)):
        for mode, kwargs in RELIABILITY_MODES.items():
            result = bench_reliable_pingpong(rounds=rounds, **kwargs)
            if mode not in best or result.host_seconds < best[mode].host_seconds:
                best[mode] = result
    return best


def format_reliability_overhead(results: Dict[str, HostResult]) -> str:
    base = results.get("off")
    lines = [
        f"{'reliability':<12} {'MB/s (host)':>12} {'sim cycles':>12} "
        f"{'host s':>8} {'vs off':>10}"
    ]
    for mode, r in results.items():
        if base is not None and base.mb_per_s and mode != "off":
            delta = f"{100.0 * (r.mb_per_s / base.mb_per_s - 1.0):>+9.1f}%"
        else:
            delta = f"{'-':>10}"
        lines.append(
            f"{mode:<12} {r.mb_per_s:>12.2f} {r.sim_cycles:>12} "
            f"{r.host_seconds:>8.3f} {delta}"
        )
    return "\n".join(lines)


def transfer_latency_profile(
    messages: int = 50, msg_bytes: int = 4096
) -> Dict[str, float]:
    """Per-transfer latency histogram from a small metered workload.

    Returns the ``udma.transfer_cycles`` histogram value dict
    (count/sum/min/max/p50/p99, in simulated cycles) after ``messages``
    sends -- the number ``docs/PERFORMANCE.md`` quotes.
    """
    machine = Machine(config=MachineConfig(mem_size=1 << 21))
    sink = SinkDevice("sink", size=1 << 16)
    machine.attach_device(sink)
    process = machine.create_process("latency")
    buf = machine.kernel.syscalls.alloc(process, msg_bytes)
    grant = machine.kernel.syscalls.grant_device_proxy(process, "sink")
    udma = UdmaUser(machine, process)
    machine.cpu.write_bytes(buf, make_payload(msg_bytes))
    machine.run_until_idle()
    for _ in range(messages):
        udma.transfer(MemoryRef(buf), DeviceRef(grant), msg_bytes)
        machine.run_until_idle()
    return machine.metrics()["udma"]["transfer_cycles"]


def format_obs_overhead(result: ObsOverhead) -> str:
    rounds = len(result.runs["baseline"])
    lines = [
        f"{'obs mode':<10} {'MB/s (host)':>12} {'window s':>9} "
        f"{'vs baseline':>12} {'ratio range':>16}   (medians of {rounds} "
        f"interleaved rounds)"
    ]
    for mode, runs in result.runs.items():
        mb_per_s = statistics.median(r.mb_per_s for r in runs)
        window = statistics.median(r.host_seconds for r in runs)
        if mode == "baseline":
            delta, spread = f"{'-':>12}", f"{'-':>16}"
        else:
            ratios = result.ratios(mode)
            delta = f"{100.0 * (result.median_ratio(mode) - 1.0):>+11.1f}%"
            spread = f"{min(ratios):>7.3f}..{max(ratios):<7.3f}"
        lines.append(
            f"{mode:<10} {mb_per_s:>12.2f} {window:>9.3f} {delta} {spread:>16}"
        )
    return "\n".join(lines)


def format_results(results: Dict[str, HostResult]) -> str:
    lines = [
        f"{'scenario':<18} {'MB/s (host)':>12} {'events/s':>12} "
        f"{'msgs/s':>10} {'host s':>8} {'xlat%':>7}"
    ]
    for name, r in results.items():
        if r.xlat_hits or r.xlat_misses:
            xlat = f"{100.0 * r.xlat_hit_rate:>6.1f}%"
        else:
            xlat = f"{'-':>7}"  # scenario exercises no CPU translation
        lines.append(
            f"{name:<18} {r.mb_per_s:>12.2f} {r.events_per_s:>12.0f} "
            f"{r.messages_per_s:>10.1f} {r.host_seconds:>8.3f} {xlat}"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual use; run_bench.py is the CLI
    print(format_results(run_all(quick=True, repeats=1)))
