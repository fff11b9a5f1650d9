"""The benchmark's workloads and the simulated fingerprint of one run.

Every workload drives the simulator through its public entry points
only: :func:`repro.traffic.run_scenario` for the traffic workloads and
:class:`repro.sharding.WorkerEngine` / :class:`repro.sharding.InProcessEngine`
for the sharded mesh.  A workload's inputs are a pure function of its
seed, so one seed always yields one fingerprint: the simulated fields
(cycles, events, deliveries, retries, churns, translation hits and
misses, and for the mesh the relay rounds and a digest of every node's
memory and log).  Host time never enters a fingerprint.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: every workload moves 512-byte messages
MSG_BYTES = 512


@dataclass(frozen=True)
class Workload:
    """One named set of inputs the benchmark runs."""

    name: str
    why: str
    kind: str  # "traffic" (run_scenario) or "mesh" (sharded engines)
    default_seed: int
    #: a seed not used while tuning the benchmark, recorded so a later
    #: claim can be checked on inputs nobody optimised for
    heldout_seed: int
    params: Dict[str, object]
    #: traffic: messages per repeat; mesh: messages per node per repeat
    messages: int
    shards: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="incast_saturated",
            why="64-to-1 incast at a 4000-cycle gap: the sink FIFO stays half "
            "full, so the traffic pump's credit retries and the clock dominate",
            kind="traffic",
            default_seed=7,
            heldout_seed=1007,
            params=dict(pattern="incast", num_nodes=64, tenants_per_node=1,
                        gap_cycles=4000),
            messages=10_000,
        ),
        Workload(
            name="all_to_all_fastlane",
            why="32-node all-to-all with no retries: cost sits in the pooled "
            "fast lane (NIC, DMA, send plans, pools, physmem), not the pump",
            kind="traffic",
            default_seed=7,
            heldout_seed=1007,
            params=dict(pattern="all_to_all", num_nodes=32, tenants_per_node=1,
                        gap_cycles=4000),
            # Each of the 992 channels takes about two slow-path sends
            # before its send plan sticks; ~50 sends per channel keep
            # that warm-up under 5% of the sends.
            messages=50_000,
        ),
        Workload(
            name="tenant_churn",
            why="16 nodes x 4 tenants with channel churn: every send switches "
            "context and misses the translation cache, so the slow path runs",
            kind="traffic",
            default_seed=11,
            heldout_seed=1011,
            params=dict(pattern="uniform", num_nodes=16, tenants_per_node=4,
                        degree=4, gap_cycles=8000, churn_every=200),
            messages=16_000,
        ),
        Workload(
            name="mesh64_2shard",
            why="64-node 8x8 ring-send mesh on the 2-worker sharded engine: "
            "the only workload that runs PDES rounds and the packet relay",
            kind="mesh",
            default_seed=0,
            heldout_seed=1000,
            params=dict(num_nodes=64, topology="mesh2d", msg_bytes=MSG_BYTES),
            messages=300,
            shards=2,
        ),
    )
}


@dataclass
class Repeat:
    """One run of a workload: host timings, deliveries and fingerprint."""

    attempted: int
    delivered: int
    host_seconds: float
    setup_seconds: float
    sim_cycles: int
    fingerprint: Dict[str, object]
    #: correctness problems found by the post-run checks (empty = ok)
    problems: List[str] = field(default_factory=list)

    @property
    def msg_per_s(self) -> float:
        return self.delivered / self.host_seconds


def run_workload(
    workload: Workload,
    seed: int,
    engine: str = "worker",
    on_engine: Optional[Callable[[object], None]] = None,
) -> Repeat:
    """Build and run one repeat of ``workload`` on ``seed``.

    ``engine`` selects the mesh engine (``"worker"`` or ``"in-process"``);
    traffic workloads ignore it.  ``on_engine`` is called with the
    engine object after the run, before the receive-buffer checks touch
    simulated state.
    """
    if workload.kind == "traffic":
        return _run_traffic(workload, seed, on_engine)
    return _run_mesh(workload, seed, engine, on_engine)


def _run_traffic(workload: Workload, seed: int, on_engine) -> Repeat:
    from repro.traffic import TrafficEngine, run_scenario
    from repro.userlib import Receiver

    engines: list = []
    original = TrafficEngine.run

    def capture(self, *args, **kwargs):
        engines.append(self)
        return original(self, *args, **kwargs)

    TrafficEngine.run = capture
    try:
        t0 = time.perf_counter()
        result = run_scenario(
            workload.name,
            messages=workload.messages,
            msg_bytes=MSG_BYTES,
            seed=seed,
            **workload.params,
        )
        wall = time.perf_counter() - t0
    finally:
        TrafficEngine.run = original
    engine = engines[0]
    cluster = engine.cluster
    cpus = [cluster.node(i).cpu for i in range(cluster.num_nodes)]
    fingerprint = {
        "sim_cycles": result.sim_cycles,
        "events": result.events,
        "delivered": result.delivered,
        "retries": result.retries,
        "churns": result.churns,
        "xlat_hits": sum(c.xlat_hits for c in cpus),
        "xlat_misses": sum(c.xlat_misses for c in cpus),
    }
    if on_engine is not None:
        on_engine(engine)
    problems = []
    if result.messages != workload.messages:
        problems.append(f"sent {result.messages} of {workload.messages}")
    if result.delivered != result.messages:
        problems.append(f"delivered {result.delivered} of {result.messages}")
    rx_errors = sum(cluster.nic(i).rx_errors for i in range(cluster.num_nodes))
    if rx_errors:
        problems.append(f"{rx_errors} receive errors")
    # Every channel's receive buffer must hold the payload its sender
    # filled: the data really crossed the simulated network.
    payload = engine.payload[:MSG_BYTES]
    placement = engine.placement
    bad = 0
    for (src, tenant, dst), channel in placement.channels.items():
        rx = placement.rx_process[(dst, tenant)]
        if Receiver(cluster, rx, channel).recv_bytes(MSG_BYTES) != payload:
            bad += 1
    if bad:
        problems.append(f"{bad} receive buffers do not hold the payload")
    return Repeat(
        attempted=workload.messages,
        delivered=result.delivered,
        host_seconds=result.host_seconds,
        setup_seconds=wall - result.host_seconds,
        sim_cycles=result.sim_cycles,
        fingerprint=fingerprint,
        problems=problems,
    )


def _run_mesh(workload: Workload, seed: int, engine_kind: str, on_engine) -> Repeat:
    from repro.sharding import ClusterSpec, InProcessEngine, WorkerEngine

    spec = ClusterSpec(
        seed=seed, messages_per_node=workload.messages, **workload.params
    )
    t0 = time.perf_counter()
    if engine_kind == "worker":
        engine = WorkerEngine(spec, workload.shards)
    elif engine_kind == "in-process":
        engine = InProcessEngine(spec, workload.shards)
    else:
        raise ValueError(f"unknown mesh engine {engine_kind!r}")
    result = engine.run()
    wall = time.perf_counter() - t0
    delivered = sum(
        v for k, v in result.counters.items()
        if k.startswith("nic") and k.endswith(".rx")
    )
    state = hashlib.blake2b(digest_size=16)
    for key in sorted(result.digests):
        state.update(f"{key}={result.digests[key]}\n".encode())
    state.update("\n".join(result.logs).encode())
    fingerprint = {
        "sim_cycles": result.now,
        "events": result.events_fired,
        "delivered": delivered,
        "retries": result.retries,
        "xlat_hits": result.xlat_hits,
        "xlat_misses": result.xlat_misses,
        "state_digest": state.hexdigest(),
    }
    if engine_kind == "worker":
        # Relay rounds describe the worker execution, which the
        # in-process reference does not share.
        fingerprint["rounds"] = result.rounds
    if on_engine is not None:
        on_engine(engine)
    attempted = spec.num_nodes * spec.messages_per_node
    problems = []
    if result.sent != attempted:
        problems.append(f"sent {result.sent} of {attempted}")
    if delivered != result.sent:
        problems.append(f"delivered {delivered} of {result.sent}")
    rx_errors = sum(
        v for k, v in result.counters.items() if k.endswith(".rx_err")
    )
    if rx_errors:
        problems.append(f"{rx_errors} receive errors")
    return Repeat(
        attempted=attempted,
        delivered=delivered,
        host_seconds=engine.timed_seconds,
        setup_seconds=wall - engine.timed_seconds,
        sim_cycles=result.now,
        fingerprint=fingerprint,
        problems=problems,
    )


def sim_fields(fingerprint: Dict[str, object]) -> Dict[str, object]:
    """The fingerprint without execution-only fields (relay rounds)."""
    return {k: v for k, v in fingerprint.items() if k != "rounds"}
