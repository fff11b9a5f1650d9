"""The six chaos oracles, as twin specs over :mod:`repro.chaos.twin`.

Each ``*_twin`` function returns one :class:`~repro.chaos.twin.TwinSpec`;
the ``*_campaign`` builders group them into the campaigns the ``chaos``
command runs, and :data:`CAMPAIGNS` maps an artifact's ``kind`` back to
its builder for ``--replay``.  The contracts:

* **fast paths** -- with the host fast paths (translation cache, bulk
  buffer I/O) disabled, a schedule must replay bit-identically: same
  failure, audit log, curated counters and memory digest.
* **eventual delivery** -- with the reliable transport on, wire faults
  must be absorbed: the faulted run and its wire-fault-free twin both
  run clean, the ``rel.*`` ledger quiesces (everything tracked was
  delivered, no retry budget exhausted) and memory converges.  Timing
  is not compared: retransmission exists to change it.
* **IOMMU convergence** -- paging faults must park-and-resume: with
  wire faults stripped from both sides and pageouts from side B, both
  runs are clean, every node's ``io{N}`` ledger is exact, paging adds no
  aborts, and the logical memory (``vm_digest``) and delivery count
  agree.  Timing and physical digests are not compared: frame placement
  cannot match once evictions are stripped.
* **backend conformance** -- every protection backend reaches the
  proxy's outcome classes, protection-fault ledger, NIPT state,
  failure kind@index and memory digest.  Timing is not compared (the
  captable and handler backends charge extra initiation cycles).  The
  determinism twin reruns one backend and requires bit-identity.
* **sharding** and **pooling** -- a K-shard run (either engine), or a
  pooled run against pooling off, must match its reference on the
  per-node audit logs, memory digests and curated counters.

Conformance and convergence strip wire faults from both sides because
an armed fault hits "the next packet", and which packet that is depends
on timing the twins legitimately differ in.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.chaos.actions import Action, strip_paging_faults, strip_wire_faults
from repro.chaos.explorer import RunResult, ScheduleExplorer
from repro.chaos.twin import MAPPING, SCALAR, SEQUENCE, Campaign, Surface, TwinSpec
from repro.protection import BACKEND_NAMES
from repro.sharding import ClusterSpec, ShardRunResult, run_sharded

#: the stock backends every conformance campaign covers by default
PROTECTION_BACKENDS = BACKEND_NAMES

#: artifact kinds, one per campaign
SCHEDULE = "chaos-schedule"
CONFORMANCE = "protection-conformance"
SHARDING = "sharding-differential-failure"
POOLING = "pooling-differential-failure"


@dataclass(frozen=True)
class ScheduleRun:
    """One schedule replay; equal descriptors are the same run."""

    explorer: ScheduleExplorer
    actions: Tuple[Action, ...]
    fast_paths: bool = True
    #: tells apart twins of an otherwise identical run
    replica: int = 0

    def __call__(self) -> RunResult:
        return self.explorer.run(self.actions, fast_paths=self.fast_paths)


@dataclass(frozen=True)
class ShardRun:
    """One sharded-engine run of a cluster spec."""

    spec: ClusterSpec
    num_shards: int
    engine: str
    audit: bool
    replica: int = 0

    def __call__(self) -> ShardRunResult:
        return run_sharded(
            self.spec, num_shards=self.num_shards, engine=self.engine,
            audit=self.audit,
        )


def outcome_class(outcome: str) -> str:
    """Timing-free projection of an outcome label (``"ok:3p0r"`` -> ``"ok"``)."""
    return outcome.split(":", 1)[0]


def _failure(run: RunResult) -> str:
    return run.failure.identity() if run.failure is not None else "none"


def _failure_at(run: RunResult) -> str:
    """Failure kind and index; the message may embed backend timing."""
    return "none" if run.failure is None else f"{run.failure.kind}@{run.failure.index}"


#: everything observable about a schedule run, compared bit for bit
RUN_SURFACES = (
    Surface("failure", SCALAR, _failure),
    Surface("audit log", SEQUENCE, lambda r: r.audit_log),
    Surface("counter", MAPPING, lambda r: r.counters),
    Surface("memory digest", SCALAR, lambda r: r.mem_digest),
)

#: the timing-free protection outcome every backend must reproduce
CONFORMANCE_SURFACES = (
    Surface("failure", SCALAR, _failure_at),
    Surface("outcome classes", SEQUENCE,
            lambda r: [outcome_class(o) for o in r.outcomes]),
    Surface("protection faults", SEQUENCE, lambda r: r.protection_faults),
    Surface("NIPT state", SEQUENCE, lambda r: r.nipt_state),
    Surface("memory digest", SCALAR, lambda r: r.mem_digest),
)

SHARD_SURFACES = (
    Surface("audit log", SEQUENCE, lambda r: r.logs),
    Surface("memory digest", MAPPING, lambda r: r.digests),
    Surface("counter", MAPPING, lambda r: r.curated_counters()),
)


def _run_failures(a: RunResult, b: RunResult, sides: Sequence[str]) -> List[str]:
    return [
        f"{side} run failed: {run.failure.identity()}"
        for run, side in zip((a, b), sides)
        if run.failure is not None
    ]


# ------------------------------------------------------------ schedule twins
def invariants_twin(explorer: ScheduleExplorer) -> TwinSpec:
    """The always-on auditor's verdict on the fast run every spec shares."""
    return TwinSpec(
        name="invariants",
        claim=(
            "{a.boundary_audits} boundary + {a.event_audits} event-hook "
            "audits clean; final t={a.counters[now]} mem={a.mem_digest}"
        ),
        runs=lambda actions: (ScheduleRun(explorer, tuple(actions)), None),
        check=lambda a, _: [] if a.failure is None else [a.failure.identity()],
    )


def fast_paths_twin(explorer: ScheduleExplorer) -> TwinSpec:
    return TwinSpec(
        name="fast-paths",
        claim="fast and reference runs are bit-identical",
        sides=("fast", "reference"),
        runs=lambda actions: (
            ScheduleRun(explorer, tuple(actions)),
            ScheduleRun(explorer, tuple(actions), fast_paths=False),
        ),
        surfaces=RUN_SURFACES,
    )


def _delivery_check(a: RunResult, b: RunResult) -> List[str]:
    out = _run_failures(a, b, ("faulted", "fault-free"))
    if out:
        return out
    sent, delivered, failed = (
        a.counters.get(f"rel.{key}", 0)
        for key in ("messages_sent", "messages_delivered", "delivery_failed")
    )
    if failed:
        out.append(f"{failed} message(s) exhausted the retry budget")
    if sent != delivered:
        out.append(f"lost messages: transport tracked {sent} but delivered {delivered}")
    return out


def delivery_twin(explorer: ScheduleExplorer) -> TwinSpec:
    if not explorer.reliability:
        raise ValueError("the delivery oracle needs an explorer with reliability=True")
    return TwinSpec(
        name="delivery",
        claim=(
            "faulted run converged to the fault-free memory image with zero "
            "lost messages"
        ),
        sides=("faulted", "clean"),
        runs=lambda actions: (
            ScheduleRun(explorer, tuple(actions)),
            ScheduleRun(explorer, tuple(strip_wire_faults(actions))),
        ),
        surfaces=(Surface("memory digest", SCALAR, lambda r: r.mem_digest),),
        check=_delivery_check,
    )


def _io_prefixes(run: RunResult) -> List[str]:
    prefixes: List[str] = []
    while f"io{len(prefixes)}.translations" in run.counters:
        prefixes.append(f"io{len(prefixes)}.")
    return prefixes


def _io_total(run: RunResult, *keys: str) -> int:
    return sum(run.counters[p + k] for p in _io_prefixes(run) for k in keys)


def _inexact_ledgers(run: RunResult, label: str) -> List[str]:
    out = []
    for node, p in enumerate(_io_prefixes(run)):
        c = run.counters
        delivered = c[p + "delivered_direct"] + c[p + "delivered_replayed"]
        if delivered + c[p + "aborted"] != c[p + "translations"]:
            out.append(
                f"{label} run's node {node} ledger is inexact: "
                f"{c[p + 'translations']} translations vs "
                f"{delivered} delivered + {c[p + 'aborted']} aborted"
            )
        if c[p + "parked_now"]:
            out.append(
                f"{label} run left {c[p + 'parked_now']} transfer(s) "
                f"parked on node {node} after settling"
            )
    return out


def _convergence_check(a: RunResult, b: RunResult) -> List[str]:
    out = _run_failures(a, b, ("paging-faulted", "paging-free"))
    if out:
        return out
    out = _inexact_ledgers(a, "faulted") + _inexact_ledgers(b, "paging-free")
    added = _io_total(a, "aborted") - _io_total(b, "aborted")
    if added > 0:
        out.append(f"paging degraded {added} transfer(s) to the abort outcome")
    return out


def convergence_twin(explorer: ScheduleExplorer) -> TwinSpec:
    if not explorer.iommu:
        raise ValueError("the convergence oracle needs an explorer with iommu=True")

    def runs(actions: Sequence[Action]) -> Tuple[ScheduleRun, ScheduleRun]:
        base = strip_wire_faults(actions)
        return (
            ScheduleRun(explorer, tuple(base)),
            ScheduleRun(explorer, tuple(strip_paging_faults(base))),
        )

    return TwinSpec(
        name="convergence",
        claim=(
            "paging-faulted run converged to the paging-free logical memory "
            "image with an exact delivery ledger"
        ),
        sides=("faulted", "paging-free"),
        runs=runs,
        surfaces=(
            Surface("delivery count", SCALAR,
                    lambda r: _io_total(r, "delivered_direct", "delivered_replayed")),
            Surface("logical memory", SCALAR, lambda r: r.vm_digest),
        ),
        check=_convergence_check,
    )


def conformance_twin(ref: ScheduleExplorer, other: ScheduleExplorer) -> TwinSpec:
    return TwinSpec(
        name="conformance",
        claim=f"{other.protection} reaches the protection outcomes of {ref.protection}",
        sides=(ref.protection, other.protection),
        runs=lambda actions: (
            ScheduleRun(ref, tuple(strip_wire_faults(actions))),
            ScheduleRun(other, tuple(strip_wire_faults(actions))),
        ),
        surfaces=CONFORMANCE_SURFACES,
    )


def determinism_twin(explorer: ScheduleExplorer) -> TwinSpec:
    return TwinSpec(
        name="determinism",
        claim=f"{explorer.protection} twin runs are bit-identical",
        sides=(explorer.protection, "twin"),
        runs=lambda actions: (
            ScheduleRun(explorer, tuple(strip_wire_faults(actions))),
            ScheduleRun(explorer, tuple(strip_wire_faults(actions)), replica=1),
        ),
        surfaces=RUN_SURFACES,
    )


# ------------------------------------------------------------- shard twins
def sharding_twin(
    num_shards: int, engine: str = "in-process", audit: bool = True
) -> TwinSpec:
    return TwinSpec(
        name="sharding",
        claim=(
            f"{num_shards}-shard {engine} run is bit-identical to the "
            "1-shard reference"
        ),
        sides=("reference", "sharded"),
        runs=lambda spec: (
            ShardRun(spec, 1, "in-process", audit),
            ShardRun(spec, num_shards, engine, audit, replica=1),
        ),
        surfaces=SHARD_SURFACES,
    )


def pooling_twin(
    num_shards: int = 1, engine: str = "in-process", audit: bool = True
) -> TwinSpec:
    run = dict(num_shards=num_shards, engine=engine, audit=audit)
    return TwinSpec(
        name="pooling",
        claim=(
            f"pooled {num_shards}-shard {engine} run vs pooling off: "
            "bit-identical"
        ),
        sides=("pooling off", "pooled"),
        runs=lambda spec: (
            ShardRun(dataclasses.replace(spec, pooling=False), **run),
            ShardRun(dataclasses.replace(spec, pooling=True), **run),
        ),
        surfaces=SHARD_SURFACES,
    )


# --------------------------------------------------------------- campaigns
def schedule_campaign(
    nodes: int = 1,
    break_mode: Optional[str] = None,
    no_diff: bool = False,
    reliable: bool = False,
    iommu: bool = False,
    checkpoint_every: Optional[int] = None,
) -> Campaign:
    """Invariant auditing plus every schedule oracle the flags enable.

    ``checkpoint_every`` is not a flag: checkpointed runs are
    bit-identical to plain ones, so it never shapes a result.
    """
    explorer = ScheduleExplorer(
        nodes=nodes, break_mode=break_mode, reliability=reliable, iommu=iommu,
        checkpoint_every=checkpoint_every,
    )
    specs = [invariants_twin(explorer)]
    if not no_diff:
        specs.append(fast_paths_twin(explorer))
    if reliable and nodes >= 2:
        specs.append(delivery_twin(explorer))
    if iommu and nodes >= 2:
        specs.append(convergence_twin(explorer))
    flags = dict(nodes=nodes, break_mode=break_mode, no_diff=no_diff,
                 reliable=reliable, iommu=iommu)
    return Campaign(SCHEDULE, flags, specs)


def conformance_campaign(
    nodes: int = 2,
    backends: Sequence[str] = PROTECTION_BACKENDS,
    check_determinism: bool = False,
) -> Campaign:
    """Every backend against the first (the proxy reference)."""
    if len(backends) < 2:
        raise ValueError("conformance needs at least two backends")
    explorers = [ScheduleExplorer(nodes=nodes, protection=b) for b in backends]
    specs = [conformance_twin(explorers[0], other) for other in explorers[1:]]
    if check_determinism:
        specs += [determinism_twin(explorer) for explorer in explorers]
    flags = dict(nodes=nodes, backends=list(backends),
                 check_determinism=check_determinism)
    return Campaign(CONFORMANCE, flags, specs)


def shard_campaign(
    num_shards: int = 2,
    engine: str = "in-process",
    no_audit: bool = False,
    mode: str = "shards",
) -> Campaign:
    """The sharding (or, with ``mode="pooling"``, pooling) differential.

    ``engine="both"`` checks the in-process and worker engines, sharing
    one reference run.
    """
    twin = pooling_twin if mode == "pooling" else sharding_twin
    engines = ("in-process", "worker") if engine == "both" else (engine,)
    flags = dict(num_shards=num_shards, engine=engine, no_audit=no_audit, mode=mode)
    return Campaign(
        POOLING if mode == "pooling" else SHARDING,
        flags,
        [twin(num_shards, e, audit=not no_audit) for e in engines],
    )


#: artifact kind -> the builder that rebuilds its campaign from its flags
CAMPAIGNS = {
    SCHEDULE: schedule_campaign,
    CONFORMANCE: conformance_campaign,
    SHARDING: shard_campaign,
    POOLING: shard_campaign,
}


def suite_specs(
    num_nodes: int = 16,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    iommu: bool = False,
) -> List[ClusterSpec]:
    """The seeded shard suite: jittered starts, contention, torus.

    The seed perturbs per-node start offsets and nothing else.  With
    ``iommu`` receive buffers start cold, so every node's first
    deliveries take the park / fault-service / replay path.
    """
    specs = [
        ClusterSpec(num_nodes=num_nodes, topology="mesh2d", seed=seed, iommu=iommu)
        for seed in seeds
    ]
    # Contention twin: a gap far below the transfer time drives every
    # node through the busy-device retry path.
    specs.append(ClusterSpec(num_nodes=num_nodes, topology="mesh2d",
                             seed=seeds[0], gap_cycles=200, iommu=iommu))
    specs.append(ClusterSpec(num_nodes=num_nodes, topology="torus2d",
                             seed=seeds[0], iommu=iommu))
    return specs
