"""Chaos harness for the UDMA fast paths, transports and protection backends.

Deterministic adversarial schedules (seeded RNG), always-on invariant
auditing hooked into the event loop, and six differential oracles built
on one twin-run kernel (:mod:`repro.chaos.twin`, specs in
:mod:`repro.chaos.oracles`).  Any failing schedule is shrunk by ddmin to
a paste-ready minimal reproducer.

Entry points::

    from repro.chaos import run_chaos
    report = run_chaos(seed=7, steps=200, nodes=2)
    assert report.ok

or, from a shell::

    python -m repro chaos --seed 7 --steps 200 --nodes 2
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.chaos.actions import (
    ACTION_WEIGHTS,
    CHURN_WEIGHTS,
    PAGING_FAULT_KINDS,
    PAGING_WEIGHTS,
    SCHEDULE_PROFILES,
    WIRE_FAULT_KINDS,
    Action,
    actions_from_json,
    actions_to_json,
    generate_schedule,
    strip_paging_faults,
    strip_wire_faults,
)
from repro.chaos.auditor import InvariantAuditor
from repro.chaos.explorer import Failure, RunResult, ScheduleExplorer
from repro.chaos.oracles import (
    CAMPAIGNS,
    PROTECTION_BACKENDS,
    conformance_campaign,
    outcome_class,
    schedule_campaign,
    shard_campaign,
    suite_specs,
)
from repro.chaos.shrinker import ShrinkResult, shrink
from repro.chaos.twin import (
    Campaign,
    TwinReport,
    TwinSpec,
    Verdict,
    read_artifact,
    write_artifact,
)
from repro.chaos.world import ChaosWorld

__all__ = [
    "ACTION_WEIGHTS",
    "CAMPAIGNS",
    "CHURN_WEIGHTS",
    "Campaign",
    "PAGING_WEIGHTS",
    "SCHEDULE_PROFILES",
    "Action",
    "ChaosWorld",
    "PROTECTION_BACKENDS",
    "PAGING_FAULT_KINDS",
    "Failure",
    "InvariantAuditor",
    "RunResult",
    "ScheduleExplorer",
    "ShrinkResult",
    "TwinReport",
    "TwinSpec",
    "Verdict",
    "WIRE_FAULT_KINDS",
    "actions_from_json",
    "actions_to_json",
    "conformance_campaign",
    "generate_schedule",
    "outcome_class",
    "read_artifact",
    "run_chaos",
    "schedule_campaign",
    "shard_campaign",
    "shrink",
    "strip_paging_faults",
    "strip_wire_faults",
    "suite_specs",
    "write_artifact",
]


def run_chaos(
    seed: int = 0,
    steps: int = 100,
    nodes: int = 1,
    break_mode: Optional[str] = None,
    diff: bool = True,
    actions: Optional[Sequence[Action]] = None,
    max_shrink_evals: int = 200,
    reliability: bool = False,
    iommu: bool = False,
    profile: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
) -> TwinReport:
    """Run one schedule campaign: explore, audit, diff, and shrink failures.

    Args:
        seed: schedule RNG seed (ignored when ``actions`` is given).
        steps: schedule length.
        nodes: 1 builds a single node + sink device; >= 2 a cluster ring.
        break_mode: plant a deliberate kernel bug (``"no-inval"`` or
            ``"stale-xlat"``) -- the check that the harness catches
            broken kernels.
        diff: also hold the run to the fast-paths oracle.
        actions: replay this explicit schedule instead of generating one.
        max_shrink_evals: ddmin replay budget when a failure needs shrinking.
        reliability: enable the ack/retransmit transport and, on a
            cluster, the eventual-delivery oracle.
        iommu: enable the virtual-address RDMA tier on every node and, on
            a cluster, the IOMMU convergence oracle.
        profile: schedule profile (see SCHEDULE_PROFILES); defaults to
            ``"paging"`` for iommu campaigns, ``"default"`` otherwise.
        checkpoint_every: snapshot the live world every N actions so
            shrink candidates sharing a prefix resume from the checkpoint.
            Exact: the report and its reproducer are bit-identical with
            checkpointing on or off.
    """
    if actions is None:
        profile = profile or ("paging" if iommu else "default")
        actions = generate_schedule(seed, steps, profile=profile)
    campaign = schedule_campaign(
        nodes=nodes, break_mode=break_mode, no_diff=not diff,
        reliable=reliability, iommu=iommu, checkpoint_every=checkpoint_every,
    )
    return campaign.run(list(actions), seed=seed, shrink_evals=max_shrink_evals)
