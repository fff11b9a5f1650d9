"""Machine snapshot/restore and fork-based scenario branching.

A *snapshot* is a deterministic, versioned serialisation of a whole
simulated system -- a :class:`~repro.machine.Machine`, a
:class:`~repro.cluster.ShrimpCluster`, or any object graph built from
the simulator's components -- at one instant of simulated time.  The
contract is **restore-equivalence**: a run that is snapshotted at step
*k*, restored, and driven to completion produces bit-identical digests,
counters, audit logs and traces to the run that was never interrupted.
``tests/snapshot/`` and the chaos harness's ``--checkpoint-every`` gate
hold that contract under every feature combination (paging, IOMMU,
reliable transport, all protection backends, 1..N shards).

Three operations:

* :func:`snapshot` -- capture an object graph to ``bytes``.
* :func:`restore` -- rebuild the graph from a blob (refusing blobs
  written by a different format version with
  :class:`~repro.errors.SnapshotVersionError`).
* :func:`fork` -- an in-memory deep copy, for cheap scenario branching
  (run the same machine down two different futures) without paying the
  serialise/compress round trip.

What is captured: every byte of simulated state -- the clock and its
event queue (tombstones included),
physical memory, MMU/TLB and translation-cache generations, paging
state, the NIPT and the active protection backend, NIC FIFOs and
in-flight packets, reliable-transport channels and armed retransmit
timers, the IOMMU's page table, IOTLB, park queue and pin ledger, and
every observability counter and histogram.

What is deliberately *not* captured: external observers.  Trace
subscribers, the chaos auditor's clock hook, and the sampled metric
``read`` callbacks all point from the outside in; they are dropped at
capture and re-attached on restore (components expose
``_reattach_after_restore`` for the parts they own).  See
``docs/SNAPSHOT.md`` for the format and the full capture matrix.
"""

from repro.snapshot.api import fork, reattach, restore, snapshot
from repro.snapshot.format import MAGIC, SNAPSHOT_VERSION
from repro.snapshot.protocol import SnapshotMixin, Snapshottable

__all__ = [
    "snapshot",
    "restore",
    "fork",
    "reattach",
    "MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotMixin",
    "Snapshottable",
]
