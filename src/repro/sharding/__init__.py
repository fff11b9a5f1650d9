"""Sharded conservative-PDES execution of multi-node SHRIMP clusters.

The cluster is partitioned into shards -- contiguous node blocks, each
with its own event queues -- synchronised by null-message promises with
lookahead equal to the interconnect's wire latency.  See
``docs/SHARDING.md`` for the model and the determinism argument.
"""

from repro.sharding.engine import (
    InProcessEngine,
    ShardRunResult,
    WorkerEngine,
    build_shards,
    run_sharded,
)
from repro.sharding.shard import Shard
from repro.sharding.spec import ClusterSpec, ShardSpec, partition

__all__ = [
    "ClusterSpec",
    "ShardSpec",
    "Shard",
    "ShardRunResult",
    "InProcessEngine",
    "WorkerEngine",
    "build_shards",
    "partition",
    "run_sharded",
]
