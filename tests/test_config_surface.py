"""The typed construction surface, pinned field by field.

Every field of these configs is a settable decision that the feature
matrix has to cover.  Adding, removing, renaming or reordering one
must show up as an edit here, so a new knob is a reviewed diff.
"""

import dataclasses

import pytest

from repro.config import ClusterConfig, MachineConfig
from repro.obs import ObsConfig
from repro.sharding import ClusterSpec

SURFACE = {
    MachineConfig: (
        "costs", "mem_size", "scheme", "queue_depth", "replacement_policy",
        "i3_strategy", "guard_strategy", "bounce_frames", "dma_burst_bytes",
        "swap", "fast_paths", "obs", "reliability", "protection", "iommu",
    ),
    ClusterConfig: (
        "num_nodes", "costs", "mem_size", "nipt_entries", "queue_depth",
        "scheme", "cut_through", "topology", "mesh_width", "dma_burst_bytes",
        "fast_paths", "obs", "reliability", "pooling", "protection", "iommu",
    ),
    ClusterSpec: (
        "num_nodes", "topology", "mesh_width", "messages_per_node",
        "msg_bytes", "gap_cycles", "start_cycle", "seed", "mem_size",
        "channel_pages", "nipt_entries", "pooling", "iommu",
    ),
    ObsConfig: ("metrics", "spans", "record_trace", "max_spans"),
}


@pytest.mark.parametrize("config", list(SURFACE), ids=lambda c: c.__name__)
def test_config_fields_are_pinned(config):
    names = tuple(field.name for field in dataclasses.fields(config))
    assert names == SURFACE[config]
