"""The sharding determinism contract.

The merged artefacts of a run -- per-node logs, memory digests, curated
counters -- must be a pure function of the :class:`ClusterSpec`:
identical at any shard count and under either engine.  These tests pin
that, plus the conservative machinery the contract rests on.
"""

import pytest

from repro.errors import ConfigurationError
from repro.params import shrimp
from repro.sharding import (
    ClusterSpec,
    InProcessEngine,
    run_sharded,
)
from repro.sharding import shard as shard_module
from repro.sharding.shard import STEP_KEY, Shard, setup_node
from repro.sharding.spec import ShardSpec


def small_spec(**overrides):
    params = dict(
        num_nodes=9, topology="mesh2d", messages_per_node=3, seed=5
    )
    params.update(overrides)
    return ClusterSpec(**params)


class TestReferenceRun:
    def test_workload_drains(self):
        result = run_sharded(small_spec(), num_shards=1)
        assert result.sent == 9 * 3
        assert result.retries == 0
        assert result.events_fired > 0
        # One log line per step plus a summary line per node.
        assert len(result.logs) == 9 * (3 + 1)

    def test_every_message_is_received(self):
        result = run_sharded(small_spec(), num_shards=1)
        received = sum(
            v for k, v in result.counters.items() if k.endswith(".rx")
        )
        assert received == result.sent
        assert result.net_routed == result.sent

    def test_busy_device_retries_are_deterministic(self):
        spec = small_spec(gap_cycles=50)  # way below the transfer time
        a = run_sharded(spec, num_shards=1)
        b = run_sharded(spec, num_shards=1)
        assert a.retries > 0
        assert a.logs == b.logs
        assert a.digests == b.digests


class TestShardCountInvariance:
    @pytest.mark.parametrize("num_shards", [2, 3, 4, 9])
    def test_bit_identical_to_reference(self, num_shards):
        spec = small_spec()
        ref = run_sharded(spec, num_shards=1)
        sharded = run_sharded(spec, num_shards=num_shards)
        assert sharded.logs == ref.logs
        assert sharded.digests == ref.digests
        assert sharded.curated_counters() == ref.curated_counters()

    def test_identical_under_contention(self):
        spec = small_spec(gap_cycles=50)
        ref = run_sharded(spec, num_shards=1)
        sharded = run_sharded(spec, num_shards=3)
        assert ref.retries > 0
        assert sharded.logs == ref.logs
        assert sharded.digests == ref.digests

    def test_identical_on_torus(self):
        spec = small_spec(num_nodes=16, topology="torus2d")
        ref = run_sharded(spec, num_shards=1)
        sharded = run_sharded(spec, num_shards=4)
        assert sharded.logs == ref.logs
        assert sharded.digests == ref.digests

    def test_seed_changes_the_schedule(self):
        a = run_sharded(small_spec(seed=1), num_shards=1)
        b = run_sharded(small_spec(seed=2), num_shards=1)
        assert a.logs != b.logs


class TestAuditedRuns:
    def test_invariants_hold_at_every_op_boundary(self):
        spec = small_spec(num_nodes=4, topology="linear")
        result = run_sharded(spec, num_shards=2, audit=True)
        assert result.audits == result.ops_executed
        assert result.audits > 0

    def test_audit_does_not_perturb_the_run(self):
        spec = small_spec(num_nodes=4, topology="linear")
        plain = run_sharded(spec, num_shards=2)
        audited = run_sharded(spec, num_shards=2, audit=True)
        assert audited.logs == plain.logs
        assert audited.digests == plain.digests


class TestConservativeMachinery:
    def test_frame_divergence_is_loud(self, monkeypatch):
        """Nodes 2 and 3 allocate one extra frame before their setup, so
        their receive frames differ from nodes 0 and 1.  One shard
        catches it inside the shard, four shards across shards, and the
        worker engine across the frames its two workers report."""

        def diverging_setup(spec, costs, node_id, machine, nic):
            if node_id >= 2:
                machine.kernel.frames.alloc()
            return setup_node(spec, costs, node_id, machine, nic)

        monkeypatch.setattr(shard_module, "setup_node", diverging_setup)
        spec = small_spec(num_nodes=4, topology="linear")
        for engine, num_shards in (("in-process", 1), ("in-process", 4), ("worker", 2)):
            with pytest.raises(ConfigurationError, match="node 2 .*canonical"):
                run_sharded(spec, num_shards=num_shards, engine=engine)

    def test_unfed_cross_shard_link_blocks_execution(self):
        """A node whose only in-link is remote and unfed must not
        execute anything -- the bound defaults to zero, not infinity."""
        spec = small_spec(num_nodes=4, topology="linear")
        shard = Shard(spec, ShardSpec(index=2, num_shards=4, nodes=(2,)))
        assert shard.run_until_blocked() is False
        assert shard.ops_executed == 0

    def test_null_message_unblocks_up_to_the_bound(self):
        spec = small_spec(num_nodes=4, topology="linear")
        shard = Shard(spec, ShardSpec(index=2, num_shards=4, nodes=(2,)))
        shard.set_chan_bound(1, 2, 10**9)
        assert shard.run_until_blocked() is True
        assert shard.ops_executed > 0

    def test_step_key_sorts_after_arrivals(self):
        # Same-cycle ordering: hardware events, then arrivals, then steps.
        assert () < (1, 0, 0) < STEP_KEY

    def test_engine_wires_live_bounds(self):
        engine = InProcessEngine(small_spec(), num_shards=3)
        for shard in engine.shards:
            assert shard.deliver_remote is not None
            assert shard.remote_bound is not None

    def test_lookahead_positive_on_every_link(self):
        costs = shrimp()
        for topology in ("linear", "mesh2d", "torus2d"):
            spec = small_spec(topology=topology)
            for value in spec.lookaheads(costs).values():
                assert value >= costs.hop_cycles


class TestShardObservability:
    def test_per_shard_metrics_roll_up(self):
        result = run_sharded(small_spec(), num_shards=3)
        assert "shard0.backplane.packets_routed" in result.metrics
        assert "shard2.ops_executed" in result.metrics
        # Node metrics live in their shard's registry, namespaced.
        assert any(k.startswith("node0.") for k in result.metrics)

    def test_merged_counters_are_node_keyed(self):
        result = run_sharded(small_spec(), num_shards=2)
        for node in range(9):
            assert f"n{node}.now" in result.counters
            assert f"nic{node}.rx" in result.counters
