"""The sharding differential oracle and its chaos CLI mode."""

import json

import pytest

from repro.chaos.oracles import (
    pooling_twin,
    shard_campaign,
    sharding_twin,
    suite_specs,
)
from repro.chaos.twin import diff
from repro.cli import main
from repro.sharding import ClusterSpec, run_sharded


def small_spec(**overrides):
    params = dict(num_nodes=4, topology="linear", messages_per_node=3)
    params.update(overrides)
    return ClusterSpec(**params)


class TestShardingOracle:
    def test_clean_comparison(self):
        report = sharding_twin(2, audit=False).compare(small_spec())
        assert report.ok
        assert "bit-identical" in report.summary()

    def test_audited_comparison_counts_audits(self):
        report = sharding_twin(2, audit=True).compare(small_spec())
        assert report.ok
        assert report.b.audits == report.b.ops_executed

    def test_reference_is_reusable(self):
        first = sharding_twin(2, audit=False).compare(small_spec())
        second = sharding_twin(2, engine="worker", audit=False).compare(
            small_spec(), a=first.a
        )
        assert second.ok
        assert second.a is first.a

    def test_divergence_is_reported_per_surface(self):
        spec = small_spec()
        reference = run_sharded(spec, num_shards=1)
        report = sharding_twin(2, audit=False).compare(spec)
        # Forge a divergence on every surface.
        report.b.logs[0] = "forged"
        report.b.digests["n0"] = "beef"
        report.b.counters["n0.now"] += 1
        report.mismatches = diff(report.spec, report.a, report.b)
        assert not report.ok
        kinds = " ".join(report.mismatches)
        assert "audit log diverges" in kinds
        assert "memory digest n0" in kinds
        assert "counter n0.now" in kinds
        del reference

    def test_run_error_is_captured_not_raised(self):
        report = sharding_twin(99, audit=False).compare(small_spec())
        assert not report.ok
        assert report.error is not None
        assert "FAILED to run" in report.summary()

    def test_artifact_round_trips(self):
        campaign = shard_campaign(num_shards=2, engine="worker", no_audit=True)
        report = campaign.run(small_spec(seed=9))
        artifact = json.loads(json.dumps(report.artifact()))
        assert artifact["kind"] == "sharding-differential-failure"
        assert ClusterSpec.from_dict(artifact["spec"]).seed == 9
        assert artifact["num_shards"] == 2


class TestSuite:
    def test_suite_covers_contention_and_torus(self):
        specs = suite_specs(num_nodes=9, seeds=(0, 1))
        assert len(specs) == 4
        assert any(s.gap_cycles < 1000 for s in specs)
        assert any(s.topology == "torus2d" for s in specs)

    def test_suite_runs_clean(self):
        reports = shard_campaign(num_shards=2, no_audit=True).run_suite(
            (None, spec) for spec in suite_specs(num_nodes=4, seeds=(0,))
        )
        assert reports and all(r.ok for r in reports)


class TestChaosShardsCli:
    def test_clean_run_exits_zero(self, capsys):
        code = main([
            "chaos", "--shards", "2", "--nodes", "4", "--no-audit",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out

    def test_failure_writes_artifact(self, tmp_path, monkeypatch, capsys):
        # Sabotage the sharded engine so the differential trips.
        from repro.chaos import oracles

        real = oracles.run_sharded

        def sabotage(spec, num_shards=1, engine="in-process", audit=False):
            result = real(spec, num_shards=num_shards, engine=engine,
                          audit=audit)
            if num_shards > 1:
                result.logs[0] = "forged divergence"
            return result

        monkeypatch.setattr(oracles, "run_sharded", sabotage)
        artifact = tmp_path / "failure.json"
        code = main([
            "chaos", "--shards", "2", "--nodes", "4", "--no-audit",
            "--repro-file", str(artifact),
        ])
        assert code == 1
        data = json.loads(artifact.read_text())
        assert data["kind"] == "sharding-differential-failure"
        assert "DIVERGED" in capsys.readouterr().out

    def test_replay_spec_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "replay.json"
        artifact.write_text(json.dumps({
            "kind": "sharding-differential-failure",
            "spec": small_spec().as_dict(),
            "num_shards": 2,
            "engine": "in-process",
        }))
        code = main([
            "chaos", "--shards", "2", "--no-audit",
            "--replay", str(artifact),
        ])
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out

    @pytest.mark.parametrize("mode_flags", [["--shards", "1"], ["--no-pool"], []])
    def test_replay_runs_a_pooling_artifact_as_pooling(
        self, tmp_path, capsys, mode_flags
    ):
        """A pooling artifact replays as a pooling comparison of its own
        spec, whatever mode the other flags would select."""
        from repro.chaos import write_artifact

        campaign = shard_campaign(num_shards=1, no_audit=True, mode="pooling")
        artifact = tmp_path / "pooling.json"
        write_artifact(campaign.run(small_spec(seed=3)), str(artifact))
        code = main(["chaos", *mode_flags, "--no-audit", "--replay", str(artifact)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pooling oracle: pooled 1-shard" in out
        assert "sharding oracle" not in out
        assert "4-node linear spec, seed 3," in out
        assert "16-node" not in out


class TestPoolingOracle:
    def test_clean_pooling_comparison(self):
        report = pooling_twin(audit=False).compare(small_spec())
        assert report.ok
        assert report.spec.name == "pooling"
        assert "pooling oracle" in report.summary()
        assert "vs pooling off" in report.summary()

    def test_pooling_comparison_at_multiple_shards(self):
        report = pooling_twin(num_shards=2, audit=False).compare(small_spec())
        assert report.ok

    def test_pooling_artifact_kind(self):
        report = shard_campaign(num_shards=1, no_audit=True, mode="pooling").run(
            small_spec()
        )
        data = json.loads(json.dumps(report.artifact()))
        assert data["kind"] == "pooling-differential-failure"
        assert data["mode"] == "pooling"

    def test_cli_no_pool_mode(self, capsys):
        code = main(["chaos", "--no-pool", "--nodes", "4", "--no-audit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pooling oracle" in out
        assert "bit-identical" in out

    def test_cli_no_pool_with_shards(self, capsys):
        code = main([
            "chaos", "--no-pool", "--shards", "2", "--nodes", "4",
            "--no-audit",
        ])
        assert code == 0
        assert "pooled 2-shard" in capsys.readouterr().out

    def test_cli_no_pool_suite(self, capsys):
        code = main([
            "chaos", "--no-pool", "--suite", "--nodes", "4", "--no-audit",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("bit-identical") >= 3
