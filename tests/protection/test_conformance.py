"""The headline suite: backends are outcome-equivalent under chaos.

Stock backends must conform on seeded churn schedules; a planted bug in
any one backend must be caught, shrunk, and serialised to a replayable
JSON artifact.
"""

import json

import pytest

from repro.chaos import (
    actions_from_json,
    conformance_campaign,
    generate_schedule,
    outcome_class,
    write_artifact,
)
from repro.chaos.oracles import PROTECTION_BACKENDS

#: seeds x steps for the stock-conformance sweep; CI adds more via the
#: CLI campaign (see .github/workflows/ci.yml)
STOCK_SEEDS = range(6)
STEPS = 35


def _suite(seeds, nodes, backends, shrink_evals=200):
    """Seeded churn schedules up to (and shrinking) the first divergence."""
    campaign = conformance_campaign(nodes=nodes, backends=backends)
    return campaign.run_suite(
        ((s, generate_schedule(s, STEPS, profile="churn")) for s in seeds),
        shrink_evals=shrink_evals,
    )


class TestOutcomeClass:
    def test_strips_detail(self):
        assert outcome_class("ok:3p0r") == "ok"
        assert outcome_class("DmaError") == "DmaError"
        assert outcome_class("ok:park0") == "ok"


class TestOracleShape:
    def test_needs_two_backends(self):
        with pytest.raises(ValueError):
            conformance_campaign(backends=("proxy",))

    def test_report_runs_keyed_by_spec(self):
        oracle = conformance_campaign(nodes=1, backends=("proxy", "handler"))
        report = oracle.run(generate_schedule(0, 10, profile="churn"))
        assert [v.spec.sides for v in report.verdicts] == [("proxy", "handler")]
        assert report.ok


class TestStockBackendsConform:
    def test_cluster_suite(self):
        suite = _suite(STOCK_SEEDS, nodes=2, backends=PROTECTION_BACKENDS)
        assert all(r.ok for r in suite), suite[-1].summary()
        assert len(suite) == len(STOCK_SEEDS)

    def test_single_node_suite(self):
        suite = _suite(STOCK_SEEDS, nodes=1, backends=PROTECTION_BACKENDS)
        assert all(r.ok for r in suite), suite[-1].summary()

    def test_within_backend_determinism(self):
        oracle = conformance_campaign(
            nodes=2, backends=PROTECTION_BACKENDS, check_determinism=True
        )
        report = oracle.run(generate_schedule(7, STEPS, profile="churn"))
        assert report.ok, report.summary()

    def test_default_profile_also_conforms(self):
        oracle = conformance_campaign(nodes=2, backends=PROTECTION_BACKENDS)
        report = oracle.run(generate_schedule(3, STEPS))
        assert report.ok, report.summary()


class TestPlantedBugsAreCaught:
    """The acceptance check: the suite detects a broken backend."""

    @staticmethod
    def _hunt(backends, nodes=2, seeds=range(30)):
        suite = _suite(seeds, nodes=nodes, backends=backends, shrink_evals=80)
        return suite[-1] if not suite[-1].ok else None

    def test_stale_cap_caught_and_shrunk(self):
        failure = self._hunt(("proxy", "captable:stale-cap"))
        assert failure is not None, "stale-cap bug escaped the suite"
        assert failure.mismatches
        assert failure.shrunk is not None
        assert len(failure.shrunk.actions) < len(failure.subject)

    def test_skip_align_caught(self):
        failure = self._hunt(("proxy", "handler:skip-align"))
        assert failure is not None, "skip-align bug escaped the suite"
        assert failure.shrunk is not None

    def test_artifact_round_trips(self, tmp_path):
        failure = self._hunt(("proxy", "captable:stale-cap"))
        assert failure is not None
        path = tmp_path / "protection-failure.json"
        write_artifact(failure, str(path))
        payload = json.loads(path.read_text())
        assert payload["kind"] == "protection-conformance"
        assert payload["backends"] == ["proxy", "captable:stale-cap"]
        assert payload["mismatches"]
        # The stored (shrunk) schedule still splits the backends.
        actions = actions_from_json(payload["actions"])
        oracle = conformance_campaign(
            nodes=payload["nodes"], backends=payload["backends"]
        )
        assert not oracle.run(actions).ok

    def test_shrunk_schedule_still_diverges(self):
        failure = self._hunt(("proxy", "captable:stale-cap"))
        assert failure is not None and failure.shrunk is not None
        oracle = conformance_campaign(
            nodes=2, backends=("proxy", "captable:stale-cap")
        )
        assert not oracle.run(failure.shrunk.actions).ok
