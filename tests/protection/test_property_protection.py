"""Hypothesis: backend outcome-equivalence over generated workloads.

The directed tests pin known protection cases; these properties let
Hypothesis hunt for schedule shapes where the backends disagree.  Under
the ``ci`` profile the example sequence is derandomized, so CI failures
always reproduce.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import conformance_campaign, generate_schedule
from repro.chaos.oracles import PROTECTION_BACKENDS

_ORACLE_2N = conformance_campaign(nodes=2, backends=PROTECTION_BACKENDS)
_ORACLE_1N = conformance_campaign(nodes=1, backends=PROTECTION_BACKENDS)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_cluster_schedules_conform(seed):
    actions = generate_schedule(seed, 18, profile="churn")
    report = _ORACLE_2N.run(actions)
    assert report.ok, report.summary()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_single_node_schedules_conform(seed):
    actions = generate_schedule(seed, 18, profile="churn")
    report = _ORACLE_1N.run(actions)
    assert report.ok, report.summary()


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.integers(min_value=1, max_value=25),
)
def test_schedule_prefixes_conform(seed, steps):
    """Conformance holds at every schedule length, not just the full run."""
    actions = generate_schedule(seed, steps, profile="churn")
    report = _ORACLE_2N.run(actions)
    assert report.ok, report.summary()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_within_backend_determinism(seed):
    """Each backend is bit-exact deterministic on its own schedule."""
    oracle = conformance_campaign(
        nodes=2, backends=PROTECTION_BACKENDS, check_determinism=True
    )
    actions = generate_schedule(seed, 12, profile="churn")
    report = oracle.run(actions)
    assert report.ok, report.summary()
