"""Unit tests for the typed metrics registry."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.registry import DEFAULT_BUCKETS, HISTOGRAM_FOLD_EVERY, unflatten


class TestNames:
    def test_dotted_lowercase_accepted(self):
        Counter("node0.nic.packets_sent")
        Counter("cpu.loads")

    @pytest.mark.parametrize(
        "bad", ["", "Cpu.loads", "cpu..loads", "cpu.loads-total", "cpu loads"]
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            Counter(bad)


class TestCounter:
    def test_owned_counter_increments(self):
        c = Counter("events")
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_owned_counter_rejects_negative(self):
        c = Counter("events")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_sampled_counter_reads_live_attribute(self):
        box = type("Box", (), {"hits": 0})()
        c = Counter("box.hits", read=lambda: box.hits)
        assert c.value() == 0
        box.hits = 7
        assert c.value() == 7

    def test_sampled_counter_rejects_inc(self):
        c = Counter("box.hits", read=lambda: 1)
        with pytest.raises(ConfigurationError):
            c.inc()


class TestGauge:
    def test_owned_gauge_set(self):
        g = Gauge("depth")
        g.set(3)
        assert g.value() == 3
        g.set(1)
        assert g.value() == 1

    def test_sampled_gauge_rejects_set(self):
        g = Gauge("depth", read=lambda: 9)
        assert g.value() == 9
        with pytest.raises(ConfigurationError):
            g.set(1)


class TestHistogram:
    def test_summary_fields(self):
        h = Histogram("lat")
        for v in (100, 200, 400, 100_000):
            h.observe(v)
        value = h.value()
        assert value["count"] == 4
        assert value["sum"] == 100_700
        assert value["min"] == 100
        assert value["max"] == 100_000
        # p50 is a bucket upper bound covering at least half the samples
        assert value["min"] <= value["p50"] <= value["max"] * 2
        assert value["p99"] >= value["p50"]

    def test_empty_histogram_is_zeroes(self):
        value = Histogram("lat").value()
        assert value == {"count": 0, "sum": 0, "min": 0, "max": 0,
                         "p50": 0, "p99": 0}

    def test_overflow_bucket(self):
        h = Histogram("lat", buckets=(10, 100))
        h.observe(5000)
        assert h.count == 1
        assert h.percentile(0.5) == 5000  # falls through to max

    def test_queued_samples_fold_into_exact_totals(self):
        """Samples queue and fold in batches (every HISTOGRAM_FOLD_EVERY
        and on read); the totals must match recording one by one."""
        h = Histogram("lat", buckets=(10, 100, 1000))
        samples = [(i * 7919) % 5000 for i in range(3 * HISTOGRAM_FOLD_EVERY + 5)]
        for i, v in enumerate(samples):
            h.observe(v)
            if i == 17:
                assert h.count == 18  # a read mid-stream folds early
        assert h.count == len(samples)
        assert h.sum == sum(samples)
        assert (h.min, h.max) == (min(samples), max(samples))
        assert h.counts == [
            sum(1 for v in samples if v <= 10),
            sum(1 for v in samples if 10 < v <= 100),
            sum(1 for v in samples if 100 < v <= 1000),
            sum(1 for v in samples if v > 1000),
        ]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("lat", buckets=(100, 10))

    def test_default_buckets_ascending_powers_of_two(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert DEFAULT_BUCKETS[0] == 16


class TestRegistry:
    def test_register_and_get(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        assert reg.get("a.b") is c
        assert "a.b" in reg
        assert len(reg) == 1

    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(ConfigurationError):
            reg.gauge("a.b")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().get("nope")

    def test_snapshot_is_sorted_and_prefixed(self):
        reg = MetricsRegistry()
        reg.counter("b.two", read=lambda: 2)
        reg.counter("a.one", read=lambda: 1)
        reg.counter("b.three", read=lambda: 3)
        assert list(reg.snapshot()) == ["a.one", "b.three", "b.two"]
        assert reg.snapshot("b.") == {"b.three": 3, "b.two": 2}
        assert reg.names("a.") == ["a.one"]


class TestUnflatten:
    def test_nests_dotted_names(self):
        assert unflatten({"cpu.loads": 3, "cpu.stores": 1, "now": 9}) == {
            "cpu": {"loads": 3, "stores": 1},
            "now": 9,
        }

    def test_strip_prefix(self):
        flat = {"node0.nic.packets_sent": 2}
        assert unflatten(flat, strip="node0.") == {"nic": {"packets_sent": 2}}
