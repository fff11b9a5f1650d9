"""Typed metrics registry: stable, namespaced names over live counters.

The simulator's components keep plain integer attributes on their hot
paths (``cpu.loads += 1`` costs one integer add and nothing else).  The
registry does not replace those attributes -- it *binds* them: a
:class:`Counter` or :class:`Gauge` registered with a ``read`` callback
samples the live attribute only when a snapshot is taken, so observation
costs nothing until someone observes.  :class:`Histogram` is the one
*recording* instrument (distributions cannot be reconstructed after the
fact); call sites guard it with ``if hist is not None``.

Names are dotted, stable, and part of the public API: renaming a metric
is an API change, enforced by the golden-name test in
``tests/obs/test_metric_names_golden.py``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter as _Tally
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.snapshot.protocol import SnapshotMixin

#: dotted lowercase names: ``cpu.loads``, ``node0.nic.packets_sent``
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(
            f"metric name {name!r} is not a dotted lowercase identifier"
        )
    return name


class Metric:
    """Base of every registered instrument."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help

    def value(self) -> Any:
        """Current value as it should appear in a snapshot."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class _SampledStateMixin:
    """Pickle support for sampled instruments.

    A ``read`` callback closes over a live component, so it cannot (and
    must not) ride along in a snapshot.  Pickling drops the callback and
    marks the instrument *detached*; reading a detached instrument raises
    instead of silently returning the stale owned value.  Restore paths
    re-run the owner's metric binding under
    :meth:`MetricsRegistry.rebinding`, which re-attaches the callbacks.
    """

    _detached = False

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if state.get("_read") is not None:
            state["_read"] = None
            state["_detached"] = True
        return state

    def _check_attached(self) -> None:
        if self._detached:
            raise ConfigurationError(
                f"metric {self.name!r} was detached by snapshot/restore "
                "and has not been rebound to its component"
            )


class Counter(_SampledStateMixin, Metric):
    """A monotonically increasing count.

    Either *sampled* (``read`` callback over a component's live
    attribute -- the zero-overhead binding) or *owned* (call
    :meth:`inc`); not both.
    """

    kind = "counter"

    def __init__(
        self,
        name: str,
        help: str = "",
        read: Optional[Callable[[], Any]] = None,
    ) -> None:
        super().__init__(name, help)
        self._read = read
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Increment an owned counter (invalid on sampled counters)."""
        if self._read is not None:
            raise ConfigurationError(
                f"counter {self.name!r} samples a live attribute; "
                "increment the attribute, not the binding"
            )
        if amount < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def value(self) -> Any:
        self._check_attached()
        return self._read() if self._read is not None else self._value


class Gauge(_SampledStateMixin, Metric):
    """A point-in-time value (may go up, down, or be a label string)."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        read: Optional[Callable[[], Any]] = None,
    ) -> None:
        super().__init__(name, help)
        self._read = read
        self._value: Any = 0

    def set(self, value: Any) -> None:
        """Set an owned gauge (invalid on sampled gauges)."""
        if self._read is not None:
            raise ConfigurationError(
                f"gauge {self.name!r} samples a live attribute"
            )
        self._value = value

    def value(self) -> Any:
        self._check_attached()
        return self._read() if self._read is not None else self._value


#: default latency buckets: powers of two from 16 cycles to ~16M cycles
DEFAULT_BUCKETS = tuple(1 << k for k in range(4, 25))


#: a histogram folds its queued samples into the buckets once this many
#: are pending (and whenever it is read), bounding the queue's memory
HISTOGRAM_FOLD_EVERY = 4096


class Histogram(Metric):
    """A recording distribution over fixed bucket upper bounds.

    Unlike counters and gauges, a histogram must see every sample when it
    happens; call sites therefore hold a direct reference and guard with
    ``if hist is not None`` so the unobserved cost is one attribute load.
    Recording a sample is one list append: samples queue up and fold into
    the bucket counts, sum, min and max every
    :data:`HISTOGRAM_FOLD_EVERY` samples and on every read, so the
    per-sample cost on a hot path stays near a bare call.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: "tuple[int, ...]" = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigurationError(
                f"histogram {self.name!r} needs ascending bucket bounds"
            )
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None
        self._pending: List[int] = []

    def observe(self, value: int) -> None:
        """Record one sample."""
        pending = self._pending
        pending.append(value)
        if len(pending) >= HISTOGRAM_FOLD_EVERY:
            self._fold()

    def _fold(self) -> None:
        pending = self._pending
        if not pending:
            return
        counts, buckets = self._counts, self.buckets
        for value, n in _Tally(pending).items():
            counts[bisect_left(buckets, value)] += n
            self._sum += value * n
        low, high = min(pending), max(pending)
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high
        self._count += len(pending)
        pending.clear()

    @property
    def counts(self) -> List[int]:
        """Samples per bucket; the last entry is the overflow bucket."""
        self._fold()
        return self._counts

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def sum(self) -> int:
        self._fold()
        return self._sum

    @property
    def min(self) -> Optional[int]:
        self._fold()
        return self._min

    @property
    def max(self) -> Optional[int]:
        self._fold()
        return self._max

    def percentile(self, q: float) -> int:
        """Upper bucket bound holding the ``q``-quantile (0 < q <= 1)."""
        if self.count == 0:
            return 0
        target = q * self.count
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            if running >= target:
                return bound
        return self.max if self.max is not None else self.buckets[-1]

    def value(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry(SnapshotMixin):
    """All of one observability plane's instruments, by stable name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        #: transient flag set by :meth:`rebinding`; never pickled as True
        #: because it is only set inside the context manager
        self._rebinding = False

    # --------------------------------------------------------- registration
    def register(self, metric: Metric) -> Metric:
        """Add an instrument; duplicate names are configuration errors."""
        if metric.name in self._metrics:
            raise ConfigurationError(
                f"metric {metric.name!r} is already registered"
            )
        self._metrics[metric.name] = metric
        return metric

    @contextmanager
    def rebinding(self) -> Iterator[None]:
        """Re-run a component's metric bindings after snapshot restore.

        Inside the context, registering an already-present name is not a
        duplicate error: counters and gauges get their ``read`` callback
        re-attached (clearing the detached marker), histograms return the
        existing instrument so recorded distributions survive the round
        trip.  Outside the context the strict duplicate check stands.
        """
        self._rebinding = True
        try:
            yield
        finally:
            self._rebinding = False

    def counter(
        self,
        name: str,
        read: Optional[Callable[[], Any]] = None,
        help: str = "",
    ) -> Counter:
        """Register a counter (sampled when ``read`` is given)."""
        if self._rebinding and name in self._metrics:
            metric = self._metrics[name]
            if not isinstance(metric, Counter):
                raise ConfigurationError(
                    f"metric {name!r} rebound with a different kind"
                )
            metric._read = read
            metric._detached = False
            return metric
        metric = Counter(name, help=help, read=read)
        self.register(metric)
        return metric

    def gauge(
        self,
        name: str,
        read: Optional[Callable[[], Any]] = None,
        help: str = "",
    ) -> Gauge:
        """Register a gauge (sampled when ``read`` is given)."""
        if self._rebinding and name in self._metrics:
            metric = self._metrics[name]
            if not isinstance(metric, Gauge):
                raise ConfigurationError(
                    f"metric {name!r} rebound with a different kind"
                )
            metric._read = read
            metric._detached = False
            return metric
        metric = Gauge(name, help=help, read=read)
        self.register(metric)
        return metric

    def histogram(
        self,
        name: str,
        buckets: "tuple[int, ...]" = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Register a recording histogram."""
        if self._rebinding and name in self._metrics:
            metric = self._metrics[name]
            if not isinstance(metric, Histogram):
                raise ConfigurationError(
                    f"metric {name!r} rebound with a different kind"
                )
            return metric
        metric = Histogram(name, help=help, buckets=buckets)
        self.register(metric)
        return metric

    # -------------------------------------------------------------- reading
    def get(self, name: str) -> Metric:
        """Instrument by name."""
        try:
            return self._metrics[name]
        except KeyError:
            raise ConfigurationError(f"no metric {name!r} registered") from None

    def names(self, prefix: str = "") -> List[str]:
        """Sorted registered names (optionally under a prefix)."""
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """One deterministic flat reading: sorted name -> current value."""
        return {n: self._metrics[n].value() for n in self.names(prefix)}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)


def unflatten(flat: Dict[str, Any], strip: str = "") -> Dict[str, Any]:
    """Nest a flat dotted-name snapshot into the classic report shape.

    ``unflatten({"cpu.loads": 3}) == {"cpu": {"loads": 3}}``.  ``strip``
    removes a shared prefix (a node's namespace in a cluster registry)
    before nesting.
    """
    nested: Dict[str, Any] = {}
    for name, value in flat.items():
        if strip:
            name = name[len(strip):]
        node = nested
        parts = name.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return nested
