"""Observability configuration: the one knob assemblies accept.

``MachineConfig(obs=ObsConfig(...))`` and ``ClusterConfig(obs=...)`` are
the only way to configure the plane, tracing included: the plane builds
and owns the assembly's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ObsConfig:
    """What the observability plane should collect.

    Attributes:
        metrics: bind the metrics registry over the component counters
            (sampled at snapshot time -- no hot-path cost) and record the
            per-transfer latency histogram.  The default.
        spans: mint causal transfer spans (initiation -> packets ->
            completion).  Off by default; purely host-side when on.
        record_trace: keep the full :class:`~repro.sim.trace.TraceEvent`
            stream in the plane's tracer.
        max_spans: span-tracker capacity; further spans are counted as
            dropped rather than grown without bound.
    """

    metrics: bool = True
    spans: bool = False
    record_trace: bool = False
    max_spans: int = 100_000
