#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload incast_saturated --seed 7 \\
        --seconds 20 --trace 0

Run from the repository root (the simulator is imported from ``src/``;
nothing is installed).  ``--trace 0`` times the workload with tracing
off and prints the end-to-end metrics; ``--trace 1`` runs the traced
passes and prints the per-layer table.  Every metric is printed by name
with its unit, then the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs every workload in turn, each on its default seed unless ``--seed``
is given.

Correctness: every repeat must deliver every message, leave the payload
in every receive buffer and reproduce one simulated fingerprint; for a
seed recorded in ``baseline.json`` the fingerprint must equal the
recorded one.  Any failure makes ``correct`` false and the exit code 1.
See ``GLOSSARY.md`` for every workload and metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"

#: repeats a run makes even when ``--seconds`` is shorter than they take
MIN_REPEATS = 3
#: traced repeats a ``--trace 1`` run makes at least
MIN_TRACED = 2

END_TO_END_UNITS = {
    "host_msg_per_s": "msg/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_goodput_mb_s": "MB/s",
}
#: metrics measured on the host, which compare only between like hosts
HOST_METRICS = ("host_msg_per_s", "setup_s", "peak_rss_mb")


def bootstrap() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: simulator source not found at {src / 'repro'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def host_facts() -> Dict[str, object]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def load_baseline() -> dict:
    if not BASELINE.is_file():
        return {}
    with BASELINE.open() as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest waited-for child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


class Checker:
    """Counts attempted and failed messages and explains each failure."""

    def __init__(self, recorded: Optional[dict]) -> None:
        self.recorded = recorded
        self.expected: Optional[dict] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, repeat, label: str) -> None:
        from workloads import sim_fields

        got = repeat.fingerprint
        if self.expected is None:
            self.expected = sim_fields(got)
        want = dict(self.expected)
        if self.recorded is not None:
            # Relay rounds exist only on worker-engine repeats.
            want.update(self.recorded if "rounds" in got else sim_fields(self.recorded))
        mismatch = sorted(k for k in want if got.get(k) != want[k])
        self.attempted += repeat.attempted
        if mismatch or repeat.problems:
            self.failed += repeat.attempted
            if mismatch:
                self.problems.append(
                    f"{label}: fingerprint mismatch in {', '.join(mismatch)}"
                )
            self.problems.extend(f"{label}: {p}" for p in repeat.problems)

    @property
    def correct(self) -> bool:
        return not self.problems


def run_repeat(workload, seed: int, engine: str = "worker", **kwargs):
    from workloads import run_workload

    gc.collect()
    return run_workload(workload, seed, engine=engine, **kwargs)


def measure_end_to_end(workload, seed: int, seconds: float, checker: Checker):
    from probe import REFERENCE_RATE, probe_rate
    from workloads import MSG_BYTES, run_workload
    from repro.params import shrimp

    # Warm-up, untimed.  For the mesh it is the in-process reference the
    # worker engine must reproduce bit for bit.
    checker.check(run_repeat(workload, seed, engine="in-process"), "warm-up")
    checker.attempted = checker.failed = 0
    # The probe measures the core this process runs on.  The mesh's work
    # runs in two shard workers on both cores, which that probe does not
    # track (scaling made its spread worse), so the mesh stays unscaled.
    scaled = workload.kind == "traffic"
    repeats, scales = [], []
    t0 = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - t0 < seconds:
        gc.collect()
        scales.append(REFERENCE_RATE / probe_rate() if scaled else 1.0)
        repeat = run_workload(workload, seed)
        checker.check(repeat, f"repeat {len(repeats) + 1}")
        repeats.append(repeat)
    first = repeats[0]
    sim_seconds = first.sim_cycles / shrimp().cpu_hz
    pairs = list(zip(repeats, scales))
    metrics = {
        "host_msg_per_s": statistics.median(r.msg_per_s * k for r, k in pairs),
        "setup_s": statistics.median(r.setup_seconds / k for r, k in pairs),
        "peak_rss_mb": peak_rss_mb(),
        "sim_goodput_mb_s": first.delivered * MSG_BYTES / sim_seconds / 1e6,
    }
    wall_rate = statistics.median(r.msg_per_s for r in repeats)
    wall_setup = statistics.median(r.setup_seconds for r in repeats)
    if scaled:
        rate_note = f"at the reference host speed; wall clock {wall_rate:.6g}"
        setup_note = f"at the reference host speed; wall clock {wall_setup:.6g}"
    else:
        rate_note = setup_note = "wall clock, unscaled"
    notes = {
        "host_msg_per_s": f"median of {len(repeats)} repeats {rate_note}",
        "setup_s": f"median of {len(repeats)} repeats {setup_note}",
        "peak_rss_mb": "whole run, largest process",
        "sim_goodput_mb_s": "simulated; deterministic per seed",
    }
    return metrics, notes, first.fingerprint


def layer_counters(engine) -> Dict[str, float]:
    """Pool, FIFO and workload-step counters read off a finished engine."""
    if hasattr(engine, "cluster"):  # TrafficEngine
        cluster = engine.cluster
        nics = [cluster.nic(i) for i in range(cluster.num_nodes)]
        pools = [cluster.interconnect.packet_pool]
    else:  # InProcessEngine
        nics = [rt.nic for s in engine.shards for rt in s.runtimes.values()]
        pools = [s.interconnect.packet_pool for s in engine.shards]
    stats = [p.stats() for p in pools if p is not None]
    reuses = sum(s["packet_reuses"] for s in stats)
    allocs = sum(s["packet_allocs"] for s in stats)
    return {
        "pool_reuse_ratio": reuses / (reuses + allocs) if reuses + allocs else 0.0,
        "fifo_high_water": max(n.incoming.high_water for n in nics),
    }


def count_calls(workload, seed: int):
    """One profiled repeat: Python calls per layer plus the work counters.

    Returns the :class:`layers.CallCounter`, the repeat, and the pool and
    FIFO counters read off its engine.
    """
    from layers import CallCounter

    counters: Dict[str, float] = {}
    calls = CallCounter()
    with calls:
        profiled = run_repeat(
            workload, seed, engine="in-process",
            on_engine=lambda e: counters.update(layer_counters(e)),
        )
    return calls, profiled, counters


def count_metrics(workload, calls, profiled, counters) -> Dict[str, float]:
    """The per-layer metrics that are counts: they repeat exactly."""
    from layers import LAYERS

    msgs = profiled.delivered
    fp = profiled.fingerprint
    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls_per_msg"] = calls.layer_calls.get(layer, 0) / msgs
    m["repro.calls_per_msg"] = sum(calls.layer_calls.values()) / msgs
    steps = profiled.attempted + fp["retries"]
    pumped = workload.kind == "traffic"
    m["traffic.steps_per_msg"] = steps / msgs if pumped else 0.0
    m["traffic.useful_step_ratio"] = profiled.attempted / steps if pumped else 0.0
    m["sim.events_per_msg"] = fp["events"] / msgs
    m["userlib.fast_send_ratio"] = (
        calls.fast_sends / calls.accepted_sends if calls.accepted_sends else 0.0
    )
    lookups = fp["xlat_hits"] + fp["xlat_misses"]
    m["cpu.xlat_hit_rate"] = fp["xlat_hits"] / lookups if lookups else 0.0
    m["vm.walks_per_msg"] = calls.calls_of("vm/mmu.py:translate") / msgs
    m["kernel.switches_per_msg"] = (
        calls.calls_of("kernel/scheduler.py:switch_to") / msgs
    )
    m["net.pool.reuse_ratio"] = counters["pool_reuse_ratio"]
    m["mem.bytes_copied_per_msg"] = calls.bytes_copied / msgs
    m["net.fifo.in_high_water_bytes"] = counters["fifo_high_water"]
    m["net.nipt.updates_per_msg"] = (
        calls.calls_of("net/nipt.py:set_entry")
        + calls.calls_of("net/nipt.py:clear_entry")
    ) / msgs
    return m


def measure_layers(workload, seed: int, seconds: float, checker: Checker):
    from layers import LAYERS, SpanTracer

    checker.check(run_repeat(workload, seed, engine="in-process"), "warm-up")
    checker.attempted = checker.failed = 0
    untraced, traced = [], []
    tracer = SpanTracer()
    t0 = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - t0 < seconds:
        repeat = run_repeat(workload, seed, engine="in-process")
        checker.check(repeat, f"untraced {len(untraced) + 1}")
        untraced.append(repeat.msg_per_s)
        with tracer:
            repeat = run_repeat(workload, seed, engine="in-process")
        checker.check(repeat, f"traced {len(traced) + 1}")
        traced.append(repeat.msg_per_s)
    calls, profiled, counters = count_calls(workload, seed)
    checker.check(profiled, "call count")
    fingerprint = dict(profiled.fingerprint)
    rounds = 0
    if workload.kind == "mesh":
        relayed = run_repeat(workload, seed)
        checker.check(relayed, "worker")
        rounds = fingerprint["rounds"] = relayed.fingerprint["rounds"]

    self_seconds = tracer.layer_self_seconds()
    m = {
        f"{layer}.self_share": self_seconds[layer] / tracer.window_seconds
        for layer in LAYERS
    }
    m.update(count_metrics(workload, calls, profiled, counters))
    m["sharding.rounds"] = rounds
    m["sharding.events_per_round"] = (
        fingerprint["events"] / rounds if rounds else 0.0
    )
    m["sharding.sync_share"] = (
        1.0 - tracer.inclusive("Shard", "run_until_blocked")
        / tracer.inclusive("InProcessEngine", "run")
        if workload.kind == "mesh" else 0.0
    )
    # Each untraced repeat runs right before its traced twin; the ratio
    # within a pair cancels the host's slow speed drift.
    m["trace.overhead_frac"] = statistics.median(
        u / t for u, t in zip(untraced, traced)
    ) - 1.0
    notes = {"trace.overhead_frac": (
        f"{len(traced)} traced vs {len(untraced)} untraced repeats"
    )}
    return m, notes, fingerprint


PER_LAYER_UNITS = {
    "steps_per_msg": "steps/msg",
    "events_per_msg": "events/msg",
    "walks_per_msg": "walks/msg",
    "switches_per_msg": "switches/msg",
    "bytes_copied_per_msg": "bytes/msg",
    "in_high_water_bytes": "bytes",
    "updates_per_msg": "updates/msg",
    "rounds": "count",
    "events_per_round": "events/round",
    "calls_per_msg": "calls/msg",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "fraction")


def comparison(name: str, value: float, workload, seed: int, baseline: dict,
               facts: dict) -> str:
    """How ``value`` compares with the recorded baseline, if it can."""
    entry = baseline.get("workloads", {}).get(workload.name, {})
    if seed != workload.default_seed:
        return ""
    recorded = {**entry.get("end_to_end", {}), **entry.get("per_layer", {})}
    if name not in recorded:
        return ""
    if name in HOST_METRICS or name.endswith("self_share") or name.startswith("trace."):
        differ = [
            f"{k} {baseline['host'][k]} vs {facts[k]}"
            for k in ("nproc", "python", "platform")
            if baseline.get("host", {}).get(k) != facts[k]
        ]
        if differ:
            return "baseline not comparable: host differs (" + "; ".join(differ) + ")"
    base = recorded[name]
    if base == 0:
        return f"baseline {base:g}"
    return f"baseline {base:.6g} ({(value - base) / abs(base):+.1%})"


def run_all(names, args) -> int:
    """Every workload in a process of its own, so each peak RSS is its own."""
    worst = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the repeats run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} (choose from "
            + ", ".join(WORKLOADS) + ", or all)"
        )
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    baseline = load_baseline()
    recorded = (
        baseline.get("workloads", {}).get(workload.name, {})
        .get("fingerprints", {}).get(str(seed))
    )
    facts = host_facts()
    checker = Checker(recorded)

    if args.trace:
        metrics, notes, fingerprint = measure_layers(
            workload, seed, args.seconds, checker
        )
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, notes, fingerprint = measure_end_to_end(
            workload, seed, args.seconds, checker
        )
        units = dict(END_TO_END_UNITS)
    fail_frac = checker.failed / checker.attempted

    print(f"perfbench {workload.name} seed={seed} trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    rows = list(metrics.items())
    if not args.trace:
        rows.append(("msg_fail_frac", fail_frac))
        units["msg_fail_frac"] = "fraction"
        notes["msg_fail_frac"] = (
            f"{checker.failed} of {checker.attempted} messages"
        )
    for name, value in rows:
        extra = "; ".join(
            x for x in (
                notes.get(name, ""),
                comparison(name, value, workload, seed, baseline, facts),
            ) if x
        )
        print(f"  {name:32s} {value:14.6g} {units[name]:12s} {extra}")
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    if recorded is None:
        print(f"fingerprint check: seed {seed} not recorded; repeats must agree")
    else:
        print(f"fingerprint check: against the recorded seed {seed}")
    for problem in checker.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
