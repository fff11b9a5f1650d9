"""Host-throughput bench runner and regression gate.

Record a trajectory point::

    python benchmarks/run_bench.py --json BENCH_core.json

CI regression gate (tier-2)::

    python benchmarks/run_bench.py --quick --check BENCH_core.json

``--check`` exits non-zero if any scenario's host MB/s falls more than
``--tolerance`` (default 30%) below the committed baseline.  The wide
tolerance absorbs CI machine noise; a real regression (a copy added back
to the data plane, an O(n) scan in the event queue) is far larger.  See
``docs/PERFORMANCE.md`` for the JSON schema and how to refresh baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for path in (os.path.join(_ROOT, "src"), _HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench_host_throughput import (  # noqa: E402
    HostResult,
    format_obs_overhead,
    format_reliability_overhead,
    format_results,
    format_scaling,
    run_all,
    run_obs_overhead,
    run_reliability_overhead,
    run_scaling_sweep,
    transfer_latency_profile,
)

SCHEMA = "shrimp-bench-host-throughput/1"
SCALE_SCHEMA = "shrimp-bench-scale/1"


def results_to_json(results, quick: bool) -> dict:
    return {
        "schema": SCHEMA,
        "quick": quick,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": {name: r.as_dict() for name, r in results.items()},
    }


def scale_results_to_json(results, quick: bool) -> dict:
    """BENCH_scale.json payload.  ``cpu_count`` is recorded so the gate
    can warn (rather than fail) when the baseline came from a machine
    with a different core count -- host msg/s is not comparable then."""
    return {
        "schema": SCALE_SCHEMA,
        "quick": quick,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "scenarios": {name: r.as_dict() for name, r in results.items()},
    }


def check_scale_against(results, baseline: dict, tolerance: float) -> "tuple[list, list]":
    """Gate scale results against a committed BENCH_scale.json.

    Returns ``(failures, warnings)``.  Simulated fields (cycles, events,
    deliveries) must match the baseline *exactly* when the workload
    matches -- they are deterministic -- while host messages/s gets the
    tier-2-style tolerance.  A differing ``cpu_count`` downgrades rate
    failures to warnings: the committed numbers came from different
    hardware, so a slowdown proves nothing.
    """
    failures, warnings = [], []
    same_cpu = baseline.get("cpu_count") == os.cpu_count()
    if not same_cpu:
        warnings.append(
            f"baseline cpu_count={baseline.get('cpu_count')} != host "
            f"cpu_count={os.cpu_count()}; host-rate regressions are "
            f"reported as warnings only"
        )
    base_scenarios = baseline.get("scenarios", {})
    for name, result in results.items():
        base = base_scenarios.get(name)
        if base is None:
            continue  # new scenario; nothing to regress against
        base_enabled = base.get("enabled", {})
        if base_enabled.get("messages") == result.enabled.get("messages"):
            # Same workload: the simulation is deterministic, so these
            # must be bit-identical across machines and Python builds.
            for key in ("sim_cycles", "events", "delivered", "retries",
                        "churns"):
                if base_enabled.get(key) != result.enabled.get(key):
                    failures.append(
                        f"{name}: simulated {key} diverged from baseline "
                        f"({result.enabled.get(key)!r} != "
                        f"{base_enabled.get(key)!r}) -- determinism break"
                    )
        base_rate = base_enabled.get("messages_per_sec", 0.0)
        rate = result.enabled.get("messages_per_sec", 0.0)
        floor = base_rate * (1.0 - tolerance)
        if base_rate and rate < floor:
            msg = (
                f"{name}: {rate:.0f} msg/s < floor {floor:.0f} "
                f"(baseline {base_rate:.0f} msg/s, "
                f"tolerance {tolerance:.0%})"
            )
            if same_cpu:
                failures.append(msg)
            else:
                warnings.append(msg)
    return failures, warnings


def check_obs_overhead(obs_result, tolerance: float) -> list:
    """Gate: default observability must cost <= ``tolerance`` vs baseline.

    Judges the median over interleaved rounds of the ``metrics`` mode's
    host MB/s (the library default every user gets) divided by the same
    round's ``baseline`` (plane fully disabled).  ``spans`` mode is
    reported but not gated -- recording spans is an opt-in debugging
    feature and is allowed to cost more.
    """
    runs = obs_result.runs
    if not runs.get("baseline") or not runs.get("metrics"):
        return ["obs-overhead: missing baseline or metrics measurement"]
    ratio = obs_result.median_ratio("metrics")
    if ratio < 1.0 - tolerance:
        return [
            f"obs-overhead: metrics mode runs at {ratio:.3f}x baseline host "
            f"MB/s (median of {len(runs['metrics'])} interleaved rounds), "
            f"below the {1.0 - tolerance:.3f}x floor (tolerance {tolerance:.0%})"
        ]
    return []


def check_against(results, baseline: dict, tolerance: float) -> list:
    """Return a list of failure strings (empty = pass)."""
    failures = []
    base_scenarios = baseline.get("scenarios", {})
    for name, result in results.items():
        base = base_scenarios.get(name)
        if base is None:
            continue  # new scenario; nothing to regress against
        floor = base["mb_per_s"] * (1.0 - tolerance)
        if result.mb_per_s < floor:
            failures.append(
                f"{name}: {result.mb_per_s:.2f} MB/s < floor {floor:.2f} "
                f"(baseline {base['mb_per_s']:.2f} MB/s, "
                f"tolerance {tolerance:.0%})"
            )
    return failures


def profile_call(fn, path: str, label: str, top: int = 25) -> object:
    """Run ``fn()`` under cProfile, append its top-``top`` cumulative
    entries to ``path``, and return ``fn``'s result."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    with open(path, "a") as fh:
        fh.write(f"==== {label} ====\n")
        fh.write(buf.getvalue())
        fh.write("\n")
    return result


def run_scale_mode(args) -> int:
    """The --scale suite: traffic-engine scenarios + BENCH_scale gate."""
    from bench_scale import (
        SCALE_SCENARIOS,
        check_identity,
        format_scale,
        run_scale,
        run_scale_scenario,
    )

    names = None
    if args.scenario:
        unknown = [n for n in args.scenario if n not in SCALE_SCENARIOS]
        if unknown:
            print(f"error: unknown scale scenario(s) {unknown}; choose "
                  f"from {sorted(SCALE_SCENARIOS)}", file=sys.stderr)
            return 2
        names = args.scenario
    baseline_flag = False if args.no_baseline else None

    if args.profile:
        results = {}
        for name, spec in SCALE_SCENARIOS.items():
            if names is not None and name not in names:
                continue
            results[name] = profile_call(
                lambda spec=spec: run_scale_scenario(
                    spec, quick=args.quick, baseline=baseline_flag
                ),
                args.profile, name,
            )
        print(f"profile written to {args.profile}")
    else:
        results = run_scale(
            quick=args.quick, names=names, baseline=baseline_flag,
            progress=lambda msg: print(msg, flush=True),
        )
    print(format_scale(results))

    # The fast lane must not change the simulation: refuse to report or
    # record a speedup over diverging cycles/counters.
    identity_failures = check_identity(results)
    if identity_failures:
        print("FAST-LANE IDENTITY VIOLATION:", file=sys.stderr)
        for failure in identity_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    if args.json:
        payload = scale_results_to_json(results, args.quick)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")

    if args.check:
        try:
            with open(args.check) as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline {args.check}: {exc}",
                  file=sys.stderr)
            return 2
        if baseline.get("schema") != SCALE_SCHEMA:
            print(f"error: {args.check} has schema "
                  f"{baseline.get('schema')!r}, expected {SCALE_SCHEMA!r}",
                  file=sys.stderr)
            return 2
        failures, warnings = check_scale_against(
            results, baseline, args.tolerance
        )
        for warning in warnings:
            print(f"warning: {warning}")
        if failures:
            print("SCALE REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"scale check ok vs {args.check} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH",
                        help="write results to PATH as JSON")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline JSON; exit 1 on "
                             "host-throughput regression")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI-friendly)")
    parser.add_argument("--scale", action="store_true",
                        help="run the traffic-engine scale suite "
                             "(bench_scale.py) instead of the core sweep; "
                             "--json/--check then use the "
                             "shrimp-bench-scale schema (BENCH_scale.json)")
    parser.add_argument("--scenario", action="append", metavar="NAME",
                        help="with --scale: run only the named scenario "
                             "(repeatable)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="with --scale: skip the pooling/pipelining-"
                             "disabled baseline passes (faster, but no "
                             "speedup or identity cross-check)")
    parser.add_argument("--profile", metavar="PATH",
                        help="run each scenario under cProfile and append "
                             "the top-25 cumulative entries per scenario "
                             "to PATH")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N host timing (default 3)")
    parser.add_argument("--warm-start", action="store_true",
                        help="build each scenario's world once and fork "
                             "it per repeat (repro.snapshot) instead of "
                             "reconstructing machines; simulated numbers "
                             "are bit-identical either way")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional MB/s drop for --check "
                             "(default 0.30)")
    parser.add_argument("--obs-overhead", action="store_true",
                        help="A/B the observability plane on the udma_send "
                             "path and gate the default (metrics) mode "
                             "against the disabled baseline")
    parser.add_argument("--obs-tolerance", type=float, default=0.02,
                        help="allowed fractional MB/s cost of default "
                             "observability for --obs-overhead "
                             "(default 0.02)")
    parser.add_argument("--reliability-overhead", action="store_true",
                        help="A/B the ack/retransmit transport on the "
                             "ping-pong path at 0%% and 1%% packet loss "
                             "(reported, not gated -- reliability is "
                             "opt-in)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="also run the cluster_mesh_64 shard-scaling "
                             "sweep (worker engine) at 1/2/4/... up to N "
                             "shards and append the scaling table")
    parser.add_argument("--no-sweep", action="store_true",
                        help="skip the scenario sweep (useful with "
                             "--obs-overhead / --reliability-overhead to "
                             "run only the A/B)")
    args = parser.parse_args(argv)

    if args.no_sweep and not (args.obs_overhead or args.reliability_overhead):
        parser.error("--no-sweep without --obs-overhead or "
                     "--reliability-overhead leaves nothing to run")
    if args.no_sweep and (args.check or args.json):
        parser.error("--no-sweep cannot be combined with --check/--json "
                     "(both need the scenario sweep)")
    if args.scale and (args.no_sweep or args.obs_overhead
                       or args.reliability_overhead or args.shards
                       or args.warm_start):
        parser.error("--scale is its own suite; combine it only with "
                     "--quick/--json/--check/--scenario/--no-baseline/"
                     "--profile")
    if (args.scenario or args.no_baseline) and not args.scale:
        parser.error("--scenario/--no-baseline require --scale")

    if args.profile:
        # Fresh file per invocation; profile_call appends per scenario.
        with open(args.profile, "w") as fh:
            fh.write(f"# cProfile top-25 cumulative, "
                     f"{'scale' if args.scale else 'core'} suite, "
                     f"quick={args.quick}\n\n")

    if args.scale:
        return run_scale_mode(args)

    results = {}
    if not args.no_sweep:
        if args.profile:
            # Profiling skews host timing, so run each scenario exactly
            # once under the profiler and report those (not best-of-N).
            from bench_host_throughput import SCENARIOS

            for spec in SCENARIOS.values():
                kwargs = dict(spec.quick if args.quick else spec.full)
                if args.warm_start and spec.warm:
                    kwargs["warm_start"] = True
                results[spec.name] = profile_call(
                    lambda spec=spec, kwargs=kwargs: spec.fn(**kwargs),
                    args.profile, spec.name,
                )
            print(f"profile written to {args.profile}")
        else:
            results = run_all(quick=args.quick, repeats=args.repeats,
                              warm_start=args.warm_start)
        print(format_results(results))

    obs_failures = []
    obs_results = None
    if args.obs_overhead:
        obs_results = run_obs_overhead(quick=args.quick, repeats=args.repeats)
        print()
        print(format_obs_overhead(obs_results))
        latency = transfer_latency_profile()
        print(f"udma transfer latency: p50={latency['p50']} "
              f"p99={latency['p99']} cycles over {latency['count']} transfers")
        obs_failures = check_obs_overhead(obs_results, args.obs_tolerance)

    scaling_results = None
    if args.shards:
        scaling_results = run_scaling_sweep(
            max_shards=args.shards, quick=args.quick, repeats=args.repeats
        )
        print()
        print(format_scaling(scaling_results))

    rel_results = None
    if args.reliability_overhead:
        rel_results = run_reliability_overhead(
            quick=args.quick, repeats=args.repeats
        )
        print()
        print(format_reliability_overhead(rel_results))

    if args.json:
        payload = results_to_json(results, args.quick)
        if obs_results is not None:
            payload["obs_overhead"] = obs_results.as_dict()
        if rel_results is not None:
            payload["reliability_overhead"] = {
                mode: r.as_dict() for mode, r in rel_results.items()
            }
        if scaling_results is not None:
            payload["scaling"] = {
                str(shards): r.as_dict()
                for shards, r in scaling_results.items()
            }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")

    if args.check:
        try:
            with open(args.check) as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline {args.check}: {exc}",
                  file=sys.stderr)
            return 2
        if baseline.get("schema") != SCHEMA:
            print(f"error: {args.check} has schema "
                  f"{baseline.get('schema')!r}, expected {SCHEMA!r}",
                  file=sys.stderr)
            return 2
        failures = check_against(results, baseline, args.tolerance)
        if failures:
            print("HOST-THROUGHPUT REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"check ok: no scenario regressed more than "
              f"{args.tolerance:.0%} vs {args.check}")

    if obs_failures:
        print("OBSERVABILITY OVERHEAD REGRESSION:", file=sys.stderr)
        for failure in obs_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if args.obs_overhead:
        print(f"obs-overhead ok: default observability costs <= "
              f"{args.obs_tolerance:.0%} host MB/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
