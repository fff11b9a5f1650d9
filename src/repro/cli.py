"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``  -- print the active cost model and its calibration anchors.
* ``fig8``  -- run the Figure 8 bandwidth sweep and print the curve.
* ``init``  -- compare UDMA vs traditional initiation cost.
* ``demo``  -- run one traced transfer and render its pipeline timeline.
* ``metrics`` -- run a small workload and dump the metrics registry.
* ``trace`` -- run one cluster transfer and print its causal span tree
  (optionally exporting a Perfetto-loadable Chrome trace).
* ``chaos`` -- deterministic adversarial schedules (or sharded-cluster
  specs) with always-on invariant auditing, judged by the twin-run
  differential oracles of ``repro.chaos``; failures are shrunk to a
  paste-ready reproducer and a ``--replay`` artifact.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import ClusterConfig, Machine, MachineConfig, ShrimpCluster
from repro.bench import (
    bandwidth_curve,
    fig8_sizes,
    make_payload,
    measure_peak_bandwidth,
)
from repro.devices import SinkDevice
from repro.params import shrimp
from repro.sim.timeline import legend, render_timeline
from repro.userlib import DeviceRef, MemoryRef, Sender, UdmaUser


def _cmd_info(args: argparse.Namespace) -> int:
    costs = shrimp()
    print("SHRIMP-calibrated cost model:")
    print(f"  CPU clock                 {costs.cpu_hz / 1e6:.0f} MHz")
    print(f"  page size                 {costs.page_size} bytes")
    print(f"  uncached I/O reference    {costs.io_ref_cycles} cycles")
    print(f"  UDMA initiation           {costs.udma_initiation_cycles} cycles "
          f"= {costs.cycles_to_us(costs.udma_initiation_cycles):.2f} us "
          "(paper anchor: ~2.8 us)")
    print(f"  traditional DMA (1 page)  "
          f"{costs.traditional_dma_overhead_cycles(1)} cycles "
          f"= {costs.cycles_to_us(costs.traditional_dma_overhead_cycles(1)):.1f} us")
    print(f"  DMA fill bandwidth        "
          f"{costs.bytes_per_second(costs.dma_bytes_per_cycle) / 1e6:.1f} MB/s")
    print(f"  wire bandwidth            "
          f"{costs.bytes_per_second(costs.wire_bytes_per_cycle) / 1e6:.1f} MB/s")
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    cluster = ShrimpCluster(config=ClusterConfig(num_nodes=2, mem_size=1 << 21))
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, 1 << 19)
    channel = cluster.create_channel(0, 1, rx, buf, 1 << 19)
    tx = cluster.node(0).create_process("tx")
    sender = Sender(cluster, tx, channel)
    peak = measure_peak_bandwidth(sender)
    print("Figure 8: % of peak bandwidth vs message size "
          f"(peak {cluster.costs.bytes_per_second(peak) / 1e6:.1f} MB/s)")
    for size, bw in bandwidth_curve(sender, fig8_sizes()):
        pct = bw / peak * 100
        print(f"  {size:6d} B  {pct:5.1f}%  {'#' * int(pct / 2)}")
    return 0


def _cmd_init(args: argparse.Namespace) -> int:
    machine = Machine(config=MachineConfig(mem_size=1 << 20))
    machine.attach_device(SinkDevice("sink", size=1 << 16))
    p = machine.create_process("app")
    buf = machine.kernel.syscalls.alloc(p, 4096)
    grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
    udma = UdmaUser(machine, p)
    machine.cpu.write_bytes(buf, make_payload(64))
    udma.transfer(MemoryRef(buf), DeviceRef(grant), 4)  # warm mappings
    machine.run_until_idle()

    before = machine.cpu.charged_cycles
    machine.cpu.execute(machine.costs.udma_align_check_cycles)
    status = udma.initiate(grant, machine.proxy(buf), 64)
    udma_cycles = machine.cpu.charged_cycles - before
    machine.run_until_idle()
    assert status.started

    t0 = machine.clock.now
    machine.kernel.syscalls.dma(p, "sink", 0, buf, 64, to_device=True)
    trad_cycles = machine.clock.now - t0

    us = machine.costs.cycles_to_us
    print(f"UDMA initiation:        {udma_cycles:6d} cycles = {us(udma_cycles):6.2f} us")
    print(f"traditional DMA (64 B): {trad_cycles:6d} cycles = {us(trad_cycles):6.2f} us")
    print(f"ratio: {trad_cycles / udma_cycles:.1f}x")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    machine = Machine(config=MachineConfig(mem_size=1 << 20, record_trace=True))
    machine.attach_device(SinkDevice("sink", size=1 << 16))
    p = machine.create_process("app")
    buf = machine.kernel.syscalls.alloc(p, 8192)
    grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
    udma = UdmaUser(machine, p)
    machine.cpu.write_bytes(buf, make_payload(args.nbytes))
    machine.tracer.clear()
    udma.transfer(MemoryRef(buf), DeviceRef(grant), args.nbytes)
    machine.run_until_idle()
    print(f"one {args.nbytes}-byte UDMA transfer, traced:")
    print(render_timeline(machine.tracer.events, width=64))
    print(f"\nlegend: {legend()}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis import render
    from repro.userlib import DeviceRef, MemoryRef

    machine = Machine(config=MachineConfig(mem_size=1 << 20))
    machine.attach_device(SinkDevice("sink", size=1 << 16))
    p = machine.create_process("app")
    buf = machine.kernel.syscalls.alloc(p, 8192)
    grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
    udma = UdmaUser(machine, p)
    for i, size in enumerate((64, 512, 4096)):
        machine.cpu.write_bytes(buf, make_payload(size, seed=i + 1))
        udma.transfer(MemoryRef(buf), DeviceRef(grant), size)
        machine.run_until_idle()
    print("system counters after a small workload:")
    print(render(machine.metrics()))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import ObsConfig

    cluster = ShrimpCluster(
        config=ClusterConfig(
            num_nodes=2, mem_size=1 << 21, obs=ObsConfig(spans=True)
        )
    )
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, 1 << 16)
    channel = cluster.create_channel(0, 1, rx, buf, 1 << 16)
    tx = cluster.node(0).create_process("tx")
    sender = Sender(cluster, tx, channel)
    sender.send_bytes(make_payload(args.nbytes))
    cluster.run_until_idle()

    tracker = cluster.obs.spans
    assert tracker is not None
    print(f"one {args.nbytes}-byte transfer, as a causal span tree:")
    for root in tracker.roots():
        print(tracker.render_tree(root.id))
    if args.json:
        from repro.obs import write_chrome_trace

        write_chrome_trace(tracker, args.json, costs=cluster.costs)
        print(f"\n(Chrome trace written to {args.json}; "
              "open it at https://ui.perfetto.dev)")
    return 0


def _parse_backend_specs(spec: str) -> List[str]:
    """``--backend`` value -> ordered backend spec list, proxy first.

    ``all`` selects the three stock backends.  A comma list selects
    specific specs (``name`` or ``name:planted-bug``); the proxy
    reference is prepended when absent, since conformance is always
    measured against the paper's scheme.
    """
    from repro.chaos import PROTECTION_BACKENDS

    if spec == "all":
        return list(PROTECTION_BACKENDS)
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if all(name.partition(":")[0] != "proxy" for name in names):
        names.insert(0, "proxy")
    if len(names) < 2:
        names = list(PROTECTION_BACKENDS)
    return names


def _chaos_kind(args: argparse.Namespace) -> str:
    """The campaign the flags select (one of ``repro.chaos.CAMPAIGNS``).

    Exactly one flag family selects it; every other flag is either
    orthogonal or scoped to one campaign (see the ``chaos --help``
    epilog).  A ``--replay`` artifact overrides it with its own kind.
    """
    from repro.chaos import oracles

    if args.backend is not None:
        return oracles.CONFORMANCE
    if args.no_pool:
        return oracles.POOLING
    if args.shards is not None:
        return oracles.SHARDING
    return oracles.SCHEDULE


def _validate_chaos(args: argparse.Namespace, kind: str) -> Optional[str]:
    """Reject unsupported flag combinations with a one-line reason."""
    from repro.chaos import oracles

    if kind == oracles.CONFORMANCE:
        if args.shards is not None or args.no_pool:
            return "--backend and --shards/--no-pool are distinct modes"
        for flag, name in (
            (args.reliable, "--reliable"),
            (args.iommu, "--iommu"),
            (args.profile, "--profile"),
            (args.break_mode, "--break"),
            (args.checkpoint_every, "--checkpoint-every"),
        ):
            if flag:
                return f"{name} is not supported in --backend mode"
    elif kind != oracles.SCHEDULE:
        for flag, name in (
            (args.reliable, "--reliable"),
            (args.profile, "--profile"),
            (args.break_mode, "--break"),
            (args.checkpoint_every, "--checkpoint-every"),
        ):
            if flag:
                return f"{name} is not supported in --shards/--no-pool mode"
    else:
        if args.iommu and args.nodes is not None and args.nodes < 2:
            return "--iommu needs a cluster (--nodes 2 or more)"
        if args.checkpoint_every is not None and args.checkpoint_every <= 0:
            return "--checkpoint-every needs a positive action count"
    return None


def _chaos_flags(args: argparse.Namespace, kind: str) -> dict:
    """The campaign flags the command line sets for ``kind``."""
    from repro.chaos import oracles

    if kind == oracles.SCHEDULE:
        return dict(nodes=args.nodes, break_mode=args.break_mode,
                    no_diff=args.no_diff, reliable=args.reliable,
                    iommu=args.iommu)
    if kind == oracles.CONFORMANCE:
        return dict(nodes=args.nodes,
                    backends=_parse_backend_specs(args.backend or "all"),
                    check_determinism=args.check_determinism)
    return dict(num_shards=args.shards or 1, engine=args.engine,
                no_audit=args.no_audit,
                mode="pooling" if kind == oracles.POOLING else "shards")


def _chaos_subjects(args: argparse.Namespace, kind: str) -> list:
    """The ``(seed, subject)`` pairs the command line selects for ``kind``."""
    from repro.chaos import generate_schedule, oracles
    from repro.sharding import ClusterSpec

    if kind == oracles.SCHEDULE:
        profile = args.profile or ("paging" if args.iommu else "default")
        return [(args.seed, generate_schedule(args.seed, args.steps, profile=profile))]
    count = (args.schedules if kind == oracles.CONFORMANCE else 3) if args.suite else 1
    seeds = range(args.seed, args.seed + count)
    if kind == oracles.CONFORMANCE:
        return [(s, generate_schedule(s, args.steps, profile="churn")) for s in seeds]
    nodes = args.nodes if args.nodes >= 4 else 16
    if args.suite:
        specs = oracles.suite_specs(
            num_nodes=nodes, seeds=tuple(seeds), iommu=args.iommu
        )
    else:
        specs = [ClusterSpec(num_nodes=nodes, seed=args.seed, iommu=args.iommu)]
    return [(None, spec) for spec in specs]


def _cmd_chaos(args: argparse.Namespace) -> int:
    """One driver for every campaign: schedule, backend, shards, pooling.

    Each subject (a schedule or a cluster spec) is judged by every spec
    of the campaign; the first failing subject is shrunk (schedules
    only), printed as a reproducer and written as a ``--replay``
    artifact.
    """
    from repro.chaos import (
        CAMPAIGNS,
        SCHEDULE_PROFILES,
        oracles,
        read_artifact,
        write_artifact,
    )
    from repro.chaos.world import BREAK_MODES
    from repro.errors import ConfigurationError
    from repro.protection import make_backend

    kind = _chaos_kind(args)
    problem = _validate_chaos(args, kind)
    if problem is not None:
        print(f"bad flag combination: {problem}", file=sys.stderr)
        return 2
    if args.nodes is None:
        # --iommu is a cluster feature: default to the smallest ring.
        args.nodes = 2 if args.iommu else 1
    if args.break_mode is not None and args.break_mode not in BREAK_MODES:
        print(f"unknown --break mode {args.break_mode!r}; "
              f"choose from {[m for m in BREAK_MODES if m]}", file=sys.stderr)
        return 2
    if args.profile is not None and args.profile not in SCHEDULE_PROFILES:
        print(f"unknown --profile {args.profile!r}; "
              f"choose from {sorted(SCHEDULE_PROFILES)}", file=sys.stderr)
        return 2

    replay_flags: dict = {}
    if args.replay is not None:
        replay_kind, replay_flags, subject, seed = read_artifact(args.replay)
        if replay_kind is not None and replay_kind not in CAMPAIGNS:
            print(f"unknown artifact kind {replay_kind!r} in {args.replay}; "
                  f"expected one of {sorted(CAMPAIGNS)}", file=sys.stderr)
            return 2
        kind = replay_kind or kind
        subjects = [(seed, subject)]
    else:
        subjects = _chaos_subjects(args, kind)
    # The artifact's own flags win: it replays the campaign that failed.
    flags = {**_chaos_flags(args, kind), **replay_flags}
    if kind == oracles.CONFORMANCE:
        try:
            for name in flags["backends"]:
                make_backend(name)  # validate names / planted bugs up front
        except ConfigurationError as exc:
            print(f"bad --backend spec: {exc}", file=sys.stderr)
            return 2
    if kind == oracles.SCHEDULE:
        flags["checkpoint_every"] = args.checkpoint_every
    campaign = CAMPAIGNS[kind](**flags)

    reports = campaign.run_suite(subjects, shrink_evals=args.max_shrink_evals)
    for report in reports:
        print(report.summary())
        if args.dump_log:
            for line in getattr(report.primary, "audit_log", ()):
                print(line)
    if reports and not reports[-1].ok:
        failing = reports[-1]
        print()
        print(failing.repro)
        if args.repro_file:
            write_artifact(failing, args.repro_file)
            print(f"\n(artifact written to {args.repro_file}; replay it with "
                  f"python -m repro chaos --replay {args.repro_file})")
        return 1
    print(f"{len(reports)} subject(s) clean")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SHRIMP UDMA reproduction (HPCA 1996) command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="print the cost model").set_defaults(func=_cmd_info)
    sub.add_parser("fig8", help="run the Figure 8 sweep").set_defaults(func=_cmd_fig8)
    sub.add_parser("init", help="initiation cost comparison").set_defaults(func=_cmd_init)
    demo = sub.add_parser("demo", help="run one traced transfer")
    demo.add_argument("--nbytes", type=int, default=2048,
                      help="transfer size in bytes (default 2048)")
    demo.set_defaults(func=_cmd_demo)
    sub.add_parser(
        "metrics", help="run a small workload and dump every counter"
    ).set_defaults(func=_cmd_metrics)
    trace = sub.add_parser(
        "trace",
        help="run one cluster transfer and print its causal span tree",
    )
    trace.add_argument("--nbytes", type=int, default=8192,
                       help="transfer size in bytes (default 8192)")
    trace.add_argument("--json", default=None, metavar="FILE",
                       help="also write a Perfetto-loadable Chrome trace")
    trace.set_defaults(func=_cmd_trace)
    chaos = sub.add_parser(
        "chaos",
        help="adversarial schedule + invariant auditing + differential oracle",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
mode matrix -- pick at most one mode; toggles compose as marked:

  mode (mutually exclusive; every mode runs specs on one twin-run kernel)
    (none)          schedule campaign: seeded adversarial schedule, invariant
                    auditing, fast-vs-reference differential oracle, shrinker
    --backend SPEC  protection-backend conformance: same schedule replayed
                    under several protection backends, identical outcomes
                    required (scoped flags: --schedules, --check-determinism)
    --shards K      sharded-PDES differential: K-shard run diffed bit-for-bit
                    against the single-process reference (scoped flags:
                    --engine, --no-audit)
    --no-pool       pooling differential (a shard-mode variant): fast lane
                    off vs on at --shards K (default 1)

  orthogonal toggles
    --reliable      schedule mode, cluster runs: ack/retransmit transport +
                    the eventual-delivery oracle (wire faults must converge)
    --iommu         schedule mode (cluster; --nodes defaults to 2) or shard
                    mode: virtual-address RDMA on every node + the
                    convergence oracle (paging faults must park-and-resume)
    --profile P     schedule mode: action mix (default | churn | paging);
                    defaults to "paging" with --iommu
    --suite         backend or shard mode: run the whole seeded suite
    --replay FILE   replay any failure artifact (--repro-file output): its
                    kind and flags select the mode; a bare JSON action list
                    replays under the mode the other flags select

  examples
    chaos --seed 7 --steps 200 --nodes 2 --reliable
    chaos --iommu --steps 300                  # paging campaign, 2 nodes
    chaos --iommu --shards 4                   # sharded iommu differential
    chaos --backend all --suite --schedules 8
    chaos --replay failure.json                # any mode's artifact
""",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="schedule RNG seed (default 0)")
    chaos.add_argument("--steps", type=int, default=100,
                       help="schedule length (default 100)")
    chaos.add_argument("--nodes", type=int, default=None,
                       help="1 = single node + sink; >= 2 = cluster ring "
                            "(default 1, or 2 with --iommu)")
    chaos.add_argument("--break", dest="break_mode", default=None,
                       metavar="MODE",
                       help="plant a kernel bug: no-inval | stale-xlat")
    chaos.add_argument("--no-diff", action="store_true",
                       help="skip the fast-vs-reference differential oracle")
    chaos.add_argument("--replay", default=None, metavar="FILE",
                       help="replay a failure artifact (any mode) or a JSON "
                            "action list instead of generating")
    chaos.add_argument("--repro-file", default=None, metavar="FILE",
                       help="on failure, also write the replayable JSON "
                            "artifact here")
    chaos.add_argument("--dump-log", action="store_true",
                       help="print the full per-action audit log")
    chaos.add_argument("--max-shrink-evals", type=int, default=200,
                       help="ddmin replay budget (default 200)")
    chaos.add_argument("--shards", type=int, default=None, metavar="K",
                       help="sharding differential mode: diff a K-shard "
                            "PDES run against the single-process reference "
                            "(bit-identical logs, digests, counters)")
    chaos.add_argument("--no-pool", action="store_true",
                       help="pooling differential mode: run the same "
                            "schedule with the packet-pool/pipelining fast "
                            "lane off vs on (at --shards K, default 1) and "
                            "require bit-identical logs, digests, counters")
    chaos.add_argument("--engine", default="in-process",
                       choices=["in-process", "worker", "both"],
                       help="sharded engine(s) to check (with --shards)")
    chaos.add_argument("--suite", action="store_true",
                       help="run the whole seeded spec suite (with --shards)")
    chaos.add_argument("--no-audit", action="store_true",
                       help="skip per-operation invariant auditing "
                            "(with --shards)")
    chaos.add_argument("--backend", default=None, metavar="SPEC",
                       help="protection differential mode: replay each "
                            "schedule under multiple protection backends "
                            "and require identical protection outcomes. "
                            "SPEC is proxy | captable | handler | all, or "
                            "a comma list; name:bug plants a backend bug "
                            "(e.g. captable:stale-cap)")
    chaos.add_argument("--schedules", type=int, default=8, metavar="M",
                       help="seeded schedules per --backend --suite "
                            "campaign (default 8)")
    chaos.add_argument("--check-determinism", action="store_true",
                       help="also twin-run each backend and require "
                            "bit-identical audit logs (with --backend)")
    chaos.add_argument("--reliable", action="store_true",
                       help="enable the ack/retransmit transport and hold "
                            "the run to the eventual-delivery oracle "
                            "(cluster runs)")
    chaos.add_argument("--iommu", action="store_true",
                       help="enable the virtual-address RDMA tier on every "
                            "node and hold the run to the convergence "
                            "oracle (cluster runs; composes with --shards)")
    chaos.add_argument("--profile", default=None, metavar="P",
                       help="schedule action-mix profile: default | churn | "
                            "paging (default: paging with --iommu)")
    chaos.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="schedule mode: snapshot the live world every N "
                            "actions so shrink candidates resume from the "
                            "checkpointed prefix instead of replaying from "
                            "t=0 (exact -- reports and shrunk reproducers "
                            "are bit-identical with or without checkpoints)")
    chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
