"""Command-line simulation driver: ``python -m repro.tools``.

A downstream-user front end for one-off simulations without writing a
script: pick mesh size, router flavour, routing, traffic, load, fault
count — get the latency/throughput report and the fault-tolerance
mechanism counters.

Examples::

    python -m repro.tools --width 8 --height 8 --rate 0.1
    python -m repro.tools --router protected --faults 32 --pattern hotspot
    python -m repro.tools --app ocean --routing west_first --cycles 5000
    python -m repro.tools --router baseline --faults 1 --watchdog 2000
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .config import NetworkConfig, RouterConfig, SimulationConfig
from .faults.injector import RandomFaultSchedule
from .network.batched import router_factory
from .network.simulator import NoCSimulator
from .traffic.apps import make_app_traffic
from .traffic.generator import COHERENCE_MIX, SINGLE_FLIT_MIX, SyntheticTraffic
from .traffic.patterns import available_patterns, make_pattern


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="Run one NoC simulation and print the report.  The engine follows "
        "the load: from 4 flits/cycle over the whole fabric (--rate x nodes) the run is "
        "one lane of the array engine, below that the event loop; same report either way.",
    )
    p.add_argument("--width", type=int, default=8, help="mesh width")
    p.add_argument("--height", type=int, default=8, help="mesh height")
    p.add_argument("--vcs", type=int, default=4, help="VCs per input port")
    p.add_argument("--vnets", type=int, default=1, help="virtual networks")
    p.add_argument("--buffer-depth", type=int, default=4, help="flits per VC")
    p.add_argument(
        "--router",
        choices=["protected", "baseline"],
        default="protected",
        help="the paper's fault-tolerant router or the unprotected baseline",
    )
    p.add_argument(
        "--routing",
        choices=["xy", "yx", "west_first"],
        default="xy",
    )
    p.add_argument(
        "--pattern",
        choices=available_patterns(),
        default="uniform_random",
        help="synthetic spatial pattern (ignored with --app)",
    )
    p.add_argument(
        "--app",
        default=None,
        help="SPLASH-2/PARSEC surrogate app (overrides --pattern/--rate)",
    )
    p.add_argument(
        "--rate", type=float, default=0.08, help="flits/node/cycle"
    )
    p.add_argument(
        "--coherence-mix",
        action="store_true",
        help="1-flit control + 5-flit data packets (needs --vnets 2)",
    )
    p.add_argument("--cycles", type=int, default=10_000, help="measured cycles")
    p.add_argument("--warmup", type=int, default=1_000)
    p.add_argument("--drain", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--faults",
        type=int,
        default=0,
        help="random tolerated faults injected during warmup",
    )
    p.add_argument(
        "--allow-fatal-faults",
        action="store_true",
        help="let random faults form router-killing combinations",
    )
    p.add_argument("--watchdog", type=int, default=100_000)
    return p


def run(args: argparse.Namespace):
    net = NetworkConfig(
        width=args.width,
        height=args.height,
        router=RouterConfig(
            num_vcs=args.vcs,
            num_vnets=args.vnets,
            buffer_depth=args.buffer_depth,
        ),
    )
    sim_cfg = SimulationConfig(
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        drain_cycles=args.drain,
        seed=args.seed,
        watchdog_cycles=args.watchdog,
    )
    if args.app:
        traffic = make_app_traffic(net, args.app, rng=args.seed)
    else:
        mix = COHERENCE_MIX if args.coherence_mix else SINGLE_FLIT_MIX
        traffic = SyntheticTraffic(
            net,
            injection_rate=args.rate,
            pattern=make_pattern(args.pattern, net),
            mix=mix,
            rng=args.seed,
        )
    schedule = None
    if args.faults:
        schedule = RandomFaultSchedule(
            net.router,
            net.num_nodes,
            mean_interval=max(1.0, args.warmup / (2 * args.faults)),
            num_faults=args.faults,
            rng=args.seed + 7919,
            first_fault_at=0,
            avoid_failure=not args.allow_fatal_faults,
        )
    sim = NoCSimulator(
        net,
        sim_cfg,
        traffic,
        router_factory=router_factory(args.router, net),
        fault_schedule=schedule,
        routing_kind=args.routing,
    )
    t0 = time.time()
    result = sim.run()
    elapsed = time.time() - t0
    return net, sim_cfg, result, elapsed


def report(net, sim_cfg, result, elapsed) -> str:
    stats = result.stats
    rs = result.router_stats
    lines = [
        f"fabric                : {net.width}x{net.height} mesh, "
        f"{net.router.num_vcs} VCs, {net.router.num_vnets} vnet(s)",
        f"cycles simulated      : {result.cycles} "
        f"({result.cycles / max(elapsed, 1e-9):,.0f} cycles/s)",
        f"faults injected       : {result.faults_injected}",
        f"packets (created/ejected): {stats.packets_created}/"
        f"{stats.packets_ejected}",
        f"avg network latency   : {stats.avg_network_latency:.2f} cycles",
        f"avg total latency     : {stats.avg_total_latency:.2f} cycles",
        f"avg hops              : {stats.avg_hops:.2f}",
        f"throughput            : "
        f"{stats.flits_ejected / (sim_cfg.measure_cycles * net.num_nodes):.4f}"
        " flits/node/cycle",
        f"status                : "
        + ("BLOCKED (watchdog tripped)" if result.blocked
           else "drained" if result.drained else "drain budget exhausted"),
    ]
    if result.faults_injected:
        lines += [
            "fault-tolerance mechanisms:",
            f"  duplicate RC computations : {rs.rc_duplicate_computations}",
            f"  borrowed VA allocations   : {rs.va_borrowed_grants}",
            f"  VA stage-2 retries        : {rs.va_stage2_fault_retries}",
            f"  SA bypass grants          : {rs.sa_bypass_grants}",
            f"  VC transfers              : {rs.vc_transfers}",
            f"  secondary-path crossings  : {rs.secondary_path_grants}",
        ]
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    net, sim_cfg, result, elapsed = run(args)
    print(report(net, sim_cfg, result, elapsed))
    return 2 if result.blocked else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
