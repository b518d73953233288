#!/usr/bin/env python
"""Fault tolerance in action: baseline vs protected router under faults.

This example reproduces the paper's core claim at network scale:

1. Run a mesh of *baseline* routers, inject one SA-arbiter fault into a
   central router, and watch traffic wedge (the watchdog trips).
2. Run the *protected* router with the same fault — and then with a whole
   barrage of faults, one per stage type — and watch it keep delivering
   packets with only a small latency increase, while its FT mechanism
   counters (duplicate RC lookups, borrowed arbiters, bypass grants, VC
   transfers, secondary-path crossings) light up.

Run:  python examples/fault_tolerant_noc.py
"""

from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.core import protected_router_factory
from repro.faults import FaultSite, FaultTimeline, FaultUnit, TimelineEvent
from repro.network import NoCSimulator, baseline_router_factory
from repro.traffic import SyntheticTraffic

NETWORK = NetworkConfig(
    width=4, height=4, router=RouterConfig(num_vcs=4, buffer_depth=4)
)
CENTRAL_ROUTER = NETWORK.node_id(1, 1)

#: a fault in the SA stage-1 arbiter of the central router's west port
SINGLE_FAULT = [TimelineEvent(100, FaultSite(CENTRAL_ROUTER, FaultUnit.SA1_ARBITER, 4))]

#: one tolerated fault in every pipeline stage of the central router
MULTI_FAULT = [
    TimelineEvent(100, FaultSite(CENTRAL_ROUTER, FaultUnit.RC_PRIMARY, 4)),
    TimelineEvent(150, FaultSite(CENTRAL_ROUTER, FaultUnit.VA1_ARBITER_SET, 4, 0)),
    TimelineEvent(200, FaultSite(CENTRAL_ROUTER, FaultUnit.SA1_ARBITER, 2)),
    TimelineEvent(250, FaultSite(CENTRAL_ROUTER, FaultUnit.XB_MUX, 2)),
]


def run(protected: bool, faults, label: str):
    sim_config = SimulationConfig(
        warmup_cycles=500,
        measure_cycles=4_000,
        drain_cycles=4_000,
        seed=7,
        watchdog_cycles=1_500,
    )
    traffic = SyntheticTraffic(NETWORK, injection_rate=0.10, rng=7)
    factory = (
        protected_router_factory(NETWORK)
        if protected
        else baseline_router_factory(NETWORK)
    )
    sim = NoCSimulator(
        NETWORK,
        sim_config,
        traffic,
        router_factory=factory,
        fault_schedule=FaultTimeline(faults) if faults else None,
    )
    result = sim.run()
    status = "BLOCKED (watchdog)" if result.blocked else (
        "drained" if result.drained else "still draining"
    )
    lat = result.avg_network_latency
    print(f"{label:<42} latency={lat:7.2f}  delivered="
          f"{result.stats.packets_ejected:5d}  [{status}]")
    return result


def main() -> None:
    print("-- baseline router --")
    run(False, [], "fault-free")
    run(False, SINGLE_FAULT, "one SA-arbiter fault (central router)")

    print("\n-- protected router (the paper's design) --")
    run(True, [], "fault-free")
    run(True, SINGLE_FAULT, "one SA-arbiter fault (central router)")
    result = run(True, MULTI_FAULT, "one fault in every pipeline stage")

    rs = result.router_stats
    print("\nfault-tolerance mechanisms exercised:")
    print(f"  duplicate RC computations : {rs.rc_duplicate_computations}")
    print(f"  borrowed VA allocations   : {rs.va_borrowed_grants}")
    print(f"  SA bypass grants          : {rs.sa_bypass_grants}")
    print(f"  VC transfers              : {rs.vc_transfers}")
    print(f"  secondary-path crossings  : {rs.secondary_path_grants}")


if __name__ == "__main__":
    main()
