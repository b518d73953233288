#!/usr/bin/env python
"""Composing resilience mechanisms: pipeline FT + ECC datapath + adaptive
routing.

The paper's protected router defends the *control pipeline*.  Two
complementary mechanisms from the literature compose with it cleanly in
this library:

* **ECC on the datapath** (Vicis): Hamming SECDED codewords survive
  bit-flips in defective buffers/wires;
* **fault-aware adaptive routing** (west-first turn model): when an
  output port dies *entirely* (normal + secondary paths — beyond what
  the in-router redundancy can absorb), detourable traffic routes around
  the dead port at the network level.

This example exercises all three layers at once and reports what each
contributed.

Run:  python examples/composed_resilience.py
"""

from repro.comparison.ecc_sim import run_ecc_study
from repro.config import NetworkConfig, PORT_EAST, RouterConfig, SimulationConfig
from repro.core import protected_router_factory
from repro.faults import FaultSite, FaultTimeline, FaultUnit, TimelineEvent
from repro.network import NoCSimulator
from repro.traffic import SyntheticTraffic


def layer1_pipeline_ft() -> None:
    print("=== layer 1: the paper's in-router fault tolerance ===")
    net = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4))
    victim = net.node_id(1, 1)
    faults = FaultTimeline([
        TimelineEvent(0, FaultSite(victim, FaultUnit.RC_PRIMARY, 4)),
        TimelineEvent(0, FaultSite(victim, FaultUnit.SA1_ARBITER, 4)),
        TimelineEvent(0, FaultSite(victim, FaultUnit.XB_MUX, PORT_EAST)),
    ])
    sim = NoCSimulator(
        net,
        SimulationConfig(warmup_cycles=300, measure_cycles=3000,
                         drain_cycles=4000, seed=5),
        SyntheticTraffic(net, injection_rate=0.08, rng=5),
        router_factory=protected_router_factory(net),
        fault_schedule=faults,
    )
    res = sim.run()
    print(f"  3 pipeline faults in one router: latency "
          f"{res.avg_network_latency:.2f} cycles, "
          f"{res.stats.packets_ejected}/{res.stats.packets_created} delivered")


def layer2_ecc() -> None:
    print("\n=== layer 2: ECC shields the datapath (Vicis-style) ===")
    study = run_ecc_study(faulty_ports_per_router=0.4, measure_cycles=2500,
                          seed=3)
    print(f"  payload bits flipped in transit : {study.bits_flipped}")
    print(f"  deliveries clean                : {study.clean}")
    print(f"  deliveries corrected by SECDED  : {study.corrected}")
    print(f"  detected-uncorrectable          : {study.uncorrectable}")
    print(f"  silent corruptions              : {study.silent_corruptions}")
    print(f"  data protected                  : {study.protected_fraction:.1%}")


def layer3_adaptive_routing() -> None:
    print("\n=== layer 3: adaptive routing detours a dead output port ===")
    from repro.router.flit import Packet
    from repro.traffic import TraceTraffic

    net = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4))
    victim = net.node_id(1, 1)
    dead_output = [
        TimelineEvent(0, FaultSite(victim, FaultUnit.XB_MUX, PORT_EAST)),
        TimelineEvent(0, FaultSite(victim, FaultUnit.XB_SECONDARY, PORT_EAST)),
    ]

    def flows():
        return [
            Packet(src=net.node_id(0, 1), dest=net.node_id(3, 2),
                   size_flits=1, creation_cycle=10 + 2 * i)
            for i in range(25)
        ]

    for kind in ("xy", "west_first"):
        sim = NoCSimulator(
            net,
            SimulationConfig(warmup_cycles=0, measure_cycles=500,
                             drain_cycles=2500, seed=7,
                             watchdog_cycles=900),
            TraceTraffic(flows()),
            router_factory=protected_router_factory(net),
            fault_schedule=FaultTimeline(dead_output),
            routing_kind=kind,
        )
        res = sim.run()
        status = "BLOCKED" if res.blocked else "ok"
        print(f"  {kind:<11}: delivered "
              f"{res.stats.packets_ejected}/{res.stats.packets_created} "
              f"[{status}]")


def main() -> None:
    layer1_pipeline_ft()
    layer2_ecc()
    layer3_adaptive_routing()


if __name__ == "__main__":
    main()
