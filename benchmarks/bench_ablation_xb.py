"""Ablation: crossbar secondary path vs output-port retirement (Section V-D).

Without the demux/P-mux correction circuitry, a crossbar mux fault makes
its output port unreachable — on a mesh with dimension-order routing that
strands every packet needing the port.  With the secondary path, the same
fault costs only shared-mux bandwidth.  The bench also quantifies that
bandwidth cost: eastbound traffic through the faulty router's shared mux
slows, but completes.
"""

import pytest

from conftest import run_once
from repro.config import (
    NetworkConfig,
    PORT_EAST,
    RouterConfig,
    SimulationConfig,
)
from repro.core.protected_router import protected_router_factory
from repro.faults.sites import FaultSite, FaultUnit
from repro.faults.timeline import FaultTimeline, TimelineEvent
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.traffic.generator import SyntheticTraffic


def run_router(protected: bool, faulty: bool):
    net = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4))
    victim = net.node_id(1, 1)
    schedule = None
    if faulty:
        schedule = FaultTimeline(
            [TimelineEvent(0, FaultSite(victim, FaultUnit.XB_MUX, PORT_EAST))]
        )
    factory = (
        protected_router_factory(net) if protected else baseline_router_factory(net)
    )
    sim = NoCSimulator(
        net,
        SimulationConfig(
            warmup_cycles=300,
            measure_cycles=3000,
            drain_cycles=4000,
            seed=9,
            watchdog_cycles=1500,
        ),
        SyntheticTraffic(net, injection_rate=0.10, rng=9),
        router_factory=factory,
        fault_schedule=schedule,
    )
    return sim.run()


def test_secondary_path_vs_retirement(benchmark):
    def measure():
        return (
            run_router(True, faulty=False),
            run_router(True, faulty=True),
            run_router(False, faulty=True),
        )

    clean, protected, retired = run_once(benchmark, measure)
    print(
        f"\nfault-free: {clean.avg_network_latency:.2f}"
        f"  secondary-path: {protected.avg_network_latency:.2f}"
        f"  retired(baseline): delivered={retired.stats.packets_ejected}/"
        f"{retired.stats.packets_created}"
    )
    # secondary path: alive, all packets delivered, crossings recorded
    assert not protected.blocked and protected.drained
    assert protected.router_stats.secondary_path_grants > 0
    # the bandwidth cost exists but is bounded at this load
    assert protected.avg_network_latency < clean.avg_network_latency * 1.5
    # port retirement (unprotected): traffic through the port strands
    assert retired.blocked or not retired.drained
    assert retired.stats.packets_ejected < retired.stats.packets_created
