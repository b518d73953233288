"""Ablation: VA arbiter sharing vs no protection (Section V-B1).

Removing the sharing mechanism turns a VA stage-1 arbiter fault back into
the baseline behaviour: the affected VC's head flit blocks forever, the
input port backs up, and the network wedges.  With sharing, the same
fault costs at most occasional +1-cycle waits.
"""

import pytest

from conftest import run_once
from repro.config import (
    NetworkConfig,
    PORT_WEST,
    RouterConfig,
    SimulationConfig,
)
from repro.core.protected_router import protected_router_factory
from repro.faults.sites import FaultSite, FaultUnit
from repro.faults.timeline import FaultTimeline, TimelineEvent
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.traffic.generator import SyntheticTraffic


def run_router(protected: bool):
    net = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4))
    victim = net.node_id(1, 1)
    # fault every VC's arbiter set except one: sharing carries the port
    # through; without sharing (baseline) the port wedges
    schedule = FaultTimeline(
        [
            TimelineEvent(0, FaultSite(victim, FaultUnit.VA1_ARBITER_SET, PORT_WEST, v))
            for v in range(3)
        ]
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
            seed=5,
            watchdog_cycles=1500,
        ),
        SyntheticTraffic(net, injection_rate=0.10, rng=5),
        router_factory=factory,
        fault_schedule=schedule,
    )
    return sim.run()


def test_sharing_vs_unprotected(benchmark):
    def measure():
        return run_router(True), run_router(False)

    with_sharing, without = run_once(benchmark, measure)
    print(
        f"\nsharing: lat={with_sharing.avg_network_latency:.2f} "
        f"blocked={with_sharing.blocked}"
        f"  unprotected: delivered={without.stats.packets_ejected}/"
        f"{without.stats.packets_created} blocked={without.blocked}"
    )
    # with sharing: everything delivered, mechanism exercised
    assert not with_sharing.blocked and with_sharing.drained
    assert with_sharing.router_stats.va_borrowed_grants > 0
    # without: the port wedges — packets pile up undelivered
    assert without.blocked or not without.drained
    assert without.stats.packets_ejected < without.stats.packets_created
