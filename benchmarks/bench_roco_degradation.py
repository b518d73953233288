"""Bench (comparison): RoCo's graceful degradation vs the proposed router.

The paper's argument against RoCo (Section III): "it cannot tolerate
faults in virtual channel allocation and crossbar stages" beyond
module-level degradation.  This bench makes the difference concrete in
simulation: after the same row-side fault barrage, the proposed router
keeps *all* traffic flowing (in-router redundancy), while the RoCo model
retires its row module — column traffic survives, row traffic strands.
It also pins 84 roco runs of a campaign to one digest: the object
stepper against the reference one, the same literal whether a dead module
was modelled as pipeline-unit overrides or, since 2.7, as RC and crossbar
fault bits (about 40 s on a 2-core host, which is why it lives here and
not in tier-1).
"""

import hashlib
import json
from dataclasses import asdict, replace

import pytest

from conftest import run_once
from repro.comparison.roco_router import roco_router_factory
from repro.config import (
    NetworkConfig,
    PORT_EAST,
    PORT_WEST,
    RouterConfig,
    SimulationConfig,
)
from repro.core.protected_router import protected_router_factory
from repro.experiments import fault_campaign
from repro.experiments.fault_campaign import CampaignConfig
from repro.experiments.report import resolve_config
from repro.faults import TimelineSpec
from repro.faults.sites import FaultSite, FaultUnit
from repro.faults.timeline import FaultTimeline, TimelineEvent
from repro.network.simulator import NoCSimulator
from repro.traffic.generator import SyntheticTraffic

NET = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4))
VICTIM = NET.node_id(1, 1)

#: three row-side faults: enough to kill RoCo's row module (tolerance 2),
#: all individually tolerated by the proposed router
ROW_BARRAGE = [
    TimelineEvent(0, FaultSite(VICTIM, FaultUnit.SA1_ARBITER, PORT_EAST)),
    TimelineEvent(0, FaultSite(VICTIM, FaultUnit.VA1_ARBITER_SET, PORT_WEST, 0)),
    TimelineEvent(0, FaultSite(VICTIM, FaultUnit.XB_MUX, PORT_EAST)),
]


def run(factory):
    sim = NoCSimulator(
        NET,
        SimulationConfig(warmup_cycles=200, measure_cycles=2500,
                         drain_cycles=2500, seed=17, watchdog_cycles=1000),
        SyntheticTraffic(NET, injection_rate=0.08, rng=17),
        router_factory=factory,
        fault_schedule=FaultTimeline(ROW_BARRAGE),
    )
    return sim.run()


def test_roco_degrades_proposed_tolerates(benchmark):
    def measure():
        return (
            run(protected_router_factory(NET)),
            run(roco_router_factory(NET)),
        )

    proposed, roco = run_once(benchmark, measure)
    print(
        f"\nproposed: delivered {proposed.stats.packets_ejected}/"
        f"{proposed.stats.packets_created} "
        f"lat={proposed.avg_network_latency:.2f}"
        f"  roco: delivered {roco.stats.packets_ejected}/"
        f"{roco.stats.packets_created}"
    )
    # the proposed router tolerates all three faults: full delivery
    assert not proposed.blocked and proposed.drained
    assert proposed.stats.packets_ejected == proposed.stats.packets_created
    # RoCo's row module dies: row traffic through the victim strands
    assert roco.blocked or roco.stats.packets_ejected < roco.stats.packets_created


def test_roco_campaign_digest():
    """Seeds 1, 3, 7 x routings x (reference + 6 timelines) x both object
    steppers, keyed by every field the ledger reads back plus the
    recovery log."""
    config = CampaignConfig(
        router_kinds=("roco",), timelines=6,
        timeline=TimelineSpec(events=8, mean_interval=300.0),
    )
    keys = []
    for seed in (1, 3, 7):
        cfg, _ = resolve_config(CampaignConfig, config, seed)
        for routing in ("xy", "west_first"):
            for point in fault_campaign.points(cfg):
                point = replace(point, routing_kind=routing)
                for reference in (False, True):
                    res = NoCSimulator(
                        point.config, point.sim_config,
                        point.make_traffic(*point.traffic_args),
                        router_factory=roco_router_factory(point.config),
                        fault_schedule=(
                            point.make_schedule(*point.schedule_args)
                            if point.make_schedule else None
                        ),
                        routing_kind=routing,
                        use_reference_stepper=reference,
                    ).run()
                    keys.append((
                        res.cycles, res.blocked, res.drained, res.faults_injected,
                        res.stats.summary(), asdict(res.router_stats), res.recovery,
                    ))
    blob = json.dumps(keys, sort_keys=True, default=str)
    assert len(keys) == 84
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == "1a9a88b661ecdf07"
