"""Tests for the behavioural RoCo router (graceful degradation model)."""

import numpy as np
import pytest

from repro.comparison.roco import RowColumnState
from repro.comparison.roco_router import (
    DEFAULT_MODULE_TOLERANCE,
    ROW_PORTS,
    RoCoRouter,
    roco_router_factory,
)
from repro.config import (
    NetworkConfig,
    PORT_EAST,
    PORT_LOCAL,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
    RouterConfig,
    SimulationConfig,
)
from repro.faults.sites import FaultSite, FaultUnit
from repro.network.batched import BatchedLaneEngine, LaneSpec
from repro.router.flit import Flit, FlitType, Packet
from repro.router.routing import XYRouting
from repro.traffic.generator import NullTraffic, TraceTraffic

from conftest import make_network_config, make_sim


def make_roco():
    net = NetworkConfig(width=3, height=3)
    return RoCoRouter(4, net.router, XYRouting(net)), net


class TestModuleAccounting:
    def test_fresh_router_healthy(self):
        r, _ = make_roco()
        assert not r.row_failed and not r.col_failed
        assert not r.failed and not r.degraded

    def test_row_faults_charged_to_row(self):
        r, _ = make_roco()
        r.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, PORT_EAST))
        r.inject_fault(FaultSite(4, FaultUnit.XB_MUX, PORT_WEST))
        assert r.row_faults == 2 and r.col_faults == 0

    def test_module_dies_past_tolerance(self):
        r, _ = make_roco()
        for i, port in enumerate([PORT_EAST, PORT_WEST, PORT_EAST]):
            r.inject_fault(FaultSite(4, FaultUnit.VA1_ARBITER_SET, port, i))
        assert r.row_faults == DEFAULT_MODULE_TOLERANCE + 1
        assert r.row_failed and r.degraded and not r.failed

    def test_both_modules_dead_is_failure(self):
        r, _ = make_roco()
        r.fail_module("row")
        r.fail_module("col")
        assert r.failed

    def test_local_faults_charged_to_healthier_module(self):
        r, _ = make_roco()
        r.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, PORT_EAST))
        # row has 1 fault, col 0 -> local fault lands on col
        r.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, 0))
        assert r.col_faults == 1

    def test_fail_module_validation(self):
        r, _ = make_roco()
        with pytest.raises(ValueError):
            r.fail_module("diagonal")

    def test_requires_five_ports(self):
        net = NetworkConfig(width=3, height=3)
        with pytest.raises(ValueError):
            RoCoRouter(4, RouterConfig(num_ports=6), XYRouting(net))


class TestDegradedBehaviour:
    def test_dead_row_blocks_row_outputs(self):
        r, _ = make_roco()
        r.fail_module("row")
        assert r.crossbar.plan_path(PORT_EAST) is None
        assert r.crossbar.plan_path(PORT_WEST) is None
        assert r.crossbar.plan_path(PORT_NORTH) is not None

    def test_dead_row_still_forwards_column_traffic(self):
        """The headline: degraded, not dead — column traffic keeps flowing
        straight through a router whose row module died."""
        net = make_network_config(3, 3)
        victim = net.node_id(1, 1)
        from repro.config import SimulationConfig
        from repro.network.simulator import NoCSimulator

        sim = NoCSimulator(
            net,
            SimulationConfig(warmup_cycles=0, measure_cycles=200,
                             drain_cycles=2000, seed=1),
            TraceTraffic([
                Packet(src=net.node_id(1, 0), dest=net.node_id(1, 2),
                       size_flits=1, creation_cycle=5 + i)
                for i in range(10)
            ]),
            router_factory=roco_router_factory(net),
        )
        sim.routers[victim].fail_module("row")
        res = sim.run()
        assert res.drained and not res.blocked
        assert res.stats.packets_ejected == 10

    def test_dead_row_strands_row_traffic(self):
        net = make_network_config(3, 3)
        victim = net.node_id(1, 1)
        from repro.network.simulator import NoCSimulator
        from repro.config import SimulationConfig

        sim = NoCSimulator(
            net,
            SimulationConfig(warmup_cycles=0, measure_cycles=400,
                             drain_cycles=1500, seed=1,
                             watchdog_cycles=800),
            TraceTraffic([
                Packet(src=net.node_id(0, 1), dest=net.node_id(2, 1),
                       size_flits=1, creation_cycle=5)
            ]),
            router_factory=roco_router_factory(net),
        )
        sim.routers[victim].fail_module("row")
        res = sim.run()
        assert res.blocked or res.stats.packets_ejected == 0

    def test_fault_free_roco_delivers_everything(self):
        net = make_network_config(4, 4)
        from repro.network.simulator import NoCSimulator
        from repro.config import SimulationConfig
        from repro.traffic.generator import SyntheticTraffic

        sim = NoCSimulator(
            net,
            SimulationConfig(warmup_cycles=100, measure_cycles=1000,
                             drain_cycles=3000, seed=2),
            SyntheticTraffic(net, injection_rate=0.06, rng=2),
            router_factory=roco_router_factory(net),
        )
        res = sim.run()
        assert res.drained
        assert res.stats.packets_ejected == res.stats.packets_created

    def test_monte_carlo_matches_roco_model(self):
        """Injecting random pipeline faults into the RoCo router until
        failure tracks the RoCoModel's exact mean (same two-module law,
        faults split ~evenly)."""
        import numpy as np

        from repro.comparison.roco import RoCoModel
        from repro.faults.sites import enumerate_sites

        net = NetworkConfig(width=3, height=3)
        rng = np.random.default_rng(4)
        sites = [
            s for s in enumerate_sites(net.router, router=4, protected=False)
            if s.port != 0  # non-local, so the module split is clean
        ]
        counts = []
        for _ in range(60):
            r = RoCoRouter(4, net.router, XYRouting(net))
            n = 0
            for i in rng.permutation(len(sites)):
                r.inject_fault(sites[int(i)])
                n += 1
                if r.failed:
                    break
            counts.append(n)
        exact = RoCoModel().mean_faults_to_failure()
        assert np.mean(counts) == pytest.approx(exact, rel=0.25)


# ----------------------------------------------------------------------
# the RoCo rule, three ways: the object router, a roco lane, and the
# analytic two-module state
# ----------------------------------------------------------------------
_ROUTER = 5  # interior to a 4x4 mesh: every port has a link
_N, _E, _S, _W, _L = PORT_NORTH, PORT_EAST, PORT_SOUTH, PORT_WEST, PORT_LOCAL


def _at(unit, port, vc=-1):
    return FaultSite(_ROUTER, FaultUnit[unit], port, vc)


_ROW3 = [("land", _at("SA1_ARBITER", _E)), ("land", _at("XB_MUX", _W)),
         ("land", _at("VA1_ARBITER_SET", _E, 1))]
_COL3 = [("land", _at("RC_PRIMARY", _N)), ("land", _at("SA2_ARBITER", _S)),
         ("land", _at("VA2_ARBITER", _N, 2))]

#: (site sequence, (row_faults, col_faults), dead ports, failed, degraded)
RULE = {
    "row-port faults": (_ROW3[:2], (2, 0), set(), False, False),
    "column-port faults": (_COL3[:2], (0, 2), set(), False, False),
    "a local fault goes to the healthier module": (
        [_ROW3[0], ("land", _at("SA1_ARBITER", _L))], (1, 1), set(), False, False,
    ),
    "a local fault on a tie goes to row": (
        [("land", _at("XB_MUX", _L))], (1, 0), set(), False, False,
    ),
    "a module dies at tolerance + 1": (_ROW3, (3, 0), {_E, _W}, False, True),
    "a dead module's local faults go to the other": (
        _ROW3 + [("land", _at("RC_PRIMARY", _L))], (3, 1), {_E, _W}, False, True,
    ),
    "both modules dead take the local port": (
        _ROW3 + _COL3, (3, 3), {_N, _E, _S, _W, _L}, True, False,
    ),
    "a duplicate landing is counted twice": (
        [_ROW3[0]] * 3, (3, 0), {_E, _W}, False, True,
    ),
    "a heal changes nothing": (
        _COL3 + [("heal", _COL3[0][1]), ("heal", _at("SA1_ARBITER", _N))],
        (0, 3), {_N, _S}, False, True,
    ),
}


@pytest.fixture(scope="module")
def mesh():
    return NetworkConfig(width=4, height=4)


@pytest.mark.parametrize("name", list(RULE))
class TestRoCoRule:
    def test_the_object_router(self, name, mesh):
        steps, counts, dead, failed, degraded = RULE[name]
        r = RoCoRouter(_ROUTER, mesh.router, XYRouting(mesh))
        for action, site in steps:
            assert (r.inject_fault(site) if action == "land" else r.heal_fault(site)) is (
                action == "land"
            )
        assert (r.row_faults, r.col_faults) == counts
        assert (r.failed, r.degraded) == (failed, degraded)
        head = Flit(FlitType.HEAD_TAIL, 0, src=_ROUTER, dest=0)
        for port in range(5):
            assert (r.crossbar.plan_path(port) is None) == (port in dead), port
            assert (r.rc_unit.compute(port, head) is None) == (port in dead), port
        assert len(r.faults.history) == sum(a == "land" for a, _ in steps)

    def test_a_roco_lane(self, name, mesh):
        steps, counts, dead, _, _ = RULE[name]
        lane = LaneSpec(NullTraffic(), None, "roco")
        engine = BatchedLaneEngine(mesh, SimulationConfig(), [lane])
        engine._install_lane(0, lane, 0)  # what ``run()`` does first
        for action, site in steps:
            assert engine._set_site(0, site, action == "land") is (action == "land")
        assert tuple(engine.modules[0, _ROUTER]) == counts
        mask = np.isin(np.arange(5), list(dead))
        assert not engine.protected[0]  # so an ``f_rc1`` bit blocks RC
        assert (engine.f_rc1[0, _ROUTER] == mask).all()
        assert (engine.f_xbm[0, _ROUTER] == mask).all()
        assert (engine.plan_ok[0, _ROUTER] == ~mask).all()
        for unit in (engine.f_rc2, engine.f_va1, engine.f_va2, engine.f_sa1, engine.f_sa2):
            assert not unit.any()


@pytest.mark.parametrize(
    "name", [n for n, row in RULE.items() if all(site.port != _L for _, site in row[0])]
)
def test_the_two_module_state(name):
    """Rows without a local site: which module those charge depends on
    the counts so far, which ``RowColumnState`` leaves to its caller."""
    steps, counts, _, failed, degraded = RULE[name]
    state = RowColumnState(per_half_tolerance=DEFAULT_MODULE_TOLERANCE)
    for action, site in steps:
        if action == "land":
            (state.hit_row if site.port in ROW_PORTS else state.hit_col)()
    assert (state.row_faults, state.col_faults) == counts
    assert (state.failed, state.degraded) == (failed, degraded)

