"""``NoCSimulator.run()`` as a dispatch: one run, one lane.

A fresh run whose traffic source declares an offered load at or above
``LANE_BREAK_EVEN`` rides a width-1 lane of the batched engine; anything
watched from outside the event system, resumed, undeclared or lighter
stays on the object engine's own loop.  Either way the result is the
reference stepper's, digest for digest.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from conftest import NoLookahead
from repro.comparison.ecc_sim import DatapathFaultyRouter
from repro.comparison.roco_router import roco_router_factory
from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.core.protected_router import protected_router_factory
from repro.faults.injector import RandomFaultSchedule
from repro.faults.sites import FaultSite, FaultUnit
from repro.faults.timeline import random_timeline
from repro.network import batched
from repro.network.simulator import LANE_BREAK_EVEN, NoCSimulator
from repro.observability import Observability, ObservabilityConfig
from repro.router.flit import Packet
from repro.router.router import BaselineRouter
from repro.traffic.generator import COHERENCE_MIX, NullTraffic, SyntheticTraffic

MESH_8X8 = NetworkConfig(width=8, height=8, router=RouterConfig(num_vcs=4, num_vnets=2))
MESH_4X4 = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4, num_vnets=2))
SIM = SimulationConfig(
    warmup_cycles=50, measure_cycles=300, drain_cycles=1500, seed=9,
    watchdog_cycles=4000,
)


def _sim(net=MESH_8X8, rate=0.08, routing="xy", schedule=None, traffic=None, **kwargs):
    if traffic is None:
        traffic = SyntheticTraffic(net, injection_rate=rate, mix=COHERENCE_MIX, rng=9)
    kwargs.setdefault("router_factory", protected_router_factory(net))
    return NoCSimulator(
        net, SIM, traffic, fault_schedule=schedule, routing_kind=routing, **kwargs
    )


def _faults(net=MESH_8X8):
    return RandomFaultSchedule(
        net.router, net.num_nodes, mean_interval=20, num_faults=24, rng=11,
        first_fault_at=30, avoid_failure=True,
    )


def _digest(res):
    """The ledger's ``read_out`` digest of one result, plus the recovery log."""
    key = (
        res.cycles, res.drained, res.blocked, res.faults_injected,
        res.stats.summary(), asdict(res.router_stats), res.recovery,
    )
    blob = json.dumps(key, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture
def engines(monkeypatch):
    """Every ``BatchedLaneEngine`` constructed, as ``(lanes, routing kind)``."""
    built = []

    class Spy(batched.BatchedLaneEngine):
        def __init__(self, config, sim_config, lanes, router_kind="baseline",
                     routing_kind="xy", **kwargs):
            built.append((len(lanes), routing_kind))
            super().__init__(
                config, sim_config, lanes, router_kind, routing_kind, **kwargs
            )

    monkeypatch.setattr(batched, "BatchedLaneEngine", Spy)
    return built


class TestRides:
    @pytest.mark.parametrize("routing", ["xy", "west_first"])
    @pytest.mark.parametrize("faulted", [False, True])
    def test_run_equals_the_reference_stepper(self, engines, routing, faulted):
        sim = _sim(routing=routing, schedule=_faults() if faulted else None)
        res = sim.run()
        assert engines == [(1, routing)]
        ref = _sim(
            routing=routing, schedule=_faults() if faulted else None,
            use_reference_stepper=True,
        ).run()
        assert engines == [(1, routing)]  # the oracle stepped
        assert _digest(res) == _digest(ref)
        assert (res.faults_injected > 0) == faulted
        # what callers read off the simulator afterwards
        assert sim.stats is res.stats and sim.cycle == res.cycles == ref.cycles
        assert sim.blocked == res.blocked and sim.faults_injected == res.faults_injected

    def test_keep_samples_rides_along(self, engines):
        res = _sim(keep_samples=True).run()
        ref = _sim(keep_samples=True, use_reference_stepper=True).run()
        assert engines == [(1, "xy")]
        assert res.stats.samples
        assert res.stats.latency_percentile(95) == ref.stats.latency_percentile(95)

    def test_a_timeline_with_a_recovery_log_rides(self, engines):
        def timeline():
            return random_timeline(
                MESH_8X8.router, MESH_8X8.num_nodes, events=10, mean_interval=30.0,
                transient_fraction=0.5, transient_duration=48, rng=11,
                first_event_at=40,
            )

        res = _sim(schedule=timeline()).run()
        ref = _sim(schedule=timeline(), use_reference_stepper=True).run()
        assert engines == [(1, "xy")]
        assert res.recovery == ref.recovery
        assert res.recovery["events"] == 10 and res.recovery["healed"] > 0
        assert _digest(res) == _digest(ref)

    @pytest.mark.parametrize("routing", ["xy", "west_first"])
    def test_a_roco_fabric_rides(self, engines, routing):
        """Modules absorb faults and die mid-run: on the lane, a landing is
        charged to the module counters, which set the dead ports' bits."""
        def timeline():
            return random_timeline(
                MESH_4X4.router, MESH_4X4.num_nodes, events=40, mean_interval=5.0,
                transient_fraction=0.5, transient_duration=30, rng=4,
                first_event_at=40,
            )

        def run(**kwargs):
            return _sim(
                MESH_4X4, 0.3, routing, timeline(),
                router_factory=roco_router_factory(MESH_4X4), **kwargs,
            ).run()

        res, ref = run(), run(use_reference_stepper=True)
        assert engines == [(1, routing)]
        assert _digest(res) == _digest(ref)
        assert res.faults_injected == 40 and res.router_stats.rc_blocked_cycles > 0

    def test_a_wrapped_factory_rides(self, engines):
        """The kind is read off the routers, not the factory: a plain
        wrapper around a registered class rides that class's lane."""
        make = protected_router_factory(MESH_8X8)

        def wrapped(node, routing):
            return make(node, routing)

        res = _sim(schedule=_faults(), router_factory=wrapped).run()
        assert engines == [(1, "xy")]
        ref = _sim(schedule=_faults(), router_factory=wrapped)._run_stepped()
        assert _digest(res) == _digest(ref)
        assert res.router_stats.va_borrowed_grants > 0

    def test_a_mislabelled_factory_rides_what_it_builds(self, engines):
        """A factory carrying another kind's name builds baselines, and a
        baseline lane is what runs them."""
        def mislabelled(node, routing):
            return BaselineRouter(node, MESH_8X8.router, routing)

        mislabelled.router_kind = "protected"  # type: ignore[attr-defined]

        def faults():
            return RandomFaultSchedule(
                MESH_8X8.router, MESH_8X8.num_nodes, mean_interval=20, num_faults=16,
                rng=11, first_fault_at=30, avoid_failure=True,
            )

        res = _sim(schedule=faults(), router_factory=mislabelled).run()
        assert engines == [(1, "xy")]
        ref = _sim(schedule=faults(), router_factory=mislabelled)._run_stepped()
        assert _digest(res) == _digest(ref)
        assert res.router_stats.rc_duplicate_computations == 0
        assert res.router_stats.va_borrowed_grants == 0

    @pytest.mark.parametrize("switch", ["metrics", "profile"])
    def test_metrics_and_profiles_ride(self, engines, switch):
        """Either rides the lane: the result carries the stepped run's
        metrics snapshot, or the profile the run's own profiler took of the
        lane's kernels."""
        def run():
            obs = Observability(ObservabilityConfig(**{switch: True}))
            return _sim(schedule=_faults(), observability=obs), obs

        sim, obs = run()
        res = sim.run()
        assert engines == [(1, "xy")]
        ref_sim, ref_obs = run()
        ref = ref_sim._run_stepped()
        assert _digest(res) == _digest(ref)
        if switch == "metrics":
            assert res.observability["metrics"]["counters"]
            assert res.observability == ref.observability
            # the run's own registry holds the harvest on both engines
            assert obs.metrics.snapshot() == ref_obs.metrics.snapshot()
            assert obs.metrics.snapshot() == res.observability["metrics"]
        else:
            assert res.observability["profile"] == obs.profiler.snapshot()
            assert res.observability["profile"]["samples"] > 0

    def test_fifteen_vcs_ride(self, engines):
        """A 4-port column of 15 VCs, the most a mesh router has, rides a
        width-1 lane with the reference stepper's digest."""
        net = NetworkConfig(
            width=1, height=4, router=RouterConfig(num_ports=4, num_vcs=15, num_vnets=3)
        )

        def wide(**kwargs):
            traffic = SyntheticTraffic(net, injection_rate=1.0, mix=COHERENCE_MIX, rng=9)
            return _sim(net, traffic=traffic, router_factory=protected_router_factory(net),
                        **kwargs)

        res = wide().run()
        assert engines == [(1, "xy")]
        assert _digest(res) == _digest(wide(use_reference_stepper=True).run())
        assert res.stats.packets_ejected > 0

    def test_a_process_wide_trace_rides(self, engines):
        """A trace no one handed the simulator is its ``packet`` record,
        which a lane keeps as the object engine does."""
        import repro.observability as observability

        observability.configure(trace=True, trace_capacity=1_000_000)
        res = _sim(schedule=_faults()).run()
        assert engines == [(1, "xy")]
        ref = _sim(schedule=_faults())._run_stepped()
        assert _digest(res) == _digest(ref)

        def packets(result):
            return [
                (cycle, node, {k: v for k, v in payload.items() if k != "packet"})
                for cycle, kind, node, payload in result.observability["trace"]["events"]
            ]

        assert packets(res) == packets(ref)
        assert {kind for _, kind, _, _ in ref.observability["trace"]["events"]} == {"packet"}

    def test_the_break_even_is_a_load_over_the_whole_fabric(self, engines):
        """Flits per cycle, not per node: 0.25 on 16 nodes is 0.0625 on 64."""
        assert LANE_BREAK_EVEN == 4.0
        _sim(MESH_4X4, rate=0.25).run()
        _sim(MESH_8X8, rate=0.0625).run()
        assert engines == [(1, "xy")] * 2
        # a source that injects at some nodes only offers that much less
        corner = SyntheticTraffic(MESH_8X8, injection_rate=0.1, rng=1, nodes=range(32))
        assert corner.offered_load == pytest.approx(3.2)
        _sim(traffic=corner).run()
        assert len(engines) == 2


class TestDeclines:
    """None of these constructs a lane engine, and each still equals the
    reference stepper."""

    def _assert_stepped(self, engines, sim, ref):
        res = sim.run()
        assert engines == []
        assert any(r.stats.flits_traversed for r in sim.routers)  # the fabric ran
        assert _digest(res) == _digest(ref.run())

    @pytest.mark.parametrize("net, rate", [(MESH_4X4, 0.1), (MESH_8X8, 0.02)])
    def test_below_the_break_even(self, engines, net, rate):
        ref = _sim(net, rate, use_reference_stepper=True)
        self._assert_stepped(engines, _sim(net, rate), ref)

    def test_a_tracer(self, engines):
        """Per-stage flit events are the object engine's per-object hooks."""
        obs = Observability(ObservabilityConfig(trace=True))
        res = _sim(observability=obs).run()
        assert engines == [] and res.observability["trace"]["emitted"] > 0

    def test_on_eject(self, engines):
        seen = []
        sim = _sim(on_eject=lambda flit, cycle: seen.append(cycle))
        self._assert_stepped(engines, sim, _sim(use_reference_stepper=True))
        assert seen

    def test_a_simulator_that_has_run_before(self, engines):
        sim = _sim()
        first = sim.run()
        assert engines == [(1, "xy")]
        again = sim.run()  # resumes at ``sim.cycle``: nothing left to do
        assert engines == [(1, "xy")]
        assert again.cycles == first.cycles

    def test_a_fabric_touched_by_hand(self, engines):
        """A fault injected, or a packet queued, straight into the objects
        exists nowhere else: a lane's power-on fabric would not have it."""
        def faulted(**kwargs):
            sim = _sim(**kwargs)
            for port in range(1, 5):
                sim.routers[27].inject_fault(FaultSite(27, FaultUnit.SA1_ARBITER, port))
            return sim

        sim = faulted()
        self._assert_stepped(engines, sim, faulted(use_reference_stepper=True))
        assert sim.aggregate_router_stats().sa_bypass_grants > 0

        sim = _sim()
        sim.nics[0].enqueue(Packet(src=0, dest=63, size_flits=5, vnet=1, creation_cycle=0))
        sim.run()
        assert engines == []

    def test_a_source_that_declares_no_rate(self, engines):
        def hidden():
            return NoLookahead(
                SyntheticTraffic(MESH_8X8, injection_rate=0.08, mix=COHERENCE_MIX, rng=9)
            )

        ref = _sim(traffic=hidden(), use_reference_stepper=True)
        self._assert_stepped(engines, _sim(traffic=hidden()), ref)

    def test_the_reference_stepper(self, engines):
        _sim(use_reference_stepper=True).run()
        assert engines == []

    def test_a_router_kind_without_an_array_model(self, engines):
        """A subclass of a lane class is somebody's own router, whatever it
        inherits: ``ecc_sim``'s datapath-faulty router is stepped."""
        def datapath(**kwargs):
            return _sim(
                router_factory=lambda node, routing: DatapathFaultyRouter(
                    node, MESH_8X8.router, routing
                ),
                **kwargs,
            )

        self._assert_stepped(engines, datapath(), datapath(use_reference_stepper=True))

    def test_more_vcs_than_the_lane_tables_hold(self, engines):
        """Only a 1x1 fabric names more than 15 VCs, and it carries no
        packet: no source declares a load on it, so it is stepped, and a
        lane engine refuses it by the limit."""
        net = NetworkConfig(
            width=1, height=1, router=RouterConfig(num_ports=2, num_vcs=31, num_vnets=1)
        )
        res = _sim(net, traffic=NullTraffic()).run()
        assert engines == [] and res.stats.packets_ejected == 0
        with pytest.raises(ValueError, match="15 VCs"):
            batched.BatchedLaneEngine(net, SIM, [batched.LaneSpec(NullTraffic())])

    def test_a_roco_module_killed_by_hand(self, engines):
        """``fail_module`` lands nothing in the fault history, but its
        fault bits keep the run off a lane, whose module counters start
        at zero."""
        def killed(**kwargs):
            sim = _sim(MESH_4X4, 0.3, router_factory=roco_router_factory(MESH_4X4), **kwargs)
            sim.routers[5].fail_module("row")
            return sim

        sim = killed()
        self._assert_stepped(engines, sim, killed(use_reference_stepper=True))
        assert sim.aggregate_router_stats().rc_blocked_cycles > 0
