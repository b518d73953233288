"""Event-driven engine: skip-ahead correctness at the fault/active-set seams.

``NoCSimulator.run`` jumps over provably idle stretches whenever the
traffic source offers the ``next_injection`` lookahead, and steps the
same active-set loop every cycle when it does not (the ``"stepper"``
column below hides the lookahead behind ``NoLookahead``).  These tests
pin the seams where the jump could go wrong:

* fault arrivals inside an idle stretch must bound the jump
  (``_skip_idle`` clamps to the schedule's ``next_cycle()``), not be
  deferred or dropped;
* a fault landing on an idle router mid-drain must behave exactly as
  under the per-cycle and reference loops (the ``router.wake()`` routing
  of ``_inject_faults``);
* the drain loop's ``drained`` flag must be decided by one predicate
  evaluation after the loop, for every exit path, including a drain that
  finishes exactly at the deadline cycle;
* ``faults_injected`` must be identical across all loop flavours for
  schedule edges: faults at cycle 0, on the warmup/measure boundary, and
  after drain begins;
* a transient's *heal* inside an idle stretch or mid-drain must land on
  its exact cycle (``next_cycle()`` covers heals).
"""

import dataclasses
import math

from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.core.protected_router import protected_router_factory
from conftest import NoLookahead
from repro.faults import FaultTimeline, TimelineEvent
from repro.faults.sites import FaultSite, FaultUnit
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.router.flit import Packet, reset_packet_ids
from repro.traffic.generator import NullTraffic, SyntheticTraffic, TraceTraffic

#: every loop flavour: skip-ahead, per-cycle active-set (lookahead
#: hidden), full-scan reference
ENGINES = ("event", "stepper", "reference")

PORT_WEST = 1  # matches repro.router.routing port numbering


def _sim(engine: str, net, sim_config, traffic, **kwargs) -> NoCSimulator:
    """``NoCSimulator`` running the named loop flavour."""
    return NoCSimulator(
        net,
        sim_config,
        NoLookahead(traffic) if engine == "stepper" else traffic,
        use_reference_stepper=engine == "reference",
        **kwargs,
    )


def _site(router: int) -> FaultSite:
    return FaultSite(router, FaultUnit.SA1_ARBITER, PORT_WEST)


def _burst(net: NetworkConfig, count: int = 6) -> list[Packet]:
    """A cycle-0 burst between corner nodes (long drain, idle far side)."""
    return [
        Packet(
            src=0,
            dest=net.num_nodes - 1,
            size_flits=5,
            vnet=0,
            creation_cycle=0,
        )
        for _ in range(count)
    ]


def _norm(obj):
    """NaN-tolerant structural comparison key (a zero-packet run's
    latency averages are NaN, and NaN != NaN)."""
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    if isinstance(obj, dict):
        return {k: _norm(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_norm(v) for v in obj]
    return obj


def _assert_all_equal(results: dict) -> None:
    ref = results["reference"]
    for engine, res in results.items():
        assert res.cycles == ref.cycles, engine
        assert res.blocked == ref.blocked, engine
        assert res.drained == ref.drained, engine
        assert res.faults_injected == ref.faults_injected, engine
        assert _norm(res.stats.summary()) == _norm(ref.stats.summary()), engine
        assert dataclasses.asdict(res.router_stats) == dataclasses.asdict(
            ref.router_stats
        ), engine


class TestFaultWakeInIdleStretch:
    """A fault due inside a skippable idle stretch must still inject on
    its exact cycle — the wake event pins the jump target."""

    def _run(self, engine: str, monkeypatched_sim=None):
        reset_packet_ids()
        net = NetworkConfig(width=4, height=4)
        sim = _sim(
            engine,
            net,
            SimulationConfig(
                warmup_cycles=50,
                measure_cycles=400,
                drain_cycles=500,
                seed=2,
            ),
            NullTraffic(),
            router_factory=protected_router_factory(net),
            fault_schedule=FaultTimeline([TimelineEvent(300, _site(5))]),
        )
        result = sim.run()
        sim.check_invariants()
        return sim, result

    def test_fault_in_fully_idle_window_injected_by_all_engines(self):
        results = {}
        for engine in ENGINES:
            _, results[engine] = self._run(engine)
        assert results["reference"].faults_injected == 1
        _assert_all_equal(results)

    def test_fault_wake_is_load_bearing(self, monkeypatch):
        """Blinding the schedule's ``next_cycle`` makes the event engine
        jump straight over the fault — proving the wake (not catch-up
        luck) is what keeps the test above honest.  The active-set stepper
        polls only on the cycles ``next_cycle()`` names, so it misses the
        fault too; the reference stepper, which polls every cycle, does not."""
        monkeypatch.setattr(FaultTimeline, "next_cycle", lambda self: None)
        for engine in ("event", "stepper"):
            _, broken = self._run(engine)
            assert broken.faults_injected == 0, engine
        _, reference = self._run("reference")
        assert reference.faults_injected == 1


class TestFaultIntoIdleRouterMidDrain:
    """Satellite regression: a fault landing on a fully idle protected
    router while the rest of the fabric is still draining must leave the
    active-set and event-driven loops bit-identical to the reference."""

    def _run(self, engine: str, protected: bool = True):
        reset_packet_ids()
        net = NetworkConfig(
            width=4, height=4, router=RouterConfig(num_vcs=4, num_vnets=2)
        )
        # inject_until == 1: the burst drains for tens of cycles while
        # router 5 (off the XY path of a 0 -> 15 burst) sits idle
        sim = _sim(
            engine,
            net,
            SimulationConfig(
                warmup_cycles=0,
                measure_cycles=1,
                drain_cycles=500,
                seed=3,
            ),
            TraceTraffic(_burst(net)),
            router_factory=(
                protected_router_factory(net)
                if protected
                else baseline_router_factory(net)
            ),
            fault_schedule=FaultTimeline([TimelineEvent(8, _site(4))]),
        )
        result = sim.run()
        sim.check_invariants()
        return sim, result

    def test_mid_drain_fault_identical_across_engines(self):
        results = {}
        for engine in ENGINES:
            sim, results[engine] = self._run(engine)
            # the fault landed mid-drain, while flits were still in flight
            assert results[engine].faults_injected == 1
            assert results[engine].drained
        _assert_all_equal(results)

    def test_mid_drain_fault_baseline_router(self):
        results = {}
        for engine in ENGINES:
            _, results[engine] = self._run(engine, protected=False)
        _assert_all_equal(results)


class TestDrainDeadlineBoundary:
    """The drained flag is decided once, after the drain loop — so a
    drain that completes exactly at the deadline still counts."""

    def _run(self, engine: str, drain_cycles: int):
        reset_packet_ids()
        net = NetworkConfig(width=4, height=4)
        sim = _sim(
            engine,
            net,
            SimulationConfig(
                warmup_cycles=0,
                measure_cycles=1,
                drain_cycles=drain_cycles,
                seed=5,
            ),
            TraceTraffic(_burst(net)),
        )
        result = sim.run()
        sim.check_invariants()
        return result

    def test_exact_deadline_drain_counts_as_drained(self):
        # measure how long the drain actually takes with a generous budget
        generous = self._run("event", drain_cycles=500)
        assert generous.drained
        needed = generous.cycles - 1  # inject_until == 1
        assert needed > 2
        for engine in ENGINES:
            exact = self._run(engine, drain_cycles=needed)
            assert exact.drained, engine
            assert exact.cycles == generous.cycles, engine
            # one cycle less and the network is still busy at the deadline
            short = self._run(engine, drain_cycles=needed - 1)
            assert not short.drained, engine


class TestFaultScheduleEdges:
    """``faults_injected`` pinned across every loop flavour (and the
    profiled path) for schedule edge cases."""

    WARMUP = 20
    MEASURE = 80

    def _run(self, engine: str, fault_cycles, profile: bool = False):
        from repro.observability import Observability, ObservabilityConfig

        reset_packet_ids()
        net = NetworkConfig(width=4, height=4)
        obs = None
        if profile:
            obs = Observability(ObservabilityConfig(profile=True))
        sim = _sim(
            engine,
            net,
            SimulationConfig(
                warmup_cycles=self.WARMUP,
                measure_cycles=self.MEASURE,
                drain_cycles=300,
                seed=7,
            ),
            SyntheticTraffic(net, injection_rate=0.05, rng=7),
            router_factory=protected_router_factory(net),
            fault_schedule=FaultTimeline(
                TimelineEvent(c, _site(3 + i)) for i, c in enumerate(fault_cycles)
            ),
            observability=obs,
        )
        result = sim.run()
        sim.check_invariants()
        return result

    def _pin_across_engines(self, fault_cycles):
        runs = {e: self._run(e, fault_cycles) for e in ENGINES}
        runs["profiled"] = self._run("event", fault_cycles, profile=True)
        counts = {e: r.faults_injected for e, r in runs.items()}
        assert len(set(counts.values())) == 1, counts
        ref = runs["reference"]
        for engine, res in runs.items():
            assert res.cycles == ref.cycles, engine
            assert res.stats.summary() == ref.stats.summary(), engine
        return counts["reference"]

    def test_fault_at_cycle_zero(self):
        assert self._pin_across_engines([0]) == 1

    def test_fault_on_warmup_measure_boundary(self):
        assert self._pin_across_engines([self.WARMUP]) == 1

    def test_fault_after_drain_begins(self):
        # due shortly after injection stops: lands while the fabric is
        # still draining, so every engine must inject it
        count = self._pin_across_engines([self.WARMUP + self.MEASURE + 2])
        assert count == 1

    def test_fault_beyond_drain_never_injected(self):
        # due long after the fabric has fully drained: every engine ends
        # the run first, and none may inject it
        assert self._pin_across_engines([10_000]) == 0

    def test_mixed_edges_together(self):
        n = self._pin_across_engines(
            [0, self.WARMUP, self.WARMUP + self.MEASURE + 2, 10_000]
        )
        assert n == 3


class TestTransientHealEdges:
    """A transient's *heal* is an event like its landing: every loop
    flavour must apply it on its exact cycle — inside a fully idle
    stretch (where only ``next_cycle()`` covering heals stops the jump)
    and while the fabric is still draining — with identical results and
    trace streams, and the router must end the run healed."""

    #: west input of router 2: on the XY path of the 0 -> 15 burst
    SITE = FaultSite(2, FaultUnit.SA1_ARBITER, 4)

    def _run(self, engine: str, transient: TimelineEvent, **sim_cfg):
        from repro.observability import Observability, ObservabilityConfig

        reset_packet_ids()
        net = NetworkConfig(width=4, height=4)
        sim = _sim(
            engine,
            net,
            SimulationConfig(seed=3, drain_cycles=500, **sim_cfg),
            TraceTraffic(_burst(net)),
            router_factory=protected_router_factory(net),
            fault_schedule=FaultTimeline([transient]),
            observability=Observability(ObservabilityConfig(trace=True)),
        )
        result = sim.run()
        sim.check_invariants()
        return sim, result

    def _pin(self, transient: TimelineEvent, **sim_cfg):
        results = {}
        for engine in ENGINES:
            sim, results[engine] = self._run(engine, transient, **sim_cfg)
            assert results[engine].faults_injected == 1, engine
            assert results[engine].drained, engine
            healed = not sim.routers[transient.site.router].faults.any_faults
            assert healed, f"{engine}: heal at {transient.heal_cycle} missed"
        _assert_all_equal(results)
        ref = results["reference"]
        for engine, res in results.items():
            assert res.observability == ref.observability, engine
        return ref

    def test_heal_inside_idle_stretch(self):
        # the cycle-0 burst drains within ~100 cycles; the heal at 300
        # lands in a fabric that has been idle since, and nothing else
        # is scheduled before the injection window closes at 400
        ref = self._pin(
            TimelineEvent(2, self.SITE, transient=True, duration=298),
            warmup_cycles=0,
            measure_cycles=400,
        )
        assert ref.cycles == 400
        assert ref.router_stats.sa_bypass_grants > 0

    def test_heal_mid_drain(self):
        # inject_until == 1: the fault lands on the burst's XY path at
        # cycle 3 and heals at 20, with flits still in flight both times
        ref = self._pin(
            TimelineEvent(3, self.SITE, transient=True, duration=17),
            warmup_cycles=0,
            measure_cycles=1,
        )
        assert ref.cycles > 20
        assert ref.router_stats.sa_bypass_grants > 0
