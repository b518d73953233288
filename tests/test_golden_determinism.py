"""Golden determinism: optimized active-set stepper vs the reference scan.

The performance rework (active-set scheduling, calendar event queue,
route-table and path-plan caching) is required to be *bit-identical* to
the seed implementation — not statistically close, identical.  The seed's
full-scan cycle loop is kept as ``NoCSimulator._step_reference``; these
tests run the same configurations through both steppers and assert every
observable output matches exactly:

* cycle count, blocked/drained flags, faults injected,
* the full :class:`NetworkStats` summary (latency averages, percentiles,
  histogram, per-vnet breakdown),
* the aggregated per-router :class:`RouterStats` counters,
* the complete observability export — metrics registry snapshot and the
  byte-for-byte trace event stream.

If a change legitimately alters pipeline behaviour, it must update both
steppers in lockstep (and re-derive the goldens in test_determinism.py).
"""

import dataclasses

import pytest
from conftest import NoLookahead

import repro.observability as observability
from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.core.protected_router import protected_router_factory
from repro.faults.injector import RandomFaultSchedule
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.observability import Observability, ObservabilityConfig
from repro.router.flit import reset_packet_ids
from repro.traffic.generator import COHERENCE_MIX, SyntheticTraffic


#: the three loop flavours under test: the event-driven engine (skip-ahead
#: on), the per-cycle active-set stepper (traffic lookahead hidden, so
#: ``run()`` cannot skip), and the full-scan reference
ENGINES = ("event", "stepper", "reference")


def _traffic(engine: str, traffic):
    return NoLookahead(traffic) if engine == "stepper" else traffic


def _run_once(
    protected: bool,
    with_faults: bool,
    engine: str = "reference",
    profile: bool = False,
):
    reset_packet_ids()
    net = NetworkConfig(
        width=8, height=8, router=RouterConfig(num_vcs=4, num_vnets=2)
    )
    fault_schedule = None
    if with_faults:
        fault_schedule = RandomFaultSchedule(
            net.router,
            net.num_nodes,
            mean_interval=40,
            num_faults=12,
            rng=11,
            first_fault_at=50,
            avoid_failure=True,
        )
    obs = Observability(
        ObservabilityConfig(trace=True, metrics=True, profile=profile)
    )
    sim = NoCSimulator(
        net,
        SimulationConfig(
            warmup_cycles=50,
            measure_cycles=400,
            drain_cycles=2000,
            seed=9,
            watchdog_cycles=4000,
        ),
        _traffic(
            engine,
            SyntheticTraffic(
                net, injection_rate=0.08, mix=COHERENCE_MIX, rng=9
            ),
        ),
        router_factory=(
            protected_router_factory(net)
            if protected
            else baseline_router_factory(net)
        ),
        fault_schedule=fault_schedule,
        observability=obs,
        use_reference_stepper=(engine == "reference"),
    )
    result = sim._run_stepped()
    return sim, result


def _semantic_export(result):
    """Observability export minus the wall-clock profile section."""
    if result.observability is None:
        return None
    return {
        k: v for k, v in result.observability.items() if k != "profile"
    }


def _assert_results_match(fast, ref) -> None:
    assert fast.cycles == ref.cycles
    assert fast.blocked == ref.blocked
    assert fast.drained == ref.drained
    assert fast.faults_injected == ref.faults_injected

    assert fast.stats.summary() == ref.stats.summary()
    assert dataclasses.asdict(fast.router_stats) == dataclasses.asdict(
        ref.router_stats
    )

    # exports are plain dicts: metrics snapshot and the ordered trace
    # event stream must match entry for entry
    assert fast.observability == ref.observability


def _assert_bit_identical(protected: bool, with_faults: bool) -> None:
    sim_ref, ref = _run_once(protected, with_faults, "reference")
    sim_ref.check_invariants()
    for engine in ("event", "stepper"):
        sim_fast, fast = _run_once(protected, with_faults, engine)
        _assert_results_match(fast, ref)
        # every loop flavour must leave the fabric (active sets, event
        # counters) consistent
        sim_fast.check_invariants()


class TestGoldenDeterminism:
    def test_8x8_baseline_bit_identical(self):
        _assert_bit_identical(protected=False, with_faults=False)

    def test_8x8_protected_with_faults_bit_identical(self):
        _assert_bit_identical(protected=True, with_faults=True)

    def test_adaptive_routing_bit_identical(self):
        """West-first adaptive routing has no route table — the per-flit
        candidate selection (credit sums + plan lookups) must still be
        identical across all three loop flavours."""
        reset_packet_ids()
        net = NetworkConfig(width=4, height=4)

        def run(engine: str):
            reset_packet_ids()
            sim = NoCSimulator(
                net,
                SimulationConfig(
                    warmup_cycles=50,
                    measure_cycles=500,
                    drain_cycles=2000,
                    seed=4,
                    watchdog_cycles=4000,
                ),
                _traffic(
                    engine, SyntheticTraffic(net, injection_rate=0.08, rng=4)
                ),
                router_factory=baseline_router_factory(net),
                routing_kind="west_first",
                use_reference_stepper=(engine == "reference"),
            )
            return sim._run_stepped()

        ref = run("reference")
        for engine in ("event", "stepper"):
            fast = run(engine)
            assert fast.cycles == ref.cycles
            assert fast.stats.summary() == ref.stats.summary()
            assert dataclasses.asdict(
                fast.router_stats
            ) == dataclasses.asdict(ref.router_stats)


class TestBatchedLaneGolden:
    """Per-lane golden: the batched lane engine on the same 8x8
    fig7-style scenario the engine matrix above pins, against the event
    engine lane by lane.

    Both sides run with metrics on, so the comparison covers every
    output the engines share:
    cycle counts, drain status, the full stats summary, the aggregated
    router counters and the metrics export.  The references call
    ``_run_stepped()``: at this load ``run()`` would ride a lane itself.
    """

    @pytest.fixture(autouse=True)
    def _metrics_on(self):
        observability.configure(metrics=True)

    def _scenario(self):
        net = NetworkConfig(
            width=8, height=8, router=RouterConfig(num_vcs=4, num_vnets=2)
        )
        sim_cfg = SimulationConfig(
            warmup_cycles=50,
            measure_cycles=400,
            drain_cycles=2000,
            seed=9,
            watchdog_cycles=4000,
        )
        return net, sim_cfg

    def _traffic(self, net):
        return SyntheticTraffic(
            net, injection_rate=0.08, mix=COHERENCE_MIX, rng=9
        )

    def _schedule(self, net):
        return RandomFaultSchedule(
            net.router,
            net.num_nodes,
            mean_interval=40,
            num_faults=12,
            rng=11,
            first_fault_at=50,
            avoid_failure=True,
        )

    def _assert_lane_matches(self, batched, ref):
        assert batched.cycles == ref.cycles
        assert batched.blocked == ref.blocked
        assert batched.drained == ref.drained
        assert batched.faults_injected == ref.faults_injected
        assert batched.stats.summary() == ref.stats.summary()
        assert dataclasses.asdict(batched.router_stats) == dataclasses.asdict(
            ref.router_stats
        )
        assert batched.observability["metrics"]["counters"]
        assert batched.observability == ref.observability

    def test_batched_lanes_bit_identical(self, routing="xy"):
        from repro.network.batched import LaneSpec, run_lanes

        net, sim_cfg = self._scenario()

        # protected group: a fault-free lane + a tolerated-fault lane
        reset_packet_ids()
        protected = run_lanes(
            net,
            sim_cfg,
            [
                LaneSpec(self._traffic(net)),
                LaneSpec(self._traffic(net), self._schedule(net)),
            ],
            router_factory=protected_router_factory(net),
            routing_kind=routing,
        )
        # baseline group: one fault-free lane
        reset_packet_ids()
        baseline = run_lanes(
            net, sim_cfg, [LaneSpec(self._traffic(net))], routing_kind=routing
        )

        flavours = [
            (protected[0], protected_router_factory(net), None),
            (protected[1], protected_router_factory(net), self._schedule),
            (baseline[0], baseline_router_factory(net), None),
        ]
        for lane, (batched, factory, schedule) in enumerate(flavours):
            reset_packet_ids()
            ref = NoCSimulator(
                net,
                sim_cfg,
                self._traffic(net),
                router_factory=factory,
                fault_schedule=schedule(net) if schedule else None,
                routing_kind=routing,
            )._run_stepped()
            self._assert_lane_matches(batched, ref)

    def test_west_first_lanes_bit_identical(self):
        """The same three rows under adaptive routing: the array RC's
        candidate selection against ``RCUnit.select_route``."""
        self.test_batched_lanes_bit_identical("west_first")

    def test_west_first_timeline_lanes_bit_identical(self):
        self.test_timeline_lanes_bit_identical("west_first")

    def test_timeline_lanes_bit_identical(self, routing="xy"):
        """A fault timeline (half its events transient) x {baseline,
        protected} as lanes of one engine: heals and the recovery log
        equal the event engine's, record for record."""
        from repro.faults.timeline import random_timeline
        from repro.network.batched import LaneSpec, run_lanes

        net, sim_cfg = self._scenario()

        def timeline():
            return random_timeline(
                net.router, net.num_nodes, events=10, mean_interval=40.0,
                transient_fraction=0.5, transient_duration=48, rng=11,
                first_event_at=50,
            )

        kinds = {
            "baseline": baseline_router_factory(net),
            "protected": protected_router_factory(net),
        }
        reset_packet_ids()
        lanes = run_lanes(
            net, sim_cfg,
            [LaneSpec(self._traffic(net), timeline(), kind) for kind in kinds],
            routing_kind=routing,
        )
        for batched, factory in zip(lanes, kinds.values()):
            reset_packet_ids()
            ref = NoCSimulator(
                net, sim_cfg, self._traffic(net),
                router_factory=factory, fault_schedule=timeline(),
                routing_kind=routing,
            )._run_stepped()
            self._assert_lane_matches(batched, ref)
            assert batched.recovery == ref.recovery
            assert batched.recovery["events"] == 10
            assert batched.recovery["healed"] > 0

    def test_multicycle_latency_lanes_bit_identical(self):
        """Same golden with 2-cycle links and 3-cycle credit return.

        Non-unit latencies route flits and credits through the engine's
        calendar rings; the delayed arrivals must land on exactly the
        cycle the serial simulator delivers them."""
        from repro.network.batched import LaneSpec, run_lanes

        net, sim_cfg = self._scenario()
        net = dataclasses.replace(net, link_latency=2, credit_latency=3)

        reset_packet_ids()
        batched = run_lanes(
            net,
            sim_cfg,
            [
                LaneSpec(self._traffic(net)),
                LaneSpec(self._traffic(net), self._schedule(net)),
            ],
            router_factory=protected_router_factory(net),
        )
        for lane, schedule in enumerate((None, self._schedule)):
            reset_packet_ids()
            ref = NoCSimulator(
                net,
                sim_cfg,
                self._traffic(net),
                router_factory=protected_router_factory(net),
                fault_schedule=schedule(net) if schedule else None,
            )._run_stepped()
            self._assert_lane_matches(batched[lane], ref)

    def test_keep_samples_lanes_bit_identical(self):
        """Per-packet latency samples survive batching unchanged."""
        from repro.network.batched import LaneSpec, run_lanes

        net, sim_cfg = self._scenario()

        reset_packet_ids()
        batched = run_lanes(
            net,
            sim_cfg,
            [LaneSpec(self._traffic(net))],
            router_factory=protected_router_factory(net),
            keep_samples=True,
        )
        reset_packet_ids()
        ref = NoCSimulator(
            net,
            sim_cfg,
            self._traffic(net),
            router_factory=protected_router_factory(net),
            keep_samples=True,
        )._run_stepped()
        self._assert_lane_matches(batched[0], ref)

        def key(s):
            # packet ids are allocation-order artefacts; compare what
            # the samples measure
            return (s.src, s.dest, s.injection_cycle, s.ejection_cycle,
                    s.hops)

        assert batched[0].stats.samples
        assert sorted(key(s) for s in batched[0].stats.samples) == sorted(
            key(s) for s in ref.stats.samples
        )
        assert batched[0].stats.latency_percentile(
            95
        ) == ref.stats.latency_percentile(95)

    def test_refilled_lanes_bit_identical(self):
        """Lanes installed mid-run via refill match fresh serial runs.

        ``width=2`` forces the third spec to stream into whichever slot
        retires first; the refilled lane gets a power-on reset plus a
        local-cycle offset, so its results must be indistinguishable
        from a simulator that started at cycle zero."""
        from repro.network.batched import LaneSpec, run_lanes

        net, sim_cfg = self._scenario()

        def specs():
            return [
                LaneSpec(self._traffic(net)),
                LaneSpec(self._traffic(net), self._schedule(net)),
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.06, mix=COHERENCE_MIX, rng=77
                    )
                ),
            ]

        reset_packet_ids()
        batched = run_lanes(
            net,
            sim_cfg,
            specs(),
            router_factory=protected_router_factory(net),
            width=2,
        )
        assert len(batched) == 3
        for lane, spec in enumerate(specs()):
            reset_packet_ids()
            ref = NoCSimulator(
                net,
                sim_cfg,
                spec.traffic,
                router_factory=protected_router_factory(net),
                fault_schedule=spec.fault_schedule,
            )._run_stepped()
            self._assert_lane_matches(batched[lane], ref)


class TestProfiledGolden:
    """A profiled run must be bit-identical to an unprofiled one.

    The profiler used to live in a hand-copied ``_step_profiled`` fork of
    ``_step``, and the fork drifted from it.  The unified body keeps
    profiling behind ``is None`` guards, so everything except the
    wall-clock profile section must match exactly."""

    def _assert_profiled_matches(self, protected: bool, with_faults: bool):
        sim_plain, plain = _run_once(
            protected, with_faults, "event", profile=False
        )
        sim_prof, prof = _run_once(
            protected, with_faults, "event", profile=True
        )
        assert prof.cycles == plain.cycles
        assert prof.faults_injected == plain.faults_injected
        assert prof.stats.summary() == plain.stats.summary()
        assert dataclasses.asdict(prof.router_stats) == dataclasses.asdict(
            plain.router_stats
        )
        # metrics + trace identical; only the wall-clock profile differs
        assert _semantic_export(prof) == _semantic_export(plain)
        assert prof.observability["profile"] is not None
        assert plain.observability["profile"] is None
        sim_plain.check_invariants()
        sim_prof.check_invariants()

    def test_profiled_baseline_bit_identical(self):
        self._assert_profiled_matches(protected=False, with_faults=False)

    def test_profiled_protected_with_faults_bit_identical(self):
        self._assert_profiled_matches(protected=True, with_faults=True)
