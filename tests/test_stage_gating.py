"""Stage-occupancy gating: the fast stepper skips phases, never results.

``NoCSimulator._step`` runs RC / VA / SA on a router only while the
router's stage counter (``_in_rc`` / ``_in_va`` / ``_in_sa``) says a VC is
in that stage; ``_step_reference`` ignores the counters and runs every
phase of every router.  These tests pin the counters to VC state and the
gated stepper to the reference:

* the two steppers interleaved cycle by cycle, under every router kind,
  both routing functions and a fault mix that drives each tolerance
  mechanism (VA1 borrow, VA2 retry, SA1 bypass with slot swaps, XB
  secondary path, a transient heal), with ``check_invariants()`` — which
  recounts the counters — after every cycle, and the outcome compared
  with a pure reference run (that comparison also holds under
  ``python -O``, where the library's own asserts are stripped);
* a fault landing on a fully idle router wakes it, runs no phase, and is
  pruned the same cycle;
* counters are zero after ``BaseRouter.clear_dynamic_state()`` on
  routers abandoned mid-packet.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comparison.roco_router import roco_router_factory
from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.core.protected_router import protected_router_factory
from repro.faults.sites import FaultSite, FaultUnit
from repro.faults.timeline import FaultTimeline, TimelineEvent
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.router.flit import reset_packet_ids
from repro.traffic.generator import COHERENCE_MIX, NullTraffic, SyntheticTraffic

NET = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4, num_vnets=2))
SIM_CFG = SimulationConfig(
    warmup_cycles=20, measure_cycles=100, drain_cycles=400, seed=3
)
FACTORIES = {
    "baseline": baseline_router_factory,
    "protected": protected_router_factory,
    "roco": roco_router_factory,
}
#: units every router kind has; VA units are per-VC sites
UNITS = (
    FaultUnit.VA1_ARBITER_SET,
    FaultUnit.VA2_ARBITER,
    FaultUnit.SA1_ARBITER,
    FaultUnit.XB_MUX,
)
INJECT_CYCLES = 120
TOTAL_CYCLES = 160


def _site(unit: FaultUnit, router: int, port: int, vc: int) -> FaultSite:
    per_vc = unit in (FaultUnit.VA1_ARBITER_SET, FaultUnit.VA2_ARBITER)
    return FaultSite(router, unit, port, vc if per_vc else -1)


def _build(kind: str, routing_kind: str, seed: int, events) -> NoCSimulator:
    reset_packet_ids()
    return NoCSimulator(
        NET,
        SIM_CFG,
        SyntheticTraffic(NET, injection_rate=0.15, mix=COHERENCE_MIX, rng=seed),
        router_factory=FACTORIES[kind](NET),
        fault_schedule=FaultTimeline(events, recovery_log=True),
        routing_kind=routing_kind,
    )


def _observed(sim: NoCSimulator):
    return (
        sim.stats.summary(),
        dataclasses.asdict(sim.aggregate_router_stats()),
        sim.faults_injected,
        sim.flits_in_network,
    )


def _run_interleaved(kind, routing_kind, seed, events, pattern) -> NoCSimulator:
    """Step both steppers by ``pattern`` (bit set -> reference), recounting
    the counters every cycle, and require the pure-reference outcome."""
    mixed = _build(kind, routing_kind, seed, events)
    for cycle in range(TOTAL_CYCLES):
        reference = pattern >> (cycle % 16) & 1
        step = mixed._step_reference if reference else mixed._step
        step(cycle, inject_traffic=cycle < INJECT_CYCLES)
        mixed.check_invariants()
    ref = _build(kind, routing_kind, seed, events)
    for cycle in range(TOTAL_CYCLES):
        ref._step_reference(cycle, inject_traffic=cycle < INJECT_CYCLES)
    assert _observed(mixed) == _observed(ref)
    return mixed


fault_events = st.builds(
    lambda unit, router, port, vc, cycle, transient, duration: TimelineEvent(
        cycle, _site(unit, router, port, vc), transient, duration
    ),
    st.sampled_from(UNITS),
    st.integers(0, NET.num_nodes - 1),
    st.integers(0, 4),
    st.integers(0, 3),
    st.integers(0, 100),
    st.booleans(),
    st.integers(1, 50),
)


class TestInterleavedSteppers:
    @given(
        st.sampled_from(sorted(FACTORIES)),
        st.sampled_from(["xy", "west_first"]),
        st.integers(0, 1000),
        st.lists(fault_events, max_size=8),
        st.integers(0, 2**16 - 1),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_interleaved_equals_reference(
        self, kind, routing_kind, seed, events, pattern
    ):
        _run_interleaved(kind, routing_kind, seed, events, pattern)

    @pytest.mark.parametrize("routing_kind", ["xy", "west_first"])
    def test_every_mechanism_fires_under_gating(self, routing_kind):
        """The fault mix is not vacuous: on the protected router each
        tolerance mechanism is exercised while phases are being skipped."""
        hot = 5  # an interior router on the XY paths of most flows
        events = [
            TimelineEvent(10, _site(FaultUnit.VA1_ARBITER_SET, hot, p, v))
            for p in range(5)
            for v in (0, 2)
        ]
        events += [
            TimelineEvent(10, _site(FaultUnit.VA2_ARBITER, hot, p, 0))
            for p in range(5)
        ]
        events += [
            TimelineEvent(12, _site(FaultUnit.SA1_ARBITER, hot, p, -1))
            for p in range(5)
        ]
        events += [
            TimelineEvent(14, _site(FaultUnit.XB_MUX, 6, 1, -1)),
            TimelineEvent(14, _site(FaultUnit.XB_MUX, 9, 3, -1)),
            TimelineEvent(
                20, _site(FaultUnit.SA1_ARBITER, 10, 2, -1),
                transient=True, duration=40,
            ),
        ]
        sim = _run_interleaved("protected", routing_kind, 7, events, 0x0F0F)
        stats = sim.aggregate_router_stats()
        assert stats.va_borrowed_grants > 0
        assert stats.va_stage2_fault_retries > 0
        assert stats.sa_bypass_grants > 0
        assert stats.vc_transfers > 0
        assert stats.secondary_path_grants > 0
        assert sim.faults_injected == len(events)
        assert not sim.routers[10].faults.any_faults  # the transient healed


class TestFaultOnIdleRouter:
    def test_woken_runs_no_phase_and_is_pruned(self):
        sim = NoCSimulator(
            NET,
            SIM_CFG,
            NullTraffic(),
            router_factory=protected_router_factory(NET),
            fault_schedule=FaultTimeline(
                [TimelineEvent(5, _site(FaultUnit.SA1_ARBITER, 6, 1, -1))]
            ),
        )
        router = sim.routers[6]
        calls: list[str] = []
        for phase in ("xb_phase", "sa_phase", "va_phase", "rc_phase"):
            setattr(
                router, phase, lambda *a, _phase=phase, **kw: calls.append(_phase)
            )
        woken: list[int] = []
        wake = router.on_wake
        router.on_wake = lambda node: (woken.append(node), wake(node))
        for cycle in range(8):
            sim._step(cycle, inject_traffic=True)
            assert not sim._active_routers  # pruned within the cycle
        assert woken == [6]
        assert calls == []
        assert sim.faults_injected == 1
        assert 1 in router.faults.sa1


class TestCountersClearOnReset:
    @staticmethod
    def _counters(sim: NoCSimulator) -> list:
        return [(r._nonidle, r._in_rc, r._in_va, r._in_sa) for r in sim.routers]

    def _traffic(self):
        return SyntheticTraffic(NET, injection_rate=0.15, rng=4)

    def _abandon_mid_packet(self, sim: NoCSimulator) -> None:
        for cycle in range(40):
            sim._step(cycle, inject_traffic=True)
        held = [sum(c) for c in zip(*self._counters(sim))]
        assert all(held), f"no VC in some stage: (nonidle, rc, va, sa)={held}"

    def test_reset_zeroes_counters(self):
        """``BaseRouter.clear_dynamic_state()`` (what ``functional_failure``
        clears a router with between probe flows) leaves no stage counter
        behind a VC it emptied."""
        sim = NoCSimulator(NET, SIM_CFG, self._traffic())
        self._abandon_mid_packet(sim)
        for r in sim.routers:
            r.clear_dynamic_state()
            r.check_invariants()
        assert set(self._counters(sim)) == {(0, 0, 0, 0)}
