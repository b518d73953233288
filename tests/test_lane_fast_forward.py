"""Frozen stretches on lanes: the lane engine's fast-forward.

When two consecutive steps write no state, ``BatchedLaneEngine.run``
jumps to the next wake and adds the frozen step's counters for the cycles
it skipped (``_fast_forward``).  Three things are held here:

* a state oracle: every step the engine calls quiet (``_quiet()``) leaves
  every state array byte-identical, on Hypothesis-drawn small lanes of all
  three router kinds under permanent and transient faults of every unit,
  with lane refill;
* the results with ``_fast_forward`` patched away equal the results with
  it, and both equal the object engine, lane for lane;
* the optimisation keeps firing: a kernel that forgot to report a write
  would turn it off while every bit-identity test stays green, so one
  seeded campaign chunk pins its exact ``skipped_cycles``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.experiments import fault_campaign, parallel
from repro.experiments.latency import LatencyConfig
from repro.faults import FaultSite, FaultTimeline, FaultUnit, TimelineEvent
from repro.faults.schedule import TimelineSpec
from repro.faults.sites import enumerate_sites
from repro.network.batched import LANE_KINDS, BatchedLaneEngine, LaneSpec, router_factory
from repro.network.simulator import NoCSimulator
from repro.router.flit import reset_packet_ids
from repro.traffic.generator import SyntheticTraffic

def _state(engine):
    """Every array of the engine but the counters (``rstats``: all a quiet
    step may change), the event rings and the fault cursor, as bytes."""
    snap = {
        name: (value.dtype.str, value.shape, value.tobytes())
        for name, value in vars(engine).items()
        if isinstance(value, np.ndarray) and name != "rstats"
    }
    snap["rings"] = [
        [None if ev is None else [a.tobytes() for a in ev] for ev in ring]
        for ring in engine._rings
    ]
    snap["fault_at"] = engine._fault_at
    snap["faults_injected"] = list(engine.faults_injected)
    return snap


class _Oracle(BatchedLaneEngine):
    """The engine with every step it calls quiet checked against a
    snapshot of its state before the step."""

    def _step(self, cycle, local):
        before = _state(self)
        super()._step(cycle, local)
        if self._quiet():
            after = _state(self)
            changed = sorted(k for k in before if before[k] != after[k])
            assert changed == [], f"cycle {cycle}: a quiet step wrote {changed}"


def _no_fast_forward(self, cycle, before, live):
    return cycle


def _key(res):
    return (
        res.cycles, res.blocked, res.drained, res.faults_injected,
        repr(res.stats.summary()), dataclasses.asdict(res.router_stats),
        res.recovery,
    )


@dataclasses.dataclass(frozen=True)
class _Point:
    kind: str
    rate: float
    seed: int
    #: ``(cycle, site, transient, duration)``
    events: tuple
    recovery_log: bool


def _spec(net, point):
    schedule = FaultTimeline(
        (TimelineEvent(c, site, transient=t, duration=d) for c, site, t, d in point.events),
        recovery_log=point.recovery_log,
    ) if point.events else None
    return LaneSpec(
        SyntheticTraffic(net, injection_rate=point.rate, rng=point.seed),
        schedule, point.kind,
    )


def _object_engine(net, cfg, point):
    reset_packet_ids()
    spec = _spec(net, point)
    return NoCSimulator(
        net, cfg, spec.traffic,
        router_factory=router_factory(point.kind, net),
        fault_schedule=spec.fault_schedule,
    )._run_stepped()


def _lanes(engine_cls, net, cfg, points, width):
    specs = [_spec(net, p) for p in points]
    engine = engine_cls(net, cfg, specs[:width], pending=specs[width:])
    return engine, engine.run()


def _check(net, cfg, points, width, oracle=_Oracle):
    """Oracle lanes == lanes without the fast-forward == the object engine;
    returns the oracle engine."""
    engine, fast = _lanes(oracle, net, cfg, points, width)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchedLaneEngine, "_fast_forward", _no_fast_forward)
        stepped_engine, stepped = _lanes(BatchedLaneEngine, net, cfg, points, width)
    assert stepped_engine.skipped_cycles == 0
    for i, point in enumerate(points):
        ref = _key(_object_engine(net, cfg, point))
        assert _key(fast[i]) == ref, f"lane {i} ({point.kind}) with the fast-forward"
        assert _key(stepped[i]) == ref, f"lane {i} ({point.kind}) stepped"
    return engine


def _net(width=3, height=3, vcs=4, vnets=2):
    return NetworkConfig(
        width=width, height=height, router=RouterConfig(num_vcs=vcs, num_vnets=vnets)
    )


def _cfg(watchdog, drain=400):
    return SimulationConfig(
        warmup_cycles=20, measure_cycles=100, drain_cycles=drain,
        seed=1, watchdog_cycles=watchdog,
    )


def _site(router, unit, port, vc=-1):
    return FaultSite(router, FaultUnit[unit], port, vc)


#: hand-picked lanes on the default 3x3 mesh: baseline routers whose
#: requests lose VA stage 2 to faulty arbiters while their VA1 pointers
#: move or have converged; a protected SA1 bypass port whose candidates
#: wait for the rotating default while the rest of the lane is frozen; a
#: protected VA2 retry; transients healing beside a blocked lane
_CASES = {
    "baseline-va2": [
        _Point("baseline", 0.2, 3, ((30, _site(4, "VA2_ARBITER", 1, 0), False, 1),
                                    (30, _site(4, "VA2_ARBITER", 1, 1), False, 1)), True),
        _Point("baseline", 0.08, 4, ((10, _site(4, "VA2_ARBITER", 2, 2), False, 1),), False),
    ],
    "protected-sa1-bypass": [
        _Point("protected", 0.1, 74, ((25, _site(3, "SA1_ARBITER", 1), False, 1),
                                      (34, _site(4, "RC_PRIMARY", 1), False, 1),
                                      (34, _site(4, "RC_DUPLICATE", 1), False, 1)), True),
        _Point("baseline", 0.2, 6, ((25, _site(4, "SA1_ARBITER", 3), False, 1),), True),
    ],
    "protected-va2-retry": [
        _Point("protected", 0.2, 7, ((15, _site(4, "VA2_ARBITER", 0, 0), False, 1),
                                     (15, _site(4, "VA2_ARBITER", 0, 1), False, 1)), True),
    ],
    "transients-beside-a-blocked-lane": [
        _Point("baseline", 0.2, 8, ((20, _site(4, "XB_MUX", 1), False, 1),), True),
        _Point("protected", 0.08, 9, ((60, _site(1, "RC_PRIMARY", 0), True, 150),
                                      (200, _site(7, "SA2_ARBITER", 2), True, 90)), True),
        _Point("roco", 0.08, 10, ((40, _site(4, "VA1_ARBITER_SET", 2, 1), True, 30),), False),
    ],
}


@pytest.mark.parametrize("name", list(_CASES))
@pytest.mark.parametrize("width", [1, 2])
def test_hand_picked_lanes(name, width):
    _check(_net(), _cfg(watchdog=200), _CASES[name], width)


@st.composite
def _scenarios(draw):
    vcs, vnets = draw(st.sampled_from(((2, 1), (4, 2), (4, 1))))
    net = _net(draw(st.integers(2, 3)), draw(st.integers(2, 3)), vcs, vnets)
    points = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(LANE_KINDS))
        sites = [
            site for r in range(net.num_nodes)
            for site in enumerate_sites(net.router, r, kind != "baseline")
        ]
        events = draw(st.lists(
            st.tuples(
                st.integers(0, 200), st.sampled_from(sites),
                st.booleans(), st.integers(1, 120),
            ),
            max_size=4,
        ))
        points.append(_Point(
            kind, draw(st.sampled_from((0.03, 0.1, 0.25))), draw(st.integers(0, 99)),
            tuple(sorted(events, key=lambda e: e[0])), draw(st.booleans()),
        ))
    width = draw(st.integers(1, len(points)))
    return net, _cfg(draw(st.sampled_from((60, 200, 100_000)))), points, width


@given(_scenarios())
@settings(max_examples=30, deadline=None)
def test_quiet_steps_write_nothing_and_skips_change_nothing(scenario):
    _check(*scenario)


def test_a_retirement_between_two_quiet_steps_disarms_the_jump():
    """A blocked lane trips its watchdog one quiet step after the last
    write elsewhere, and a sparse pending lane takes its slot without
    writing: the install zeroes the counters the next quiet step would be
    measured from, so the jump must wait for two quiet steps after it."""

    class Recorder(_Oracle):
        after_quiet = 0

        def _retire(self, lane, cycle, blocked, drained):
            self.after_quiet += self._quiet()
            super()._retire(lane, cycle, blocked, drained)

    points = [
        _Point("baseline", 0.2, 6, ((25, _site(4, "SA1_ARBITER", 3), False, 1),), True),
        _Point("baseline", 0.05, 11, (), False),
        *(_Point("baseline", 0.01, seed, (), False) for seed in range(21, 25)),
    ]
    engine = _check(_net(), _cfg(watchdog=117), points, 2, Recorder)
    assert engine.after_quiet > 0 and engine.skipped_cycles > 0


# ----------------------------------------------------------------------
# the fast-forward keeps firing
# ----------------------------------------------------------------------
def _campaign_engine():
    """One ``campaign_4x4``-shaped campaign chunk: 4 timelines x {baseline,
    protected} plus references.  Three baseline lanes block, one of them
    on requests that lose VA stage 2 to a faulty arbiter with their VA1
    pointers converged: a kernel reporting that rewrite as a write would
    turn the jump off there."""
    config = fault_campaign.CampaignConfig(
        timelines=4,
        router_kinds=("baseline", "protected"),
        timeline=TimelineSpec(events=4, mean_interval=150.0),
        latency=LatencyConfig(
            width=4, height=4, warmup_cycles=150, measure_cycles=450,
            drain_cycles=300, seed=236358743,
        ),
        app="lu",
    )
    engines = []
    run = BatchedLaneEngine.run

    def keep(self, on_result=None):
        engines.append(self)
        return run(self, on_result)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchedLaneEngine, "run", keep)
        results = parallel._lane_batched_chunk(
            tuple(fault_campaign.points(config)), parallel.DEFAULT_LANE_WIDTH
        )
    (engine,) = engines
    return engine, results


def test_a_campaign_chunk_skips_its_pinned_count():
    engine, results = _campaign_engine()
    # the blocked baseline lanes idle to the drain horizon
    assert [r.cycles for r in results if not r.drained] == [900] * 3
    assert engine.stage_profile["skipped_cycles"] == engine.skipped_cycles == 255
    assert engine.total_lane_cycles // engine.L == 900


def test_a_blocked_baseline_lane_skips_to_its_horizon():
    """Watchdog far away: the blocked lane idles to its drain horizon, and
    almost all of that is jumped over, with the object engine's result."""
    net, cfg = _net(), _cfg(watchdog=100_000, drain=3000)
    point = _Point("baseline", 0.2, 12, ((30, _site(4, "SA1_ARBITER", 0), False, 1),), True)
    engine, (lane,) = _lanes(BatchedLaneEngine, net, cfg, [point], 1)
    ref = _object_engine(net, cfg, point)
    assert not lane.drained and lane.cycles == ref.cycles == 3120
    assert (lane.blocked, lane.router_stats) == (ref.blocked, ref.router_stats)
    assert _key(lane) == _key(ref)
    assert engine.skipped_cycles == 2974
