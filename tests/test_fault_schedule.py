"""The unified ``FaultSchedule`` API (:mod:`repro.faults.schedule`).

Pins the api-redesign contract: the runtime-checkable protocol, the
frozen ``TimelineSpec`` and its JSON round trip through the service, and
the simulator's rejection of non-protocol objects.
"""

import dataclasses
import hashlib

import pytest

from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.faults import (
    FaultSchedule,
    FaultSite,
    FaultTimeline,
    FaultUnit,
    RandomFaultSchedule,
    TimelineEvent,
    TimelineSpec,
    random_timeline,
    random_transients,
    site_from_tuple,
    site_token,
    site_tuple,
)

CFG = RouterConfig()
SITE = FaultSite(3, FaultUnit.RC_PRIMARY, 0)


def _one_of_each():
    """Every way to build a schedule: by hand, empty, and each draw."""
    return [
        FaultTimeline([TimelineEvent(10, SITE)]),
        FaultTimeline(()),
        RandomFaultSchedule(CFG, 9, 1000.0, 2, rng=5),
        FaultTimeline(random_transients(CFG, 9, 0.01, 100, rng=3)),
        random_timeline(CFG, 9, events=3, mean_interval=100.0, rng=2),
    ]


class TestProtocol:
    def test_every_schedule_satisfies_the_protocol(self):
        for sched in _one_of_each():
            assert isinstance(sched, FaultSchedule), type(sched).__name__
            assert isinstance(sched, FaultTimeline)
        # the draws keep the recovery-log choice of the classes they replaced
        assert [s.recovery_log for s in _one_of_each()] == [
            False, False, False, False, True,
        ]

    def test_simulator_rejects_non_protocol_schedule(self):
        """The methods are mandatory: a duck-typed object missing one is
        refused at construction, naming the method."""
        from repro.network.simulator import NoCSimulator
        from repro.traffic.generator import NullTraffic

        class EventsOnly:
            def events_at(self, cycle):
                return iter(())

        net = NetworkConfig(width=2, height=2)
        with pytest.raises(TypeError, match=r"missing next_cycle\(\)"):
            NoCSimulator(
                net, SimulationConfig(), NullTraffic(),
                fault_schedule=EventsOnly(),
            )

    def test_a_schedule_without_heals_due_is_refused(self):
        """``heals_due`` is part of the protocol: both engines heal, then
        inject, on every cycle they poll, so a schedule that cannot heal
        is refused at construction, naming the method — and one with all
        three methods builds and runs."""
        from repro.network.simulator import NoCSimulator
        from repro.traffic.generator import NullTraffic

        class NoHeals:
            def events_at(self, cycle):
                return iter(())

            def next_cycle(self):
                return None

        class Minimal(NoHeals):
            def heals_due(self, cycle):
                return iter(())

        net = NetworkConfig(width=2, height=2)
        sim_cfg = SimulationConfig(warmup_cycles=2, measure_cycles=5, drain_cycles=5)
        assert not isinstance(NoHeals(), FaultSchedule)
        with pytest.raises(TypeError, match=r"missing heals_due\(\)"):
            NoCSimulator(net, sim_cfg, NullTraffic(), fault_schedule=NoHeals())
        assert isinstance(Minimal(), FaultSchedule)
        sim = NoCSimulator(net, sim_cfg, NullTraffic(), fault_schedule=Minimal())
        assert sim.run().faults_injected == 0


def _plan_digest(tokens) -> str:
    """16-hex digest over an ordered ``cycle@site[~duration]`` token
    stream (the spelling the recorded values below were taken in)."""
    h = hashlib.sha256()
    for token in tokens:
        h.update(token.encode() + b"\n")
    return h.hexdigest()[:16]


def _timeline_digest(timeline) -> str:
    return _plan_digest(
        f"{e.cycle}@{site_token(e.site)}"
        + (f"~{e.duration}" if e.transient else "")
        for e in timeline.events
    )


class TestSharedSitePool:
    """The random schedules draw from one cached, immutable site pool per
    geometry (:func:`repro.faults.sites.network_sites`); sharing it must
    change neither the RNG stream nor any drawn schedule."""

    NET = NetworkConfig(
        width=8, height=8, router=RouterConfig(num_vcs=4, num_vnets=2)
    )

    def test_fingerprints_unchanged_by_pool_sharing(self):
        """Digests recorded on the commit that still rebuilt the pool for
        every schedule (``enumerate_sites`` per router, per schedule)."""
        cfg, n = self.NET.router, self.NET.num_nodes
        assert _timeline_digest(RandomFaultSchedule(
            cfg, n, 40.0, 32, rng=11, avoid_failure=True
        )) == "4aa8811232334a11"
        assert _timeline_digest(RandomFaultSchedule(
            cfg, n, 40.0, 12, rng=11, protected=False, include_va2=False
        )) == "56c77ce5bcfdd04b"
        assert _timeline_digest(random_timeline(
            cfg, n, events=8, mean_interval=100.0, rng=5
        )) == "e0ce67aa9a22e7ce"
        assert _timeline_digest(FaultTimeline(
            random_transients(cfg, n, 0.05, 400, duration=3, rng=5)
        )) == "c394a4d011aaabd5"

    def test_pool_built_once_for_a_sweep_of_schedules(self):
        from conftest import lane_schedules
        from repro.faults.sites import enumerate_sites, network_sites

        network_sites.cache_clear()
        cfg, n = self.NET.router, self.NET.num_nodes
        lanes = lane_schedules(
            self.NET, 32, 3, mean_interval=40.0, num_faults=8, avoid_failure=True,
        )
        assert network_sites.cache_info().misses == 1
        pool = network_sites(cfg, n, True, True)
        assert list(pool) == [
            site for r in range(n) for site in enumerate_sites(cfg, router=r)
        ]
        by_identity = {id(site) for site in pool}
        assert all(
            id(e.site) in by_identity for lane in lanes for e in lane.events
        )
        assert len({_timeline_digest(lane) for lane in lanes}) == 32


class TestToleratedDraw:
    """``draw_sites(avoid_failure=True)`` checks only the failure component
    that holds the drawn site; the greedy loop over the whole predicate in
    ``tests/oracles.py`` must draw the same sites in the same order."""

    CONFIGS = {
        "4vc": RouterConfig(),
        "2vc": RouterConfig(num_vcs=2),
        "3vc": RouterConfig(num_vcs=3),
        "4vc-2vnet": RouterConfig(num_vcs=4, num_vnets=2),
        "8vc-2vnet": RouterConfig(num_vcs=8, num_vnets=2),
        "6vc-3vnet": RouterConfig(num_vcs=6, num_vnets=3),
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    @pytest.mark.parametrize("protected", [True, False])
    def test_equal_to_the_whole_predicate(self, name, protected):
        import numpy as np

        from oracles import draw_sites_reference
        from repro.faults.timeline import draw_sites

        config = self.CONFIGS[name]
        for routers in (1, 4, 16):
            for count in (1, 8, 32):
                for seed in range(8):
                    ref = draw_sites_reference(
                        config, routers, count, np.random.default_rng(seed),
                        protected=protected,
                    )
                    gen = np.random.default_rng(seed)
                    if len(ref) < count:
                        with pytest.raises(ValueError):
                            draw_sites(config, routers, count, gen, protected=protected,
                                       avoid_failure=True)
                        continue
                    assert draw_sites(
                        config, routers, count, gen, protected=protected, avoid_failure=True
                    ) == ref, (routers, count, seed)


class TestJSONSideDoor:
    def test_site_tuple_round_trip(self):
        assert site_from_tuple(site_tuple(SITE)) == SITE


class TestServiceRoundTrip:
    """Campaign configs are JSON-submittable and cache-key soundly."""

    def test_build_config_nested_timeline_spec(self):
        from repro.service.fingerprint import build_config

        cfg = build_config(
            "fault_campaign",
            {
                "timelines": 4,
                "router_kinds": ["protected"],
                "timeline": {"events": 2, "mean_interval": 250.0, "seed": 9},
            },
        )
        assert cfg.timelines == 4
        assert cfg.router_kinds == ("protected",)
        assert cfg.timeline == TimelineSpec(
            events=2, mean_interval=250.0, seed=9
        )

    def test_fingerprint_stable_across_spellings(self):
        from repro.service.fingerprint import (
            effective_config,
            request_fingerprint,
        )

        spelled, seed1 = effective_config(
            "fault_campaign",
            {"timeline": {"events": 8, "mean_interval": 2000.0}},
        )
        defaulted, seed2 = effective_config("fault_campaign", {})
        assert request_fingerprint(
            "fault_campaign", spelled, seed=seed1
        ) == request_fingerprint("fault_campaign", defaulted, seed=seed2)
        changed, seed3 = effective_config(
            "fault_campaign", {"timeline": {"events": 9}}
        )
        assert request_fingerprint(
            "fault_campaign", changed, seed=seed3
        ) != request_fingerprint("fault_campaign", defaulted, seed=seed2)

    def test_canonical_handles_timeline_spec(self):
        from repro.service.fingerprint import canonical

        out = canonical(TimelineSpec())
        assert out["__config__"] == "TimelineSpec"
        assert out["events"] == 8


class TestSpecFreezing:
    def test_specs_are_frozen_and_hashable(self):
        spec = TimelineSpec()
        hash(spec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 1
