"""The unified ``FaultSchedule`` API (:mod:`repro.faults.schedule`).

Pins the api-redesign contract: the runtime-checkable protocol, the
frozen spec dataclasses and their ``make_schedule`` registry, stable
content fingerprints, the JSON side-door used by the service, the
simulator's rejection of non-protocol objects, and the warm-pool key
regression (schedule fingerprints must be part of the pool key).
"""

import dataclasses

import pytest

from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.faults import (
    FaultSchedule,
    FaultSite,
    FaultTimeline,
    FaultUnit,
    NullFaultSchedule,
    NullSpec,
    RandomSpec,
    ScheduledSpec,
    TimelineSpec,
    TransientFaultSchedule,
    TransientSpec,
    make_schedule,
    schedule_spec,
    site_from_tuple,
    site_tuple,
    spec_name,
)
from repro.faults.schedule import SCHEDULE_SPECS

CFG = RouterConfig()
SITE = FaultSite(3, FaultUnit.RC_PRIMARY, 0)


def _one_of_each():
    return [
        make_schedule(ScheduledSpec(events=((10, 3, "rc_primary", 0, -1),))),
        make_schedule(RandomSpec(num_faults=2, seed=5), config=CFG, num_routers=9),
        make_schedule(NullSpec()),
        make_schedule(
            TransientSpec(rate_per_cycle=0.01, cycles=100, seed=3),
            config=CFG,
            num_routers=9,
        ),
        make_schedule(
            TimelineSpec(events=3, mean_interval=100.0, seed=2),
            config=CFG,
            num_routers=9,
        ),
    ]


class TestProtocol:
    def test_every_schedule_satisfies_the_protocol(self):
        for sched in _one_of_each():
            assert isinstance(sched, FaultSchedule), type(sched).__name__

    def test_simulator_rejects_non_protocol_schedule(self):
        """The three methods are mandatory: a duck-typed object missing
        one is refused at construction, naming the method."""
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

    def test_registry_names(self):
        assert set(SCHEDULE_SPECS) == {
            "scheduled", "random", "none", "transient", "timeline",
        }
        assert spec_name(RandomSpec()) == "random"
        assert spec_name(object()) is None


class TestFingerprints:
    def test_stable_and_consumption_independent(self):
        for build in (
            lambda: make_schedule(
                RandomSpec(num_faults=3, seed=11), config=CFG, num_routers=9
            ),
            lambda: make_schedule(
                TimelineSpec(events=3, mean_interval=50.0, seed=1),
                config=CFG,
                num_routers=9,
            ),
        ):
            a, b = build(), build()
            fp = a.fingerprint()
            assert fp == b.fingerprint()
            # consuming events must not change the identity of the plan
            list(a.events_at(10**9))
            assert a.fingerprint() == fp

    def test_kind_prefix_and_content_sensitivity(self):
        fp1 = make_schedule(
            RandomSpec(num_faults=2, seed=1), config=CFG, num_routers=9
        ).fingerprint()
        fp2 = make_schedule(
            RandomSpec(num_faults=2, seed=2), config=CFG, num_routers=9
        ).fingerprint()
        assert fp1 != fp2
        assert NullFaultSchedule().fingerprint() == "none:0"
        tl = make_schedule(
            TimelineSpec(events=2, mean_interval=40.0, seed=0),
            config=CFG,
            num_routers=9,
        )
        assert tl.fingerprint().startswith("timeline:")

    def test_transient_duration_in_fingerprint(self):
        from repro.faults import TransientFault

        a = TransientFaultSchedule([TransientFault(10, SITE, duration=4)])
        b = TransientFaultSchedule([TransientFault(10, SITE, duration=9)])
        assert a.fingerprint() != b.fingerprint()


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
        from repro.faults.injector import RandomFaultSchedule
        from repro.faults.timeline import random_timeline
        from repro.faults.transient import random_transients

        cfg, n = self.NET.router, self.NET.num_nodes
        assert RandomFaultSchedule(
            cfg, n, 40.0, 32, rng=11, avoid_failure=True
        ).fingerprint() == "scheduled:4aa8811232334a11"
        assert RandomFaultSchedule(
            cfg, n, 40.0, 12, rng=11, protected=False, include_va2=False
        ).fingerprint() == "scheduled:56c77ce5bcfdd04b"
        assert random_timeline(
            cfg, n, events=8, mean_interval=100.0, rng=5
        ).fingerprint() == "timeline:e0ce67aa9a22e7ce"
        assert TransientFaultSchedule(
            random_transients(cfg, n, 0.05, 400, duration=3, rng=5)
        ).fingerprint() == "transient:c394a4d011aaabd5"

    def test_pool_built_once_for_a_sweep_of_schedules(self):
        from repro.faults.injector import spawn_lane_injectors
        from repro.faults.sites import enumerate_sites, network_sites

        network_sites.cache_clear()
        cfg, n = self.NET.router, self.NET.num_nodes
        lanes = spawn_lane_injectors(
            cfg, n, lanes=32, mean_interval=40.0, num_faults=8, rng=3,
            avoid_failure=True,
        )
        assert network_sites.cache_info().misses == 1
        pool = network_sites(cfg, n, True, True)
        assert list(pool) == [
            site for r in range(n) for site in enumerate_sites(cfg, router=r)
        ]
        by_identity = {id(site) for site in pool}
        assert all(
            id(site) in by_identity for lane in lanes for _, site in lane.planned
        )
        assert len({lane.fingerprint() for lane in lanes}) == 32


class TestJSONSideDoor:
    def test_schedule_spec_coerces_lists(self):
        spec = schedule_spec(
            "scheduled", {"events": [[10, 3, "rc_primary", 0, -1]]}
        )
        assert spec == ScheduledSpec(events=((10, 3, "rc_primary", 0, -1),))
        sched = make_schedule(spec)
        assert list(sched.events_at(10)) == [SITE]

    def test_unknown_name_and_field_raise(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            schedule_spec("cosmic_rays")
        with pytest.raises(TypeError):
            schedule_spec("random", {"num_fault": 3})

    def test_site_tuple_round_trip(self):
        assert site_from_tuple(site_tuple(SITE)) == SITE

    def test_geometry_required_for_drawing_specs(self):
        with pytest.raises(ValueError, match="config"):
            make_schedule(RandomSpec(num_faults=1))
        with pytest.raises(TypeError, match="not a registered"):
            make_schedule(object())


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


class TestWarmPoolFingerprintKey:
    """Regression: the schedule fingerprint is part of the pool key."""

    def _fixture(self):
        from repro.core.protected_router import protected_router_factory
        from repro.traffic.generator import SyntheticTraffic

        net = NetworkConfig(width=3, height=3)
        sim_cfg = SimulationConfig(
            warmup_cycles=20, measure_cycles=50, drain_cycles=500,
            seed=3, watchdog_cycles=2000,
        )
        traffic = lambda seed: SyntheticTraffic(  # noqa: E731
            net, injection_rate=0.02, rng=seed
        )
        return net, sim_cfg, traffic, protected_router_factory(net)

    def test_fingerprint_is_in_the_key(self):
        from repro.network import warm

        warm.clear_pool()
        try:
            net, sim_cfg, traffic, factory = self._fixture()
            sched = make_schedule(
                TransientSpec(rate_per_cycle=0.05, cycles=40, seed=1),
                config=net.router,
                num_routers=net.num_nodes,
            )
            a = warm.acquire(net, sim_cfg, traffic(1), factory, sched)
            key_a = next(iter(warm._POOL))
            assert key_a[-1] == sched.fingerprint()
            # same structure, no schedule: fabric recycles under a new key
            b = warm.acquire(net, sim_cfg, traffic(2), factory, None)
            assert b is a, "structural match should recycle the fabric"
            assert warm.pool_size() == 1
            (key_b,) = warm._POOL
            assert key_b[-1] == "none"
            assert key_b != key_a
        finally:
            warm.clear_pool()


class TestSpecFreezing:
    def test_specs_are_frozen_and_hashable(self):
        for spec in (
            ScheduledSpec(events=((1, 0, "rc_primary", 0, -1),)),
            RandomSpec(),
            NullSpec(),
            TransientSpec(),
            TimelineSpec(),
        ):
            hash(spec)
            with pytest.raises(dataclasses.FrozenInstanceError):
                spec.name = "other"
