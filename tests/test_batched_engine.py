"""The batched lane engine (:mod:`repro.network.batched`).

The engine's contract is *bit-identity*: stepping N structurally
identical sweep points as lanes of flat NumPy state arrays must produce,
for every lane, exactly the result a serial per-lane event-engine run
produces — cycle counts, drain status, the full latency/throughput
summary, and the aggregated router counters.  These tests pin that
contract two ways:

* **differential matrix + fuzz** — fixed scenarios spanning mesh shape,
  VC/vnet count, router kind, routing kind, and fault schedules, plus
  seeded randomized draws of the same axes;
* **sweep-layer seams** — ``run_lane_sweep`` grouping (a group of one
  point is a ``run_point`` task; every configuration a mesh allows is a
  lane) and chunking invariance across ``jobs``.
"""

import functools
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lane_schedules, stepped_point, sweep_files, unstepped
from repro.comparison.ecc_sim import DatapathFaultyRouter
from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.core.protected_router import protected_router_factory
from repro.experiments import parallel
from repro.experiments.load_latency import _make_schedule, _make_traffic
from repro.experiments.parallel import (
    LanePoint,
    map_sweep,
    run_lane_sweep,
    run_point,
)
from repro.network.batched import (
    LANE_KINDS,
    LANE_ROUTERS,
    BatchedLaneEngine,
    LaneSpec,
    router_factory,
    run_lanes,
)
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.router.flit import reset_packet_ids
from repro.traffic.generator import (
    COHERENCE_MIX,
    SINGLE_FLIT_MIX,
    NullTraffic,
    SyntheticTraffic,
)


def _net(width, height, vcs, vnets):
    return NetworkConfig(
        width=width, height=height,
        router=RouterConfig(num_vcs=vcs, num_vnets=vnets),
    )


def _sim_cfg(measure=250, seed=5):
    return SimulationConfig(
        warmup_cycles=50,
        measure_cycles=measure,
        drain_cycles=1500,
        seed=seed,
        watchdog_cycles=6000,
    )


def _factory(net, kind):
    if kind == "protected":
        return protected_router_factory(net)
    return baseline_router_factory(net)


def _lane_key(res):
    """Everything a lane result asserts: identity, not approximation."""
    import dataclasses

    return (
        res.cycles,
        res.blocked,
        res.drained,
        res.faults_injected,
        res.stats.summary(),
        dataclasses.asdict(res.router_stats),
    )


def _event_reference(net, sim_cfg, spec, factory, routing_kind="xy", **sim_kwargs):
    reset_packet_ids()
    sim = NoCSimulator(
        net, sim_cfg, spec.traffic,
        router_factory=factory,
        fault_schedule=spec.fault_schedule,
        routing_kind=routing_kind,
        **sim_kwargs,
    )
    # the object engine's own loop, whatever the load: ``run()`` would ride
    # a lane above the break-even, and an oracle must stay independent
    return sim._run_stepped()


def _assert_lanes_match(net, sim_cfg, make_specs, kind, routing_kind="xy"):
    """Batched run vs per-lane event runs over identical lane inputs.

    ``make_specs`` is called once per engine so each gets fresh,
    identically seeded traffic/schedule objects.
    """
    factory = _factory(net, kind)
    reset_packet_ids()
    batched = run_lanes(
        net, sim_cfg, make_specs(), router_factory=factory,
        routing_kind=routing_kind,
    )
    refs = [
        _event_reference(net, sim_cfg, spec, factory, routing_kind)
        for spec in make_specs()
    ]
    assert len(batched) == len(refs)
    for lane, (b, r) in enumerate(zip(batched, refs)):
        assert _lane_key(b) == _lane_key(r), f"lane {lane} diverged"


# ----------------------------------------------------------------------
# differential matrix
# ----------------------------------------------------------------------
class TestBatchedDifferential:
    def test_baseline_single_vnet(self):
        net = _net(3, 3, 2, 1)

        def specs():
            return [
                LaneSpec(SyntheticTraffic(net, injection_rate=r, rng=40 + i))
                for i, r in enumerate((0.05, 0.10, 0.15))
            ]

        _assert_lanes_match(net, _sim_cfg(), specs, "baseline")

    def test_protected_with_faults_coherence_mix(self):
        net = _net(4, 4, 4, 2)

        def specs():
            schedules = lane_schedules(
                net, 3, 77, mean_interval=30.0,
                num_faults=8, first_fault_at=40, avoid_failure=True,
            )
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.08, mix=COHERENCE_MIX,
                        rng=50 + i,
                    ),
                    schedules[i] if i else None,  # lane 0 fault-free
                )
                for i in range(3)
            ]

        _assert_lanes_match(net, _sim_cfg(), specs, "protected")

    def test_rectangular_mesh_yx_routing(self):
        net = _net(4, 2, 4, 2)

        def specs():
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.06, mix=COHERENCE_MIX, rng=60
                    )
                ),
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.12, mix=COHERENCE_MIX, rng=61
                    )
                ),
            ]

        _assert_lanes_match(net, _sim_cfg(), specs, "protected", "yx")

    def test_single_lane_degenerate(self):
        """A one-lane batch is just a slow spelling of a serial run."""
        net = _net(3, 3, 4, 2)

        def specs():
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.09, mix=COHERENCE_MIX, rng=80
                    )
                )
            ]

        _assert_lanes_match(net, _sim_cfg(), specs, "protected")

    def test_fuzz_randomized_scenarios(self):
        """Seeded property sweep over mesh/VC/rate/fault-count draws."""
        rng = np.random.default_rng(20260808)
        for case in range(4):
            width = int(rng.integers(2, 5))
            height = int(rng.integers(2, 4))
            vnets = int(rng.integers(1, 3))
            vcs = int(rng.choice([2, 4]))
            net = _net(width, height, vcs, vnets)
            kind = "protected" if rng.random() < 0.7 else "baseline"
            lanes = int(rng.integers(2, 5))
            rates = rng.uniform(0.02, 0.12, size=lanes).round(3)
            mix = COHERENCE_MIX if vnets == 2 else SINGLE_FLIT_MIX
            faulted = (
                kind == "protected"
                and rng.random() < 0.7
                and net.num_nodes >= 4
            )
            seed_base = int(rng.integers(0, 2**16))

            def specs():
                schedules = [None] * lanes
                if faulted:
                    injectors = lane_schedules(
                        net, lanes, seed_base + 1,
                        mean_interval=25.0,
                        num_faults=int(min(6, net.num_nodes)),
                        first_fault_at=30,
                        avoid_failure=True,
                    )
                    # every other lane carries faults
                    schedules = [
                        injectors[i] if i % 2 else None for i in range(lanes)
                    ]
                return [
                    LaneSpec(
                        SyntheticTraffic(
                            net, injection_rate=float(rates[i]), mix=mix,
                            rng=seed_base + 10 + i,
                        ),
                        schedules[i],
                    )
                    for i in range(lanes)
                ]

            _assert_lanes_match(
                net, _sim_cfg(measure=150, seed=seed_base % 97), specs, kind
            )


# ----------------------------------------------------------------------
# multi-cycle link/credit latency (per-edge delay rings)
# ----------------------------------------------------------------------
class TestMultiCycleLatency:
    def _net_lat(self, link, credit, vcs=4, vnets=2):
        return NetworkConfig(
            width=4, height=3, link_latency=link, credit_latency=credit,
            router=RouterConfig(num_vcs=vcs, num_vnets=vnets),
        )

    def test_link_latency_two(self):
        net = self._net_lat(2, 1)

        def specs():
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.05 + 0.03 * i,
                        mix=COHERENCE_MIX, rng=400 + i,
                    )
                )
                for i in range(3)
            ]

        _assert_lanes_match(net, _sim_cfg(), specs, "protected")

    @pytest.mark.parametrize("kind", ["baseline", "protected"])
    def test_link_latency_two_with_faults(self, kind):
        """Link deliveries and NIC injections share one buffer write a
        cycle; at link latency 2 a delivery left its router two cycles
        back, while faults land on every pipeline stage."""
        net = self._net_lat(2, 1)

        def specs():
            schedules = lane_schedules(
                net, 3, 91, mean_interval=25.0, num_faults=8,
                first_fault_at=30, avoid_failure=True,
            )
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.08, mix=COHERENCE_MIX,
                        rng=430 + i,
                    ),
                    schedules[i],
                )
                for i in range(3)
            ]

        _assert_lanes_match(net, _sim_cfg(), specs, kind)

    def test_credit_latency_three(self):
        net = self._net_lat(1, 3)

        def specs():
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.08, mix=COHERENCE_MIX,
                        rng=410 + i,
                    )
                )
                for i in range(2)
            ]

        _assert_lanes_match(net, _sim_cfg(), specs, "baseline")

    def test_both_nonunit_with_faults(self):
        net = self._net_lat(3, 2)

        def specs():
            schedules = lane_schedules(
                net, 3, 88, mean_interval=30.0,
                num_faults=6, first_fault_at=40,
                avoid_failure=True,
            )
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.07, mix=COHERENCE_MIX,
                        rng=420 + i,
                    ),
                    schedules[i] if i % 2 else None,
                )
                for i in range(3)
            ]

        _assert_lanes_match(net, _sim_cfg(), specs, "protected")


# ----------------------------------------------------------------------
# keep_samples: per-flit latency sampling through the batched path
# ----------------------------------------------------------------------
class TestKeepSamples:
    def test_samples_match_serial(self):
        net = NetworkConfig(
            width=4, height=4, link_latency=2,
            router=RouterConfig(num_vcs=4, num_vnets=2),
        )
        cfg = _sim_cfg(measure=250)
        factory = protected_router_factory(net)

        def specs():
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.08, mix=COHERENCE_MIX,
                        rng=430 + i,
                    )
                )
                for i in range(3)
            ]

        def sample_key(s):
            # packet ids are allocation-order artefacts; everything the
            # samples *measure* must match exactly
            return (s.src, s.dest, s.injection_cycle, s.ejection_cycle,
                    s.hops)

        reset_packet_ids()
        batched = run_lanes(
            net, cfg, specs(), router_factory=factory, keep_samples=True
        )
        for lane, spec in enumerate(specs()):
            reset_packet_ids()
            ref = NoCSimulator(
                net, cfg, spec.traffic, router_factory=factory,
                keep_samples=True,
            )._run_stepped()
            got = sorted(sample_key(s) for s in batched[lane].stats.samples)
            want = sorted(sample_key(s) for s in ref.stats.samples)
            assert got, f"lane {lane} kept no samples"
            assert got == want, f"lane {lane} samples diverged"
            assert batched[lane].stats.latency_percentile(95) == ref.stats.latency_percentile(95)


# ----------------------------------------------------------------------
# lane refill: streaming pending points into retired slots
# ----------------------------------------------------------------------
class TestLaneRefill:
    def _specs(self, net, n, seed0=200):
        schedules = lane_schedules(
            net, n, 123, mean_interval=30.0,
            num_faults=6, first_fault_at=40, avoid_failure=True,
        )
        return [
            LaneSpec(
                SyntheticTraffic(
                    net, injection_rate=0.04 + 0.01 * (i % 5),
                    mix=COHERENCE_MIX, rng=seed0 + i,
                ),
                schedules[i] if i % 2 else None,
            )
            for i in range(n)
        ]

    def test_refill_golden_bit_identical(self):
        """Every refilled point matches the same point run fresh."""
        net = _net(4, 4, 4, 2)
        cfg = _sim_cfg(measure=200)
        factory = protected_router_factory(net)
        reset_packet_ids()
        batched = run_lanes(
            net, cfg, self._specs(net, 8), router_factory=factory, width=2
        )
        refs = [
            _event_reference(net, cfg, s, factory)
            for s in self._specs(net, 8)
        ]
        assert len(batched) == 8
        for i, (b, r) in enumerate(zip(batched, refs)):
            assert _lane_key(b) == _lane_key(r), f"point {i} diverged"

    def test_width_invariance(self):
        """Any slot width yields the same per-point results."""
        net = _net(4, 4, 4, 2)
        cfg = _sim_cfg(measure=150)
        factory = protected_router_factory(net)
        reset_packet_ids()
        wide = run_lanes(net, cfg, self._specs(net, 6), router_factory=factory)
        reset_packet_ids()
        narrow = run_lanes(
            net, cfg, self._specs(net, 6), router_factory=factory, width=3
        )
        for i, (a, b) in enumerate(zip(wide, narrow)):
            assert _lane_key(a) == _lane_key(b), f"point {i} diverged"

    def test_occupancy_stays_dense_when_oversubscribed(self):
        """4x oversubscription keeps the state arrays >= 90% occupied."""
        from repro.network.batched import BatchedLaneEngine

        net = _net(4, 4, 4, 2)
        cfg = _sim_cfg(measure=200)
        lanes = self._specs(net, 16)
        engine = BatchedLaneEngine(
            net, cfg, lanes[:4],
            router_kind="protected",
            pending=lanes[4:],
        )
        results = engine.run()
        assert len(results) == 16
        assert all(r is not None for r in results)
        assert engine.lane_occupancy >= 0.9


# ----------------------------------------------------------------------
# golden determinism: faults pinned to window seams, through the refill
# path (PR 9 covered the event engine; this pins the batched engine)
# ----------------------------------------------------------------------
class TestSeamFaultsGoldenUnderRefill:
    """A fault landing exactly on the warmup/measure boundary, and one
    during drain, must be bit-identical between a refilled batched lane
    and a fresh event-engine run of the same point."""

    def _specs(self, net, cfg, n):
        from repro.faults import FaultSite, FaultTimeline, FaultUnit, TimelineEvent

        boundary = cfg.warmup_cycles  # first measured cycle
        in_drain = cfg.warmup_cycles + cfg.measure_cycles + 10
        specs = []
        for i in range(n):
            schedule = FaultTimeline(
                [
                    TimelineEvent(boundary, FaultSite(i % net.num_nodes,
                                                      FaultUnit.RC_PRIMARY, 0)),
                    TimelineEvent(in_drain, FaultSite((i + 5) % net.num_nodes,
                                                      FaultUnit.XB_MUX, 1)),
                ]
            )
            specs.append(
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.05, mix=COHERENCE_MIX,
                        rng=300 + i,
                    ),
                    schedule,
                )
            )
        return specs

    @pytest.mark.parametrize("kind", ["baseline", "protected"])
    def test_boundary_and_drain_faults_bit_identical(self, kind):
        net = _net(4, 4, 4, 2)
        cfg = _sim_cfg(measure=200)
        factory = _factory(net, kind)
        reset_packet_ids()
        # width=2 over 6 lanes: lanes 2..5 enter through the refill path
        batched = run_lanes(
            net, cfg, self._specs(net, cfg, 6),
            router_factory=factory, width=2,
        )
        refs = [
            _event_reference(net, cfg, spec, factory)
            for spec in self._specs(net, cfg, 6)
        ]
        for i, (b, r) in enumerate(zip(batched, refs)):
            assert b.faults_injected == 2, f"point {i} missed a seam fault"
            assert _lane_key(b) == _lane_key(r), f"point {i} diverged"


#: 15 VCs per port, the most a router of a mesh has (it needs 4 ports, and
#: a router holds at most 62 VCs)
_WIDE_VC_NET = NetworkConfig(
    width=1, height=4, router=RouterConfig(num_ports=4, num_vcs=15, num_vnets=3)
)


# ----------------------------------------------------------------------
# the router kind rule
# ----------------------------------------------------------------------
class TestSupportsGate:
    def test_an_unknown_kind_is_refused(self):
        """A kind string names a registered router class or nothing runs."""
        net = _net(4, 4, 2, 1)
        with pytest.raises(ValueError, match="damq"):
            router_factory("damq", net)
        with pytest.raises(ValueError, match="damq"):
            BatchedLaneEngine(net, _sim_cfg(), [LaneSpec(NullTraffic())], "damq")
        assert LANE_KINDS == tuple(LANE_ROUTERS) == ("baseline", "protected", "roco")

    def test_a_subclass_factory_is_refused_by_name(self):
        """``run_lanes`` reads the kind off the routers a factory builds: a
        subclass of a lane class is somebody's own router, and the error
        names it."""
        net = _net(4, 4, 2, 1)
        def datapath(node, routing):
            return DatapathFaultyRouter(node, net.router, routing)

        with pytest.raises(ValueError, match="DatapathFaultyRouter"):
            run_lanes(net, _sim_cfg(), [LaneSpec(NullTraffic())], router_factory=datapath)

    def test_oversized_vc_space_is_a_config_error(self):
        """What does not fit the allocators' bitmasks is no configuration at
        all, rather than a reason to keep a second engine."""
        for router in (dict(num_vcs=16), dict(num_ports=2, num_vcs=32)):
            with pytest.raises(ValueError, match="bitmasks"):
                RouterConfig(**router)
        assert RouterConfig(num_ports=2, num_vcs=31).num_vcs == 31
        assert RouterConfig(num_ports=5, num_vcs=12).num_vcs == 12

    def test_every_vc_count_a_mesh_allows_is_a_lane(self):
        """A mesh router of 15 VCs is a lane equal to the reference stepper;
        only a 1x1 fabric, which carries no packet, names more, and the
        engine refuses it by the limit."""
        net = _WIDE_VC_NET

        def specs():
            return [
                LaneSpec(_make_traffic(net, rate, 3), _unmarked_transients(net, 7))
                for rate in (0.05, 0.2)
            ]

        for kind in ("baseline", "protected"):
            factory = _factory(net, kind)
            lanes = run_lanes(net, _sim_cfg(measure=150), specs(), router_factory=factory)
            refs = [
                _event_reference(
                    net, _sim_cfg(measure=150), spec, factory, use_reference_stepper=True
                )
                for spec in specs()
            ]
            assert [_lane_key(v) for v in lanes] == [_lane_key(r) for r in refs], kind
            assert all(v.faults_injected > 0 for v in lanes)
        for vcs in (16, 31):
            alone = NetworkConfig(
                width=1, height=1, router=RouterConfig(num_ports=2, num_vcs=vcs, num_vnets=1)
            )
            with pytest.raises(ValueError, match="15 VCs"):
                BatchedLaneEngine(alone, _sim_cfg(), [LaneSpec(NullTraffic())])

    def test_the_drain_budget_is_a_bound_not_an_allocation(self):
        """A lane retires once it drains: building and running an engine
        with an astronomical ``drain_cycles`` costs what a small one does."""
        net = _net(4, 4, 4, 2)
        small = _sim_cfg(measure=100)
        a, b = (
            BatchedLaneEngine(net, cfg, [LaneSpec(_make_traffic(net, 0.1, 3))]).run()[0]
            for cfg in (small, replace(small, drain_cycles=10**15))
        )
        assert a.drained and _lane_key(a) == _lane_key(b)


@functools.lru_cache(maxsize=None)
def _pick_tables(vcs):
    """``(_first_free, _kth)`` of an engine with ``vcs`` VCs per port."""
    net = NetworkConfig(
        width=1, height=2, router=RouterConfig(num_ports=4, num_vcs=vcs, num_vnets=1)
    )
    engine = BatchedLaneEngine(net, _sim_cfg(), [LaneSpec(NullTraffic())])
    return engine._first_free.tolist(), engine._kth.tolist()


def _assert_picks(vcs, bits):
    """The round-robin pick of every pointer and the k-th set bits of
    ``bits``, against a scan of the bits themselves."""
    first_free, kth = _pick_tables(vcs)
    free = [w for w in range(vcs) if bits >> w & 1]
    for p in range(vcs):
        want = min(free, key=lambda w: (w - p) % vcs)
        assert first_free[(p << vcs) + bits] == want, (vcs, p, bits)
    for k in range(vcs):
        assert kth[bits * vcs + k] == (free[k] if k < len(free) else vcs), (vcs, bits, k)


class TestPickTables:
    """VA stage 1's tables, for every VC count a mesh router can have."""

    def test_every_mask_up_to_ten_vcs(self):
        for vcs in range(1, 11):
            for bits in range(1, 1 << vcs):
                _assert_picks(vcs, bits)

    @given(st.integers(11, 15).flatmap(
        lambda vcs: st.tuples(st.just(vcs), st.integers(1, (1 << vcs) - 1))
    ))
    @settings(max_examples=300, deadline=None)
    def test_sampled_masks_up_to_fifteen_vcs(self, case):
        _assert_picks(*case)


# ----------------------------------------------------------------------
# sweep layer: grouping, chunk invariance
# ----------------------------------------------------------------------
def _lane_points(net, sim_cfg, routing_kinds, rate=0.05, seed=3):
    return [
        LanePoint(
            config=net,
            sim_config=sim_cfg,
            make_traffic=_make_traffic,
            traffic_args=(net, rate, seed + i),
            router_kind="protected",
            routing_kind=rk,
            label=f"p{i}:{rk}",
        )
        for i, rk in enumerate(routing_kinds)
    ]


class TestRunLaneSweep:
    def test_fifteen_vc_points_run_as_lane_chunks(self, monkeypatch):
        """A 1x4 column of 15-VC routers (RoCo needs 5 ports): baseline and
        protected points, ``xy`` and ``west_first``, each clean and under a
        healing ``FaultTimeline``, run as lane chunks and equal the
        reference stepper point for point."""
        points = _lane_points(
            _WIDE_VC_NET, _sim_cfg(measure=150), ("xy", "west_first") * 4
        )
        points[4:] = [replace(p, router_kind="baseline") for p in points[4:]]
        for i in (0, 1, 4, 5):
            points[i] = replace(
                points[i], make_schedule=_unmarked_transients,
                schedule_args=(_WIDE_VC_NET, 7 + i),
            )
        chunks = []
        lane_chunk = parallel._lane_batched_chunk

        def spy(chunk, *args, **kwargs):
            chunks.append(len(chunk))
            return lane_chunk(chunk, *args, **kwargs)

        def refuse(point):
            raise AssertionError(f"{point.label} went to run_point")

        monkeypatch.setattr(parallel, "_lane_batched_chunk", spy)
        monkeypatch.setattr(parallel, "run_point", refuse)
        with unstepped():
            values, report = run_lane_sweep(points)
        assert report.points == sum(chunks) == len(points) and len(chunks) == 2
        for i, (p, value) in enumerate(zip(points, values)):
            spec = LaneSpec(
                p.make_traffic(*p.traffic_args),
                p.make_schedule(*p.schedule_args) if p.make_schedule else None,
            )
            ref = _event_reference(
                _WIDE_VC_NET, p.sim_config, spec, _factory(_WIDE_VC_NET, p.router_kind),
                p.routing_kind, use_reference_stepper=True,
            )
            assert _lane_key(value) == _lane_key(ref), f"point {i}"
            assert value.stats.packets_ejected > 0
            assert (value.faults_injected > 0) == (p.make_schedule is not None)

    def test_chunking_invariance_across_jobs(self):
        net = _net(4, 4, 4, 2)
        sim_cfg = _sim_cfg(measure=150)
        points = [
            LanePoint(
                config=net,
                sim_config=sim_cfg,
                make_traffic=_make_traffic,
                traffic_args=(net, 0.03 + 0.02 * i, 11 + i),
                make_schedule=_make_schedule if i % 2 else None,
                schedule_args=(net, 6, 11 + i) if i % 2 else (),
                router_kind="protected",
                label=f"p{i}",
            )
            for i in range(5)
        ]
        serial_values, serial_report = run_lane_sweep(points, jobs=None)
        par_values, par_report = run_lane_sweep(points, jobs=2)
        assert serial_report.points == par_report.points == 5
        for i, (a, b) in enumerate(zip(serial_values, par_values)):
            assert a.stats.summary() == b.stats.summary(), f"point {i}"
            assert a.cycles == b.cycles
            assert a.faults_injected == b.faults_injected

    def test_lane_width_invariance_through_sweep(self, monkeypatch):
        """The streaming queue's slot width never reaches a result."""
        net = _net(4, 4, 4, 2)
        sim_cfg = _sim_cfg(measure=150)
        points = [
            LanePoint(
                config=net,
                sim_config=sim_cfg,
                make_traffic=_make_traffic,
                traffic_args=(net, 0.03 + 0.01 * i, 21 + i),
                router_kind="protected",
                label=f"p{i}",
            )
            for i in range(6)
        ]
        wide_values, _ = run_lane_sweep(points)
        monkeypatch.setattr(parallel, "DEFAULT_LANE_WIDTH", 2)
        widths: list[int] = []
        run_sweep = parallel.run_sweep

        def spy(tasks, **kw):
            widths.extend(t.args[1] for t in tasks)
            return run_sweep(tasks, **kw)

        monkeypatch.setattr(parallel, "run_sweep", spy)
        narrow_values, narrow_report = run_lane_sweep(points)
        assert widths == [2]  # one chunk of six points, two slots
        assert narrow_report.points == 6
        for i, (a, b) in enumerate(zip(wide_values, narrow_values)):
            assert a.stats.summary() == b.stats.summary(), f"point {i}"
            assert a.cycles == b.cycles

    def test_points_differing_only_in_the_simulation_seed_share_lanes(self, monkeypatch):
        """The engine never reads ``sim_config.seed`` (a point's streams
        come from its factories' arguments): a seed sweep is one group."""
        net = _net(4, 4, 4, 2)
        points = [
            LanePoint(
                config=net,
                sim_config=_sim_cfg(measure=150, seed=seed),
                make_traffic=_make_traffic,
                traffic_args=(net, 0.05, seed),
                router_kind="protected",
                label=f"seed{seed}",
            )
            for seed in (5, 6)
        ]
        fns: list = []
        run_sweep = parallel.run_sweep

        def spy(tasks, **kw):
            fns.extend(t.fn for t in tasks)
            return run_sweep(tasks, **kw)

        monkeypatch.setattr(parallel, "run_sweep", spy)
        values, _ = run_lane_sweep(points)
        assert fns == [parallel._lane_batched_chunk]
        direct, _ = map_sweep(run_point, [(p,) for p in points])
        assert list(map(_lane_key, values)) == list(map(_lane_key, direct))

    def test_small_groups_run_per_point_without_a_decline(self, monkeypatch):
        """A group of one point goes to ``run_point``, whose ``run()`` picks
        the engine by load."""
        net_a = _net(3, 3, 2, 2)
        net_b = _net(4, 3, 2, 2)
        points = [
            LanePoint(
                config=net,
                sim_config=_sim_cfg(measure=100),
                make_traffic=_make_traffic,
                traffic_args=(net, 0.05, 31 + i),
                router_kind="baseline",
                label=f"solo{i}",
            )
            for i, net in enumerate((net_a, net_b))
        ]
        ran = []
        monkeypatch.setattr(parallel, "run_point", lambda p: ran.append(p) or run_point(p))
        values, report = run_lane_sweep(points)
        assert ran == points and "fallback" not in report.format()
        event_values, _ = map_sweep(run_point, [(p,) for p in points])
        for a, b in zip(values, event_values):
            assert a.stats.summary() == b.stats.summary()

    def test_empty_sweep(self):
        values, report = run_lane_sweep([])
        assert values == []
        assert report.points == 0

    def test_every_fallback_point_builds_and_times_its_own_simulator(self):
        """Nine structurally distinct points (a ``design_space`` grid): no
        two can share anything, so each is a ``run_point`` task of its own."""
        nets = [
            NetworkConfig(
                width=3, height=3,
                router=RouterConfig(num_vcs=vcs, num_vnets=2, buffer_depth=depth),
            )
            for vcs in (2, 4, 6)
            for depth in (2, 4, 6)
        ]
        points = [
            LanePoint(
                config=net,
                sim_config=_sim_cfg(measure=60),
                make_traffic=_make_traffic,
                traffic_args=(net, 0.05, 7),
                router_kind="protected",
            )
            for net in nets
        ]
        assert len({p.structural_key() for p in points}) == 9
        values, report = run_lane_sweep(points, jobs=1)
        assert len(values) == 9
        assert all(v.stats.packets_ejected > 0 for v in values)

    def test_run_point_leaves_no_simulator_behind(self):
        """``run_point`` hands back a result, not a fabric: once the result
        is dropped nothing in the process still holds the simulator."""
        import gc

        def live_simulators():
            gc.collect()
            return {
                id(o) for o in gc.get_objects() if isinstance(o, NoCSimulator)
            }

        net = _net(3, 2, 2, 2)
        point = LanePoint(
            config=net,
            sim_config=_sim_cfg(measure=61),
            make_traffic=_make_traffic,
            traffic_args=(net, 0.05, 7),
            router_kind="protected",
        )
        before = live_simulators()
        run_point(point)
        assert live_simulators() <= before


# ----------------------------------------------------------------------
# streaming queue x resilient runtime: a lane chunk records per point
# ----------------------------------------------------------------------
#: the chunk function a sweep's tasks name, before any test wraps it
_LANE_CHUNK = parallel._lane_batched_chunk

#: ``(k, marker, log)`` of :func:`_chunk_failing_once`, set by the test
#: before the workers fork
_MID_CHUNK: tuple = ()


def _chunk_failing_once(points, width, emit=None):
    """The lane chunk, logging its lane count per attempt; the first
    attempt raises once it has handed over ``k`` points."""
    k, marker, log = _MID_CHUNK
    with open(log, "a") as fp:
        fp.write(f"{len(points)}\n")
    handed = []

    def counted(at, result):
        emit(at, result)
        handed.append(at)
        if len(handed) == k and not os.path.exists(marker):
            open(marker, "w").close()
            raise RuntimeError("chunk lost mid-run")

    return _LANE_CHUNK(points, width, counted)


class TestLaneChunkResume:
    """A lane chunk hands each point over as its lane retires: one
    record per point, and a retry or a resume reruns only the points
    without one, as a narrower chunk (the batched analogue of
    ``TestSimulationResumeGolden`` in ``tests/test_resilient.py``)."""

    def _run(self, tmp_path, jobs=2, **kw):
        from repro.experiments import fault_sweep
        from repro.experiments.latency import QUICK_CONFIG

        config = fault_sweep.FaultSweepConfig(
            fault_counts=(0, 8, 16, 32), latency=QUICK_CONFIG, app="lu"
        )
        return fault_sweep.run(config, jobs=jobs, **kw)

    def test_truncated_chunk_checkpoint_resume_matches(self, tmp_path):
        import json

        full = self._run(tmp_path, out_dir=tmp_path / "run")
        (jsonl,) = sweep_files(tmp_path / "run")
        lines = jsonl.read_text().splitlines()
        # 4 points, one structural group, jobs=2 -> two 2-lane chunks,
        # one durable record per point
        assert sorted(json.loads(line)["index"] for line in lines) == [0, 1, 2, 3]
        # drop the last record: a SIGKILL inside one chunk
        jsonl.write_text("".join(line + "\n" for line in lines[:3]))

        resumed = self._run(tmp_path, resume=tmp_path / "run")
        assert resumed.extras["rows"] == full.extras["rows"]
        report = resumed.extras["sweep"]
        assert report.points == 4
        assert (report.resumed, report.checkpointed) == (3, 1)

    def test_a_failed_attempt_reruns_only_the_unrecorded_points(
        self, tmp_path, monkeypatch
    ):
        """One chunk of four raises after handing over two points: its
        retry builds an engine over the other two, and every value equals
        an uninterrupted run's."""
        from repro.experiments import resilient
        from repro.experiments.resilient import RetryPolicy, sweep_runtime

        clean = self._run(tmp_path, jobs=1)
        log = tmp_path / "lanes"
        monkeypatch.setattr(resilient, "BACKOFF_S", 0.01)
        monkeypatch.setattr(parallel, "_lane_batched_chunk", _chunk_failing_once)
        monkeypatch.setitem(
            globals(), "_MID_CHUNK", (2, str(tmp_path / "failed"), str(log))
        )
        with sweep_runtime(
            out_dir=tmp_path / "run", retry=RetryPolicy(max_attempts=2)
        ):
            retried = self._run(tmp_path, jobs=1)
        assert log.read_text().split() == ["4", "2"]
        assert retried.extras["rows"] == clean.extras["rows"]
        report = retried.extras["sweep"]
        # the failed attempt is charged to the two points it lost
        assert (report.retries, report.checkpointed) == (2, 4)
        (jsonl,) = sweep_files(tmp_path / "run")
        assert len(jsonl.read_text().splitlines()) == 4


def _flaky_traffic(net, rate, seed, marker):
    """``_make_traffic`` unless ``marker`` exists: a cause to fix, then resume."""
    if os.path.exists(marker):
        raise RuntimeError(f"traffic source unavailable ({marker})")
    return _make_traffic(net, rate, seed)


def _summaries(values):
    return [v.stats.summary() for v in values]


class TestLaneSweepInPoints:
    """A lane sweep reports in points: a failed chunk is reported as the
    points it lost, and a resume reruns those alone."""

    def _points(self, marker):
        """Three good points, then two of another structural group (another
        routing: a chunk of their own; another seed no longer splits a
        group) whose traffic factory raises."""
        net = _net(3, 3, 2, 2)
        good = [
            LanePoint(
                config=net,
                sim_config=_sim_cfg(measure=100),
                make_traffic=_make_traffic,
                traffic_args=(net, 0.05, 40 + i),
                router_kind="protected",
                label=f"good{i}",
            )
            for i in range(3)
        ]
        flaky = [
            LanePoint(
                config=net,
                sim_config=_sim_cfg(measure=100),
                make_traffic=_flaky_traffic,
                traffic_args=(net, 0.05, 43 + i, str(marker)),
                router_kind="protected",
                routing_kind="west_first",
                label=f"flaky{i}",
            )
            for i in range(2)
        ]
        return good + flaky

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_partial_failure_names_the_points_it_lost(self, jobs, tmp_path):
        from repro.experiments.parallel import PartialSweepError
        from repro.experiments.resilient import RetryPolicy, sweep_runtime

        marker = tmp_path / "broken"
        marker.touch()
        points = self._points(marker)
        run_dir = tmp_path / "run"
        with sweep_runtime(out_dir=run_dir, retry=RetryPolicy(max_attempts=1)):
            with pytest.raises(PartialSweepError) as err:
                run_lane_sweep(points, jobs=jobs)
        report, values = err.value.report, err.value.values
        assert report.points == 5
        assert report.completed == (0, 1, 2) and report.skipped == ()
        assert [(f.index, f.label) for f in report.failed] == [
            (3, "flaky0"), (4, "flaky1"),
        ]
        for f in report.failed:
            assert "traffic source unavailable" in f.error
            assert "RuntimeError" in f.traceback
        assert len(values) == 5 and values[3:] == [None, None]
        good, _ = map_sweep(run_point, [(p,) for p in points[:3]])
        assert _summaries(values[:3]) == _summaries(good)
        text = report.format()
        assert text.startswith(
            "partial sweep: 3/5 points completed, 2 failed, 0 skipped"
        )
        assert "FAILED point 4 (flaky1)" in text and "sweep: 5 points" in text
        assert report.checkpointed == 3  # the good chunk's three points

        # the cause fixed, a resume runs only the two lost points
        marker.unlink()
        with sweep_runtime(resume=run_dir):
            resumed, report = run_lane_sweep(points, jobs=jobs)
        assert report.resumed == 3 and report.checkpointed == 2
        direct, _ = map_sweep(run_point, [(p,) for p in points])
        assert _summaries(resumed) == _summaries(direct)

    def test_a_hard_failure_names_the_points_it_lost(self, tmp_path):
        from repro.experiments.parallel import SweepError

        marker = tmp_path / "broken"
        marker.touch()
        with pytest.raises(SweepError) as err:
            run_lane_sweep(self._points(marker), jobs=2)
        assert [(f.index, f.label) for f in err.value.failures] == [
            (3, "flaky0"), (4, "flaky1"),
        ]

    def _wide_vc_points(self):
        """Two baseline and two protected points of 15 VCs: one lane group."""
        points = _lane_points(_WIDE_VC_NET, _sim_cfg(measure=100), ("xy",) * 4)
        points[:2] = [replace(p, router_kind="baseline") for p in points[:2]]
        return points

    def test_a_wide_vc_sweep_is_the_same_on_two_workers(self):
        """15 VCs are lanes on every worker: the sweep over two equals the
        points stepped one by one, and its report names no fallback."""
        points = self._wide_vc_points()
        with unstepped():
            values, report = run_lane_sweep(points, jobs=2)
        assert report.points == 4 and "fallback" not in report.format()
        assert _summaries(values) == _summaries(map(stepped_point, points))

    def test_a_resumed_wide_vc_sweep_reruns_lost_points(self, tmp_path):
        """A lane chunk of 15-VC points records each point as it retires,
        and a resume reruns the unrecorded ones on lanes."""
        from repro.experiments.resilient import sweep_runtime

        points = self._wide_vc_points()
        with unstepped():
            with sweep_runtime(out_dir=tmp_path):
                full, _ = run_lane_sweep(points, jobs=1)
            (jsonl,) = sweep_files(tmp_path)
            records = jsonl.read_text().splitlines()
            assert len(records) == 4  # one record per point
            # keep only the first point's record, as if killed after it
            jsonl.write_text("".join(r + "\n" for r in records if '"p0:xy"' in r))
            with sweep_runtime(resume=tmp_path):
                again, resumed = run_lane_sweep(points, jobs=1)
        assert resumed.resumed == 1 and resumed.checkpointed == 3
        assert _summaries(again) == _summaries(full)


# ----------------------------------------------------------------------
# failure outside the tolerated fault set: the fault branches of the lane
# kernels that the tolerated-fault scenarios above never reach
# ----------------------------------------------------------------------
_ENV_NET = _net(4, 4, 4, 2)
_ENV_SIM = SimulationConfig(
    warmup_cycles=50, measure_cycles=250, drain_cycles=1500, seed=5,
    watchdog_cycles=400,
)
_ENV_RATES = (0.05, 0.15, 0.3)


def _sites(*entries):
    """``(cycle, router, unit name, port[, vc])`` -> permanent timeline events."""
    from repro.faults import FaultSite, FaultUnit, TimelineEvent

    return [
        TimelineEvent(cycle, FaultSite(router, FaultUnit[unit], *where))
        for cycle, router, unit, *where in entries
    ]


#: name -> (router kind, fault events, ends blocked); routers 5 and 10
#: are interior nodes of the 4x4 mesh, so every port of theirs carries traffic
_ENVELOPE = {
    "baseline-va1": ("baseline", _sites((60, 5, "VA1_ARBITER_SET", 0, 0)), True),
    "baseline-sa1": ("baseline", _sites((60, 5, "SA1_ARBITER", 0)), True),
    "baseline-xb-mux": ("baseline", _sites((60, 5, "XB_MUX", 2)), True),
    "baseline-sa2": ("baseline", _sites((60, 5, "SA2_ARBITER", 2)), True),
    "baseline-va2": ("baseline", _sites((60, 5, "VA2_ARBITER", 2, 1)), False),
    "protected-va1-whole-port": (
        "protected",
        _sites(
            *((60, 5, "VA1_ARBITER_SET", 0, v) for v in range(4)),
            *((60, 10, "VA1_ARBITER_SET", 4, v) for v in range(3)),
        ),
        True,
    ),
    "protected-sa1-then-bypass": (
        "protected",
        _sites((60, 5, "SA1_ARBITER", 0), (160, 5, "SA1_BYPASS", 0)),
        True,
    ),
    "protected-xb-mux-then-secondary": (
        "protected",
        _sites(
            (60, 5, "XB_MUX", 2), (160, 5, "XB_SECONDARY", 2),
            (60, 10, "XB_MUX", 0), (60, 10, "XB_MUX", 1),
        ),
        True,
    ),
    "protected-rc-both": (
        "protected",
        _sites((60, 5, "RC_PRIMARY", 0), (160, 5, "RC_DUPLICATE", 0)),
        True,
    ),
    "protected-sa2-neighbours": (
        "protected",
        _sites((60, 5, "SA2_ARBITER", 1), (160, 5, "SA2_ARBITER", 0)),
        True,
    ),
}

#: every ``RouterStats`` counter only a fault can move
_FAULT_COUNTERS = (
    "va_borrowed_grants", "va_stage2_fault_retries", "va_blocked_cycles",
    "va_borrow_wait_cycles", "sa_blocked_cycles", "sa_bypass_grants",
    "vc_transfers", "secondary_path_grants", "rc_blocked_cycles",
    "rc_duplicate_computations", "unreachable_output_cycles",
)


def _envelope_specs(name):
    from repro.faults import FaultTimeline

    _, schedule, _ = _ENVELOPE[name]
    return [
        LaneSpec(
            SyntheticTraffic(
                _ENV_NET, injection_rate=rate, mix=COHERENCE_MIX, rng=900 + i
            ),
            FaultTimeline(schedule),
        )
        for i, rate in enumerate(_ENV_RATES)
    ]


@pytest.fixture(scope="module")
def envelope_lanes():
    """Lane results of every outside-the-envelope scenario, run once."""
    return {
        name: run_lanes(
            _ENV_NET, _ENV_SIM, _envelope_specs(name),
            router_factory=_factory(_ENV_NET, kind),
        )
        for name, (kind, _, _) in _ENVELOPE.items()
    }


class TestFailureOutsideTheEnvelope:
    """Faults the router cannot tolerate: a baseline router losing any
    allocator or crossbar unit, a protected router losing a unit *and* its
    correction circuit.  The lane kernels must fail exactly as the
    reference stepper does — same blocked counters, same watchdog cycle."""

    @pytest.mark.parametrize("name", list(_ENVELOPE))
    def test_lanes_equal_reference_stepper(self, name, envelope_lanes):
        kind, _, ends_blocked = _ENVELOPE[name]
        factory = _factory(_ENV_NET, kind)
        lanes = envelope_lanes[name]
        for i, spec in enumerate(_envelope_specs(name)):
            ref = _event_reference(
                _ENV_NET, _ENV_SIM, spec, factory, use_reference_stepper=True
            )
            assert _lane_key(lanes[i]) == _lane_key(ref), f"{name} lane {i}"
        assert any(lane.blocked for lane in lanes) == ends_blocked

    def test_every_fault_counter_is_reached(self, envelope_lanes):
        """A fault branch of a lane kernel that no scenario here drives is
        a branch nothing compares with the reference."""
        import dataclasses

        total = dict.fromkeys(_FAULT_COUNTERS, 0)
        for lanes in envelope_lanes.values():
            for lane in lanes:
                stats = dataclasses.asdict(lane.router_stats)
                for counter in _FAULT_COUNTERS:
                    total[counter] += stats[counter]
        assert [c for c, n in total.items() if n == 0] == []


# ----------------------------------------------------------------------
# flat addressing: one allocation and two views, wiring tables, id dtypes
# ----------------------------------------------------------------------
def _flat_views(engine):
    """name -> (flat view, n-d array) for every ``name_`` / ``name`` pair."""
    return {
        name: (flat, getattr(engine, name[:-1]))
        for name, flat in vars(engine).items()
        if name.endswith("_") and isinstance(flat, np.ndarray)
    }


class _IntpIndexed(np.ndarray):
    """An array view that refuses any integer index array but ``np.intp``."""

    @staticmethod
    def _check(index):
        for part in index if isinstance(index, tuple) else (index,):
            if isinstance(part, np.ndarray) and part.dtype not in (bool, np.intp):
                raise TypeError(f"{part.dtype} index array")

    def __getitem__(self, index):
        self._check(index)
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self._check(index)
        super().__setitem__(index, value)


class TestFlatAddressing:
    def _engine(self, net, specs, width, kind="protected", cfg=None):
        from repro.network.batched import BatchedLaneEngine

        return BatchedLaneEngine(
            net, cfg or _sim_cfg(measure=150), specs[:width],
            router_kind=kind, pending=specs[width:],
        )

    @pytest.mark.parametrize(
        "net",
        [
            _net(3, 5, 2, 1), _net(4, 4, 4, 2), _net(8, 8, 4, 2),
        ],
        ids=["mesh3x5", "mesh4x4", "mesh8x8"],
    )
    def test_wiring_tables_decode_to_the_topology(self, net):
        from repro.network.topology import Topology
        from repro.traffic.generator import NullTraffic

        engine = self._engine(net, [LaneSpec(NullTraffic()) for _ in range(3)], 3)
        topo = Topology(net)
        R, P = net.num_nodes, net.router.num_ports
        # the output port each link leaves by, keyed by the input port it feeds
        upstream = {far: near for near, far in topo.links.items()}
        assert upstream and all(port != 0 for _, port in upstream)
        V, NV = net.router.num_vcs, net.router.num_vnets
        assert engine.down_port.dtype == engine.credit_to.dtype == np.intp
        assert engine.down_port.shape == (3 * R * P,)
        assert engine.credit_to.shape == (3 * R * P * V,)
        for lane in range(3):
            for node in range(R):
                for port in range(P):
                    here = (lane * R + node) * P + port
                    got = int(engine.down_port[here])
                    if (node, port) in topo.links:
                        far, far_port = topo.links[(node, port)]
                        assert got == (lane * R + far) * P + far_port
                    else:  # a mesh edge, or the local port
                        assert got == engine.no_link
                    # a credit returns to the output VC feeding this input
                    # port, or to the NIC queue of the wire's vnet
                    for wire in range(V):
                        got = int(engine.credit_to[here * V + wire])
                        if port == 0:
                            queue = (lane * R + node) * NV + wire // (V // NV)
                            assert got == engine.cred_.size + queue
                        elif (node, port) in upstream:
                            far, far_port = upstream[(node, port)]
                            assert got == ((lane * R + far) * P + far_port) * V + wire
                        else:
                            assert got == engine.no_link
        with pytest.raises(IndexError):
            engine.credits[np.array([engine.no_link])]
        off_mesh = np.array([engine.no_link])
        for arr, _ in engine._power_on:
            with pytest.raises(IndexError):
                arr.reshape(-1)[off_mesh]

    def test_growing_tables_under_refill_equal_reference(self, monkeypatch):
        """Every pending point needs a larger table block than the one
        installed, so the block is re-bound while the other slot is
        mid-flight: a stale ``cap`` or column view would scatter its
        injections and ejections into the wrong rows."""
        from repro.network.batched import BatchedLaneEngine

        net = _net(4, 4, 4, 2)
        cfg = _sim_cfg(measure=200)

        def specs():
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.03 * 1.6**i, mix=COHERENCE_MIX,
                        rng=700 + i,
                    )
                )
                for i in range(6)
            ]

        grown_mid_flight = []
        bind = BatchedLaneEngine._bind_tables

        def spy(engine, tables):
            if tables.shape[2]:
                grown_mid_flight.append(int(np.count_nonzero(engine.fin)))
            bind(engine, tables)

        monkeypatch.setattr(BatchedLaneEngine, "_bind_tables", spy)
        engine = self._engine(net, specs(), 2, cfg=cfg)
        lanes = engine.run()
        assert len(grown_mid_flight) >= 4 and max(grown_mid_flight) >= 1
        for i, spec in enumerate(specs()):
            ref = _event_reference(
                net, cfg, spec, _factory(net, "protected"),
                use_reference_stepper=True,
            )
            assert _lane_key(lanes[i]) == _lane_key(ref), f"point {i}"
        # the views were re-bound with the block: still one copy of each
        for name, (flat, nd) in _flat_views(engine).items():
            assert flat.shape == (nd.size,) and np.shares_memory(flat, nd), name

    def test_every_flat_view_shares_its_nd_arrays_memory(self):
        net = _net(3, 3, 2, 2)
        engine = self._engine(
            net, [LaneSpec(SyntheticTraffic(net, 0.1, mix=COHERENCE_MIX, rng=1))], 1
        )
        engine.run()  # the table block is empty until a lane is installed
        views = _flat_views(engine)
        # every array the kernels address, fault masks and tables included
        assert {"st_", "b_flit_", "cred_", "va1_prio_", "f_va2_", "plan_ok_",
                "nic_cred_", "q_row_", "nic_rr_", "t_ej_"} <= set(views)
        for name, (flat, nd) in views.items():
            assert flat.shape == (nd.size,) and np.shares_memory(flat, nd), name
        # router and NIC credits: back to back in one buffer, one id space
        credits = engine.credits
        assert credits.size == engine.cred_.size + engine.nic_cred_.size
        assert np.shares_memory(credits[: engine.cred_.size], engine.cred)
        assert np.shares_memory(credits[engine.cred_.size :], engine.nic_cred)
        engine.credits[engine.cred_.size + 3] = 9
        assert engine.nic_cred.reshape(-1)[3] == 9
        engine.st_[7] = 3
        assert engine.st.reshape(-1)[7] == 3

    @pytest.mark.parametrize("name", ["protected-va1-whole-port", "baseline-va2"])
    def test_every_index_array_is_intp(self, name, envelope_lanes):
        """State values (``pwire``, ``cred``, ``va2_prio`` ...) are int8 or
        int32; an id built from them alone would be too and wrap on a large
        fleet.  Every gather and scatter of a faulted run — state
        arrays, the shared credit buffer and the static id tables alike —
        goes through views that check their index arrays."""
        kind = _ENVELOPE[name][0]
        engine = self._engine(_ENV_NET, _envelope_specs(name), 2, kind, _ENV_SIM)
        checked = 0
        for attr, value in list(vars(engine).items()):
            flat = attr.endswith("_") or attr.endswith("_of") or attr in (
                "down_port", "down_vc", "is_local", "credit_to", "credits", "rtab",
            )
            if flat and isinstance(value, np.ndarray):
                if attr.endswith("_of") or attr in ("down_port", "down_vc", "credit_to"):
                    assert value.dtype == np.intp, attr  # a table of ids
                setattr(engine, attr, value.view(_IntpIndexed))
                checked += 1
        assert checked > 45
        bind = engine._bind_tables

        def rebind(tables):
            bind(tables)
            for attr in ("t_dest_", "t_size_", "t_next_", "t_inj_", "t_ej_", "t_hops_"):
                setattr(engine, attr, getattr(engine, attr).view(_IntpIndexed))

        engine._bind_tables = rebind
        lanes = engine.run()
        for got, want in zip(lanes, envelope_lanes[name]):
            assert _lane_key(got) == _lane_key(want)


# ----------------------------------------------------------------------
# one draw per traffic stream: lanes holding one source share its table
# ----------------------------------------------------------------------
def _list_traffic(net, params):
    """A traffic factory whose argument is unhashable (module-level)."""
    rate, seed = params
    return SyntheticTraffic(net, injection_rate=rate, mix=COHERENCE_MIX, rng=seed)


@pytest.fixture
def compiled(monkeypatch):
    """The sources the lane engine compiles, one entry per call."""
    from repro.network import batched

    sources = []
    compile_table = batched.compile_table

    def counting(source, until, config):
        sources.append(source)
        return compile_table(source, until, config)

    monkeypatch.setattr(batched, "compile_table", counting)
    return sources


def _assert_chunk_equals_run_point(points):
    results = parallel._lane_batched_chunk(tuple(points), parallel.DEFAULT_LANE_WIDTH)
    assert len(results) == len(points)
    for i, (lane, point) in enumerate(zip(results, points)):
        assert _lane_key(lane) == _lane_key(stepped_point(point)), f"point {i}"


def _assert_equal_reference_stepper(lanes, specs, net, cfg, kind="protected"):
    """Each lane result against ``_step_reference`` on a fresh copy of its spec."""
    for i, spec in enumerate(specs):
        ref = _event_reference(
            net, cfg, spec, _factory(net, kind), use_reference_stepper=True
        )
        assert _lane_key(lanes[i]) == _lane_key(ref), f"point {i}"


class TestOneDrawPerStream:
    def _latency_cfg(self):
        from repro.experiments.latency import QUICK_CONFIG

        return replace(
            QUICK_CONFIG, warmup_cycles=100, measure_cycles=150, drain_cycles=250
        )

    def test_suite_pairs_share_one_table(self, compiled):
        """Fault-free and faulty run of an application: identical traffic."""
        from repro.experiments.latency import suite_points

        points = suite_points("splash2", self._latency_cfg())
        assert len(points) == 16
        _assert_chunk_equals_run_point(points)
        assert len(compiled) == 8

    def test_fault_sweep_is_one_stream(self, compiled, monkeypatch):
        from repro.experiments import fault_sweep

        seen = {}
        run_lane_sweep = parallel.run_lane_sweep

        def spy(points, jobs=None):
            seen["points"] = list(points)
            seen["values"], report = run_lane_sweep(points, jobs=jobs)
            return seen["values"], report

        monkeypatch.setattr(parallel, "run_lane_sweep", spy)
        fault_sweep.run(
            fault_sweep.FaultSweepConfig(
                fault_counts=(0, 2, 4, 8, 16), latency=self._latency_cfg()
            ),
            jobs=1,
        )
        assert len(seen["points"]) == 5 and len(compiled) == 1
        for lane, point in zip(seen["values"], seen["points"]):
            assert _lane_key(lane) == _lane_key(stepped_point(point)), point.label

    def test_distinct_streams_compile_one_each(self, compiled, monkeypatch):
        """The ledger's ``lane_sweep_8x8`` smoke points: nothing to share."""
        import importlib
        from pathlib import Path

        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "benchmarks" / "ledger")
        )
        workloads = importlib.import_module("workloads")
        points = workloads.LaneSweep8x8(20140519, True, "", None).points[True]
        _assert_chunk_equals_run_point(points)
        assert len(compiled) == len(points) == 8
        assert len({id(source) for source in compiled}) == 8

    def test_holders_installed_cycles_apart(self):
        """Width 2 over ``A B A' C B' C'``: the second holder of a stream is
        installed long after the first, with larger tables installed (and
        the block re-bound) in between; the memo ends empty."""
        from repro.faults import FaultTimeline
        from repro.network.batched import BatchedLaneEngine

        net = _net(4, 4, 4, 2)
        cfg = _sim_cfg(measure=200)
        factory = _factory(net, "protected")
        order = "ABACBC"
        faults = _sites((60, 5, "SA1_ARBITER", 0), (70, 10, "RC_PRIMARY", 2))

        def specs(shared):
            sources = {}
            out = []
            for i, name in enumerate(order):
                if not shared or name not in sources:
                    sources[name] = SyntheticTraffic(
                        net, injection_rate=0.03 * 2 ** (ord(name) - ord("A")),
                        mix=COHERENCE_MIX, rng=600 + ord(name),
                    )
                second = name in order[:i]  # A', B', C' run with faults
                out.append(
                    LaneSpec(
                        sources[name],
                        FaultTimeline(faults) if second else None,
                    )
                )
            return out

        lanes = specs(shared=True)
        engine = BatchedLaneEngine(
            net, cfg, lanes[:2], router_kind="protected", pending=lanes[2:]
        )
        assert sorted(n for n, _, _ in engine._streams.values()) == [2, 2, 2]
        results = engine.run()
        assert engine._streams == {}
        _assert_equal_reference_stepper(results, specs(shared=False), net, cfg)
        assert results[0].stats.packets_created == results[2].stats.packets_created > 0

    def test_one_source_object_in_two_specs_is_drawn_once(self):
        """Both holders get the full stream — a source with a table and a
        source packed through ``generate()`` alike (drawn per lane, the
        second holder would find its source exhausted)."""
        from repro.router.flit import Packet
        from repro.traffic.generator import TraceTraffic

        net = _net(4, 4, 4, 2)
        cfg = _sim_cfg(measure=150)
        factory = _factory(net, "protected")

        def trace():
            rng = np.random.default_rng(3)
            return TraceTraffic(
                Packet(int(s), int((s + 1 + d) % 16), 1 + 4 * (c % 2), c % 2, int(c))
                for c in range(180)
                for s, d in [rng.integers(0, 15, 2)]
            )

        def synthetic():
            return SyntheticTraffic(net, 0.1, mix=COHERENCE_MIX, rng=21)

        for make in (trace, synthetic):
            source = make()
            lanes = run_lanes(
                net, cfg, [LaneSpec(source), LaneSpec(source)], router_factory=factory
            )
            ref = _event_reference(net, cfg, LaneSpec(make()), factory)
            assert ref.stats.packets_created > 100
            for lane in lanes:
                assert _lane_key(lane) == _lane_key(ref), make.__name__

    def test_unhashable_traffic_args_run_unshared(self, compiled):
        net = _net(4, 4, 4, 2)
        points = [
            LanePoint(
                config=net,
                sim_config=_sim_cfg(measure=100),
                make_traffic=_list_traffic,
                traffic_args=(net, [0.08, 33]),
                router_kind="protected",
            )
            for _ in range(2)
        ]
        _assert_chunk_equals_run_point(points)
        assert len(compiled) == 2 and compiled[0] is not compiled[1]


# ----------------------------------------------------------------------
# the kernels' fixed costs: flit word, id-only events, liveness by
# clearing, array SA bypass, fault flags and fault polling
# ----------------------------------------------------------------------
class TestLaneKernels:
    def _engine(self, net, specs, cfg=None, kind="protected", pending=()):
        from repro.network.batched import BatchedLaneEngine

        return BatchedLaneEngine(
            net, cfg or _sim_cfg(), specs, router_kind=kind,
            pending=pending,
        )

    @pytest.mark.parametrize(
        "net, longest",
        [(_net(8, 8, 4, 2), 15)],
        ids=["mesh8x8"],
    )
    def test_flit_word_round_trips_at_its_limits(self, net, longest):
        """The largest row id, the last node, the longest minimal path and
        both flags survive buffer write, every pipeline stage and ejection."""
        from repro.network import batched
        from repro.traffic.generator import NullTraffic

        engine = self._engine(net, [LaneSpec(NullTraffic()) for _ in range(2)])
        R, P, V, D = engine.R, engine.P, engine.V, engine.D
        cap = 37
        engine._bind_tables(np.full((10, 2, cap), -1, dtype=np.int32))
        lane, node, port, wire = 1, R - 1, 1, V - 1  # the last of each
        word = (
            (cap - 1) << batched._PID_SHIFT | node << batched._DEST_SHIFT
            | (longest - 1) << batched._HOP_SHIFT
            | batched._F_HEAD | batched._F_TAIL
        )
        vc = (((lane * R + node) * P + port) * V) + wire
        engine._buffer_write(np.array([vc]), np.array([word]))
        assert engine.b_cnt.sum(axis=(1, 2, 3)).tolist() == [0, 1]
        assert engine.b_flit_[vc * D] == word and engine.st_[vc] == batched._ROUTING
        local = np.array([100, 7])
        for cycle, kernel in enumerate(
            (engine._rc_phase, engine._va_phase, engine._sa_phase, engine._xb_phase)
        ):
            kernel(cycle, local)
        assert engine.st_[vc] == batched._IDLE  # the tail left: RC read the
        (out, sent), = (ev for ev in engine._ring_eject if ev is not None)
        assert out // engine.RPV == lane  # destination, XB the tail flag
        assert sent[0] == word + batched._HOP
        engine._dispatch(3 + engine.link_lat, local)
        assert engine.t_ej[lane, cap - 1] == 7
        assert engine.t_hops[lane, cap - 1] == longest
        assert np.count_nonzero(engine.t_ej >= 0) == 1

    def test_fabric_too_large_for_the_word_is_refused(self):
        from repro.traffic.generator import NullTraffic

        for net in (
            NetworkConfig(width=257, height=256),  # node ids need 17 bits
            NetworkConfig(width=1, height=16500),  # a 16,500-hop path
        ):
            with pytest.raises(ValueError, match="flit word"):
                self._engine(net, [LaneSpec(NullTraffic())])

    def test_a_retired_slot_is_cleared_at_retirement(self):
        """A short watchdog retires two lanes ``blocked`` mid-flight (flits
        on the wire, SA winners queued for the XB) and nothing refills
        their slots; the third lane runs on beside the dead slots."""
        from repro.network.batched import _IDLE, _NEVER

        net = NetworkConfig(
            width=4, height=4, link_latency=3,
            router=RouterConfig(num_vcs=4, num_vnets=2),
        )
        cfg = SimulationConfig(
            warmup_cycles=50, measure_cycles=250, drain_cycles=500, seed=5,
            watchdog_cycles=10,
        )

        def specs():
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=rate, mix=COHERENCE_MIX, rng=800 + i
                    )
                )
                for i, rate in enumerate((0.02, 0.03, 0.05))
            ]

        engine = self._engine(net, specs(), cfg)
        retire = engine._retire
        seen = []

        def in_flight(lane):  # the XB queue is one of the rings
            return [
                int(np.count_nonzero(engine._lane_of_id(ev[0]) == lane))
                for ring in engine._rings
                for ev in ring
                if ev is not None
            ]

        def spy(lane, cycle, blocked, drained):
            on_wire = sum(
                int(np.count_nonzero(ev[0] // engine.RPV == lane))
                for ev in engine._ring_flit
                if ev is not None
            )
            queued = engine._xq[0]
            queued = 0 if queued is None else np.count_nonzero(queued[0] // engine.RPV == lane)
            seen.append((lane, blocked, on_wire, queued))
            retire(lane, cycle, blocked, drained)
            assert (engine.st[lane] == _IDLE).all()
            assert (engine.q_due[lane] == _NEVER).all()
            assert sum(in_flight(lane)) == 0

        engine._retire = spy
        lanes = engine.run()
        assert [lane.blocked for lane in lanes] == [True, True, False]
        assert any(blocked and wire and queued for _, blocked, wire, queued in seen)
        # nothing was delivered into a dead slot afterwards
        assert (engine.st == _IDLE).all() and engine._xq == [None]
        for i, spec in enumerate(specs()):
            ref = _event_reference(
                net, cfg, spec, _factory(net, "protected"),
                use_reference_stepper=True,
            )
            # a lane stopped before its first ejection has NaN averages
            skip_summary = slice(0, 4) if lanes[i].blocked else slice(None)
            assert _lane_key(lanes[i])[skip_summary] == _lane_key(ref)[skip_summary]
            assert lanes[i].router_stats == ref.router_stats, f"lane {i}"
        assert lanes[2].stats.packets_ejected > 50

    def test_a_blocked_lane_retires_with_both_kinds_of_credit_in_flight(self):
        """Credits outlive the watchdog (``credit_latency`` 16, watchdog 8):
        a wedged baseline lane retires with router *and* NIC credits on
        the wire, next to a live lane, and its slot is refilled — a credit
        that survived the purge would land in the next occupant."""
        from repro.faults import FaultTimeline

        net = NetworkConfig(
            width=4, height=4, credit_latency=16,
            router=RouterConfig(num_vcs=4, num_vnets=2),
        )
        cfg = SimulationConfig(
            warmup_cycles=50, measure_cycles=250, drain_cycles=500, seed=5,
            watchdog_cycles=8,
        )
        kinds = ("baseline", "protected", "baseline", "baseline", "protected")
        wedge = _sites(
            *((60, router, "SA1_ARBITER", port) for router in (5, 10) for port in range(5))
        )

        def specs():
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.1 + 0.05 * i, mix=COHERENCE_MIX,
                        rng=800 + i,
                    ),
                    FaultTimeline(wedge) if kind == "baseline" else None,
                    kind,
                )
                for i, kind in enumerate(kinds)
            ]

        lanes = specs()
        engine = self._engine(net, lanes[:2], cfg, pending=lanes[2:])
        purge = engine._purge_lane_events
        seen = []

        def credits_of(lane):
            ids = np.concatenate([
                ev[0][engine._lane_of_id(ev[0]) == lane]
                for ev in engine._ring_credit
                if ev is not None
            ] or [np.zeros(0, dtype=np.intp)])
            router = int(np.count_nonzero(ids < engine.cred_.size))
            return router, ids.size - router

        def spy(lane):
            point, live_beside = engine.lane_point[lane], bool(engine._act[1 - lane])
            seen.append((point, live_beside, *credits_of(lane)))
            purge(lane)
            assert credits_of(lane) == (0, 0)

        engine._purge_lane_events = spy
        results = engine.run()
        assert [r.blocked for r in results] == [k == "baseline" for k in kinds]
        assert any(
            results[point].blocked and beside and router and nic
            for point, beside, router, nic in seen
        )
        for i, (spec, kind) in enumerate(zip(specs(), kinds)):
            ref = _event_reference(
                net, cfg, spec, _factory(net, kind), use_reference_stepper=True
            )
            assert _lane_key(results[i]) == _lane_key(ref), f"point {i}"

    def test_the_counter_queue_is_bounded_and_polls_read_through_it(self, monkeypatch):
        """With a bound of 600 ids (an array weighs 16 more) over 160 input
        ports the queue is binned every 3 steps, over a hundred times mid-run,
        and never holds more than the bound; the recovery monitors' polls
        still see the cycle's own bumps (detection cycles equal the
        reference's)."""
        from repro.faults import FaultSite, FaultUnit
        from repro.faults.timeline import FaultTimeline, TimelineEvent
        from repro.network import batched

        monkeypatch.setattr(batched, "_COUNT_QUEUE", 600)
        net, cfg = _ENV_NET, _sim_cfg(measure=250)
        kinds = ("protected", "baseline")

        def timeline():
            return FaultTimeline([
                TimelineEvent(60, FaultSite(5, FaultUnit.RC_PRIMARY, 1)),
                TimelineEvent(70, FaultSite(6, FaultUnit.SA1_ARBITER, 3)),
                TimelineEvent(80, FaultSite(9, FaultUnit.VA1_ARBITER_SET, 2, 1)),
            ], recovery_log=True)

        def traffic():
            return SyntheticTraffic(net, 0.15, mix=COHERENCE_MIX, rng=31)

        stream = traffic()
        engine = batched.BatchedLaneEngine(
            net, cfg, [LaneSpec(stream, timeline(), kind) for kind in kinds]
        )
        assert engine.L * engine.RP == 160 and engine._bin_every == 3
        step = engine._step
        held, polled_through, bins = [], [], [0]

        def spy(cycle, local):
            step(cycle, local)
            held.append(sum(ids.size + 16 for queue in engine._queue for ids in queue))
            assert held[-1] <= batched._COUNT_QUEUE and engine._queued < 3
            bins[0] += engine._queued == 0

        view_read = batched._RouterView._read

        def reading(view, counter):
            polled_through.append(bool(engine._queue[counter]))
            return view_read(view, counter)

        monkeypatch.setattr(batched._RouterView, "_read", reading)
        engine._step = spy
        lanes = engine.run()
        assert max(held) > 150 and bins[0] > 100 and any(polled_through)
        assert engine._queued == 0  # the last retirement read everything
        counted = sum(sum(vars(lane.router_stats).values()) for lane in lanes)
        assert counted > 100 * 150
        for lane, kind in zip(lanes, kinds):
            assert lane.recovery["detected"] >= 2
            ref = _event_reference(
                net, cfg, LaneSpec(traffic(), timeline()), _factory(net, kind),
                use_reference_stepper=True,
            )
            assert _recovery_key(lane) == _recovery_key(ref), kind

    def test_bypass_grant_transfer_and_block_in_one_cycle(self):
        """Two bypassed ports of one router (the rotation default either
        requests, or is idle and takes a transfer) beside a port of another
        lane whose bypass is faulty too: all three outcomes in one SA pass."""
        from repro.faults import FaultTimeline
        from repro.network import batched

        net, cfg = _ENV_NET, _ENV_SIM
        schedules = (
            _sites((60, 5, "SA1_ARBITER", 3), (60, 5, "SA1_ARBITER", 4)),
            _sites((60, 5, "SA1_ARBITER", 3), (60, 5, "SA1_BYPASS", 3)),
        )

        def specs():
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.3, mix=COHERENCE_MIX, rng=900 + i
                    ),
                    FaultTimeline(schedule),
                )
                for i, schedule in enumerate(schedules)
            ]

        engine = self._engine(net, specs(), cfg)
        columns = [batched._I_SA_BYPASS, batched._I_VC_XFER, batched._I_SA_BLOCK]
        per_cycle = []

        def sa(self, cycle, local):
            # counts() is (counter, lane, router) with the queued bumps
            # binned in: all three ports sit on router 5, so its cells are
            # the ones that move
            before = self.counts()[columns, :, 5].copy()
            batched.BatchedLaneEngine._sa_phase(self, cycle, local)
            moved = self.counts()[columns, :, 5] - before  # (counter, lane)
            per_cycle.append((moved[0, 0], moved[1, 0], moved[2, 1]))

        engine._STAGES = tuple(
            (name, sa if name == "sa" else kernel) for name, kernel in engine._STAGES
        )
        lanes = engine.run()
        assert any(all(row) for row in per_cycle)
        stats = [lane.router_stats for lane in lanes]
        assert stats[0].sa_bypass_grants and stats[0].vc_transfers
        assert stats[1].sa_blocked_cycles and lanes[1].blocked
        _assert_equal_reference_stepper(lanes, specs(), net, cfg)

    def _retire_one(self, net, cfg, spec, kind):
        """Run one lane; returns its result and, taken as it retires, before
        its events are purged: whether the XB queue and the flit ring hold
        any of its ids, and the flits its buffers hold."""
        engine = self._engine(net, [spec], cfg, kind)
        purge = engine._purge_lane_events
        seen = []

        def spy(lane):
            xq, flits = engine._xq[0], [ev for ev in engine._ring_flit if ev is not None]
            seen.append((xq is not None and xq[0].size > 0, bool(flits),
                         int(engine.b_cnt[lane].sum())))
            purge(lane)

        engine._purge_lane_events = spy
        (result,) = engine.run()
        return result, seen[0]

    @pytest.mark.parametrize("retirement", ["drained", "horizon", "watchdog"])
    def test_buffer_writes_are_traversals_plus_buffered_flits(self, retirement):
        """A lane counts no buffer write as it happens: each write is
        followed by one traversal or its flit is still buffered, so at
        retirement ``buffer_writes`` is ``flits_traversed`` plus what the
        buffers hold — a drained lane, one cut at its drain horizon with
        grants in the XB queue, and one the watchdog stops with flits on
        a link alike, each equal to ``_step_reference``."""
        net, kind = _ENV_NET, "protected"
        cfg = _sim_cfg(measure=200)
        rate = 0.1
        if retirement == "horizon":  # saturated, and no time to drain
            cfg, rate = replace(cfg, drain_cycles=20), 0.6
        elif retirement == "watchdog":  # a link outlasts the watchdog
            net = replace(_ENV_NET, link_latency=16)
            cfg = replace(cfg, watchdog_cycles=10)

        def spec():
            return LaneSpec(SyntheticTraffic(net, rate, mix=COHERENCE_MIX, rng=41))

        result, (grants, on_link, buffered) = self._retire_one(net, cfg, spec(), kind)
        assert (result.drained, result.blocked) == {
            "drained": (True, False), "horizon": (False, False), "watchdog": (False, True),
        }[retirement]
        if retirement == "drained":
            assert buffered == 0
        elif retirement == "horizon":
            assert grants and buffered
        else:
            assert on_link
        stats = result.router_stats
        assert stats.buffer_writes == stats.flits_traversed + buffered
        ref = _event_reference(net, cfg, spec(), _factory(net, kind), use_reference_stepper=True)
        assert stats.buffer_writes == ref.router_stats.buffer_writes
        assert (result.cycles, result.blocked, stats) == (ref.cycles, ref.blocked, ref.router_stats)
        if retirement != "watchdog":  # that one ejected nothing: its latencies are NaN
            assert _lane_key(result) == _lane_key(ref)

    def test_a_transfer_moves_the_absolute_ids_along(self):
        """An SA1 bypass transfer (``_move_slots``) carries the packet's
        output port id and output VC id to the new slot unchanged, both
        still naming the slot's own router; the lane equals the reference."""
        from repro.faults import FaultTimeline
        from repro.network import batched

        net, cfg = _ENV_NET, _ENV_SIM
        faults = _sites((60, 5, "SA1_ARBITER", 3), (60, 6, "SA1_ARBITER", 1))

        def specs():
            return [LaneSpec(
                SyntheticTraffic(net, 0.3, mix=COHERENCE_MIX, rng=77), FaultTimeline(faults)
            )]

        engine = self._engine(net, specs(), cfg)
        moves = []

        def move(self, src, to):
            ids = self.route_[src].copy(), self.outvc_[src].copy()
            batched.BatchedLaneEngine._move_slots(self, src, to)
            route, outvc = self.route_[to], self.outvc_[to]
            assert (route == ids[0]).all() and (outvc == ids[1]).all()
            assert (self.node_of[route] == self.node_of[self.port_of[to]]).all()
            assert (outvc // self.V == route).all()
            moves.append(src.size)

        engine._move_slots = functools.partial(move, engine)
        lanes = engine.run()
        assert sum(moves) > 10 and lanes[0].router_stats.vc_transfers == sum(moves)
        _assert_equal_reference_stepper(lanes, specs(), net, cfg)

    def test_fault_flags_are_recounted_at_install(self):
        """Width-1 refill, a faulted point then a fault-free one: the second
        occupant runs on the fault-free fast paths again."""
        from repro.faults import FaultTimeline

        net = _net(4, 4, 4, 2)
        cfg = _sim_cfg(measure=150)
        faults = _sites(
            (40, 5, "RC_PRIMARY", 1), (40, 5, "VA1_ARBITER_SET", 2, 1),
            (40, 6, "VA2_ARBITER", 3, 0), (40, 9, "SA1_ARBITER", 4),
        )

        def specs():
            return [
                LaneSpec(
                    SyntheticTraffic(
                        net, injection_rate=0.1, mix=COHERENCE_MIX, rng=70 + i
                    ),
                    FaultTimeline(faults) if i == 0 else None,
                )
                for i in range(2)
            ]

        def flags(engine):
            return [
                engine._have_rc, engine._have_va1, engine._have_va2, engine._have_sa1
            ]

        first, second = specs()
        engine = self._engine(net, [first], cfg, pending=[second])
        install = engine._install_lane
        before_install = []

        def spy(lane, spec, cycle):
            before_install.append(flags(engine))
            install(lane, spec, cycle)

        engine._install_lane = spy
        lanes = engine.run()
        assert before_install == [[False] * 4, [True] * 4]
        assert flags(engine) == [False] * 4
        assert lanes[0].faults_injected == 4
        _assert_equal_reference_stepper(lanes, specs(), net, cfg)

    @pytest.mark.parametrize("engine", ["lanes", "object"])
    def test_schedules_are_polled_only_when_an_event_is_due(self, engine):
        """``events_at`` is entered on the cycles ``next_cycle()`` names, by
        the lane engine and the object engine's ``_step`` alike (only
        ``_step_reference`` polls every cycle)."""
        from repro.faults import FaultTimeline

        polled = []

        class Spy(FaultTimeline):
            def events_at(self, cycle):
                polled.append(cycle)
                return super().events_at(cycle)

        net, cfg = _net(4, 4, 4, 2), _sim_cfg(measure=150)
        factory = _factory(net, "protected")
        faults = _sites(
            (40, 5, "RC_PRIMARY", 1), (40, 6, "VA2_ARBITER", 3, 0),
            (90, 9, "SA1_ARBITER", 4),
        )
        specs = [
            LaneSpec(SyntheticTraffic(net, 0.1, mix=COHERENCE_MIX, rng=70 + i), s)
            for i, s in enumerate((Spy(faults), None))
        ]
        if engine == "lanes":
            lanes = run_lanes(net, cfg, specs, router_factory=factory)
        else:
            lanes = [_event_reference(net, cfg, spec, factory) for spec in specs]
        assert polled == [40, 90]
        assert [lane.faults_injected for lane in lanes] == [3, 0]


# ----------------------------------------------------------------------
# the heal seam, the recovery monitor over the lane arrays, kind as a mask
# ----------------------------------------------------------------------
def _recovery_key(res):
    """``_lane_key`` plus the whole recovery dict, NaN-safe."""
    import json

    return json.dumps((_lane_key(res), res.recovery), sort_keys=True, default=str)


def _unmarked_transients(net, seed):
    """A plain module-level factory: nothing on it says its schedule heals."""
    from repro.faults import FaultTimeline, random_transients

    return FaultTimeline(
        random_transients(
            net.router, net.num_nodes, 0.05, 300, duration=40, rng=seed
        )
    )


class TestHealSeam:
    def test_a_healing_schedule_behind_a_plain_factory_heals_on_lanes(self):
        """The lanes heal whatever schedule a factory returns: three
        transient points equal ``run_point`` field for field."""
        net = _net(4, 4, 4, 2)
        points = [
            LanePoint(
                config=net, sim_config=_sim_cfg(measure=300),
                make_traffic=_make_traffic, traffic_args=(net, 0.08, 40 + i),
                make_schedule=_unmarked_transients, schedule_args=(net, 7 + i),
                router_kind="protected",
            )
            for i in range(3)
        ]
        with unstepped():
            lanes, report = run_lane_sweep(points, jobs=1)
        for i, (lane, point) in enumerate(zip(lanes, points)):
            ref = stepped_point(point)
            assert lane.faults_injected == ref.faults_injected > 0
            assert _lane_key(lane) == _lane_key(ref), f"point {i}"
            assert lane.recovery is None  # the timeline asks for no recovery log

    def _edge_timeline(self):
        """Every merge rule of ``FaultTimeline``, on interior routers."""
        from repro.faults import FaultSite, FaultUnit
        from repro.faults.timeline import FaultTimeline, TimelineEvent

        rc = FaultSite(5, FaultUnit.RC_PRIMARY, 1)
        sa = FaultSite(5, FaultUnit.SA1_ARBITER, 3)
        va = FaultSite(6, FaultUnit.VA1_ARBITER_SET, 2, 1)
        mux = FaultSite(9, FaultUnit.XB_MUX, 2)
        return FaultTimeline([
            # healed at 100, then claimed for good: injected twice
            TimelineEvent(60, rc, transient=True, duration=40),
            TimelineEvent(150, rc),
            # overlapping transients merge: one landing, one heal at 140
            TimelineEvent(60, sa, transient=True, duration=50),
            TimelineEvent(90, sa, transient=True, duration=50),
            # a permanent claims the site before its heal at 170: never healed
            TimelineEvent(70, va, transient=True, duration=100),
            TimelineEvent(120, va),
            # a crossbar mux out for 60 cycles: plans fall back and return
            TimelineEvent(80, mux, transient=True, duration=60),
        ], recovery_log=True)

    def test_seam_edges_equal_the_reference_stepper(self):
        from repro.network import batched

        net, cfg = _ENV_NET, _sim_cfg(measure=250)
        kinds = ("protected", "baseline")

        def traffic():
            return SyntheticTraffic(net, 0.15, mix=COHERENCE_MIX, rng=31)

        stream = traffic()  # one source, held by both lanes
        engine = batched.BatchedLaneEngine(
            net, cfg, [LaneSpec(stream, self._edge_timeline(), kind) for kind in kinds]
        )
        plans = {}

        def faults(self, cycle, local):
            batched.BatchedLaneEngine._inject_lane_faults(self, cycle, local)
            plans[cycle] = [  # (ok, arbiter, secondary) of router 9's output 2
                (bool(self.plan_ok[lane, 9, 2]), int(self.plan_arb[lane, 9, 2]),
                 bool(self.plan_sec[lane, 9, 2]))
                for lane in range(2)
            ]

        engine._STAGES = (("faults", faults),) + engine._STAGES[1:]
        lanes = engine.run()
        healthy = (True, 2, False)
        assert plans[79] == [healthy, healthy]
        # the protected lane takes output 1's secondary path, the baseline
        # lane loses the output
        assert plans[80] == plans[139] == [(True, 1, True), (False, 2, False)]
        assert plans[140] == [healthy, healthy]
        assert not engine.f_xbm.any() and not engine.f_sa1.any()
        assert engine.f_rc1[:, 5, 1].all() and engine.f_va1[:, 6, 2, 1].all()
        for lane, kind in zip(lanes, kinds):
            assert lane.faults_injected == 5
            assert lane.recovery["events"] == 5 and lane.recovery["healed"] == 3
            healed = [r["healed_at"] for r in lane.recovery["records"]]
            assert sorted(h for h in healed if h is not None) == [100, 140, 140]
            ref = _event_reference(
                net, cfg, LaneSpec(traffic(), self._edge_timeline()),
                _factory(net, kind), use_reference_stepper=True,
            )
            assert _recovery_key(lane) == _recovery_key(ref), kind

    def test_skip_flags_fall_after_the_last_heal(self):
        from repro.faults import FaultSite, FaultTimeline, FaultUnit, TimelineEvent
        from repro.network.batched import BatchedLaneEngine

        net, cfg = _net(4, 4, 4, 2), _sim_cfg(measure=150)
        sites = (
            FaultSite(5, FaultUnit.RC_PRIMARY, 1),
            FaultSite(5, FaultUnit.VA1_ARBITER_SET, 2, 1),
            FaultSite(6, FaultUnit.VA2_ARBITER, 3, 0),
            FaultSite(9, FaultUnit.SA1_ARBITER, 4),
        )

        def spec():
            return LaneSpec(
                SyntheticTraffic(net, 0.1, mix=COHERENCE_MIX, rng=70),
                FaultTimeline(
                    TimelineEvent(40 + 10 * i, site, transient=True, duration=50)
                    for i, site in enumerate(sites)
                ),
                "protected",
            )

        engine = BatchedLaneEngine(net, cfg, [spec()])
        set_site = engine._set_site
        flags = []

        def spy(lane, site, faulty):
            changed = set_site(lane, site, faulty)
            flags.append([
                engine._have_rc, engine._have_va1, engine._have_va2, engine._have_sa1
            ])
            return changed

        engine._set_site = spy
        lanes = engine.run()
        assert flags[3] == [True] * 4  # four landings, then four heals
        assert flags[4:] == [
            [False, True, True, True], [False, False, True, True],
            [False, False, False, True], [False] * 4,
        ]
        _assert_equal_reference_stepper(lanes, [spec()], net, cfg)

    @pytest.mark.parametrize("beside_a_va2_fault", [False, True])
    def test_an_exclusion_outlives_the_heal_of_its_va2_fault(self, beside_a_va2_fault):
        """``heal_fault`` leaves ``va_excluded`` to the VC's next grant: a
        requester that recorded an exclusion keeps avoiding the healed
        downstream VC, whether or not a co-resident lane still holds a VA2
        fault (which alone would keep the engine's skip flag up)."""
        from repro.faults import FaultSite, FaultTimeline, FaultUnit, TimelineEvent
        from repro.network.batched import BatchedLaneEngine

        net, cfg = _ENV_NET, _sim_cfg(measure=250)

        def spec(kind="protected"):
            # one of each vnet's two downstream VCs, on every mesh-facing
            # output of the four interior routers, out from 80 to 120
            return LaneSpec(
                SyntheticTraffic(net, 0.3, mix=COHERENCE_MIX, rng=31),
                FaultTimeline([
                    TimelineEvent(
                        80, FaultSite(r, FaultUnit.VA2_ARBITER, port, vc),
                        transient=True, duration=40,
                    )
                    for r in (5, 6, 9, 10) for port in range(1, 5) for vc in (0, 2)
                ], recovery_log=True),
                kind,
            )

        specs = [spec()]
        if beside_a_va2_fault:
            specs.append(LaneSpec(
                SyntheticTraffic(net, 0.05, mix=COHERENCE_MIX, rng=32),
                FaultTimeline(_sites((10, 5, "VA2_ARBITER", 2, 1))),
                "protected",
            ))
        engine = BatchedLaneEngine(net, cfg, specs)
        set_site = engine._set_site
        held = []  # exclusions lane 0 holds as each of its sites heals

        def spy(lane, site, faulty):
            changed = set_site(lane, site, faulty)
            if lane == 0 and not faulty:
                held.append(int(np.count_nonzero(engine.excl[0])))
                assert engine._have_va2
            return changed

        engine._set_site = spy
        lanes = engine.run()
        assert len(held) == 32 and held[-1] > 0  # the window is hit
        assert lanes[0].recovery["healed"] == 32
        ref = _event_reference(
            net, cfg, spec(None), _factory(net, "protected"), use_reference_stepper=True
        )
        assert _recovery_key(lanes[0]) == _recovery_key(ref)

    def test_a_baseline_lane_beside_a_protected_one_has_no_spares(self):
        """One engine, one traffic stream, the same four permanent faults:
        the protected lane corrects each, the baseline lane only blocks."""
        from repro.faults import FaultTimeline

        net, cfg = _ENV_NET, _ENV_SIM
        faults = _sites(
            (60, 5, "RC_PRIMARY", 1), (60, 5, "VA1_ARBITER_SET", 2, 1),
            (60, 5, "SA1_ARBITER", 3), (60, 5, "XB_MUX", 4),
        )
        kinds = ("baseline", "protected")

        def traffic():
            return SyntheticTraffic(net, 0.15, mix=COHERENCE_MIX, rng=902)

        # the engine's own kind is the other one for each lane in turn
        for default in kinds:
            stream = traffic()  # one source, held by both lanes
            lanes = run_lanes(
                net, cfg,
                [LaneSpec(stream, FaultTimeline(faults), kind) for kind in kinds],
                router_factory=_factory(net, default),
            )
            base, prot = (lane.router_stats for lane in lanes)
            for mechanism in (
                "rc_duplicate_computations", "va_borrowed_grants",
                "sa_bypass_grants", "secondary_path_grants",
            ):
                assert getattr(base, mechanism) == 0, mechanism
                assert getattr(prot, mechanism) > 0, mechanism
            for symptom in (
                "rc_blocked_cycles", "va_blocked_cycles", "sa_blocked_cycles",
                "unreachable_output_cycles",
            ):
                assert getattr(base, symptom) > 0, symptom
            assert base.va_borrow_wait_cycles == 0
            assert lanes[0].blocked and not lanes[1].blocked
            for lane, kind in zip(lanes, kinds):
                ref = _event_reference(
                    net, cfg, LaneSpec(traffic(), FaultTimeline(faults)),
                    _factory(net, kind), use_reference_stepper=True,
                )
                assert _lane_key(lane) == _lane_key(ref), kind

    def test_a_router_view_reads_watched_counters_only(self):
        """``buffer_writes`` is a per-lane total kept in router 0's cell:
        the view refuses it, no watch names it, and a dropped view is
        freed by refcount (no ``stats`` self-reference)."""
        import gc
        import weakref

        from repro.faults import FaultUnit
        from repro.faults.recovery import watch_counters
        from repro.network.batched import _RS_IDX, BatchedLaneEngine, _RouterView
        from repro.traffic.generator import NullTraffic

        engine = BatchedLaneEngine(_ENV_NET, _ENV_SIM, [LaneSpec(NullTraffic(), None)])
        view = _RouterView(engine, 0, 0)
        assert view.stats is view and view.buffered_flits() == 0
        for unit in FaultUnit:
            for counter in watch_counters(unit):
                assert getattr(view.stats, counter) == 0
        with pytest.raises(AttributeError):
            view.buffer_writes
        # a read bins what is queued for that counter, and only that
        for counter in ("flits_traversed", "sa_grants"):
            engine._queue[_RS_IDX[counter]].append(np.array([0, 0, 3]))
        assert view.flits_traversed == 2
        assert not engine._queue[_RS_IDX["flits_traversed"]]
        assert len(engine._queue[_RS_IDX["sa_grants"]]) == 1
        assert engine.counts()[_RS_IDX["sa_grants"], 0, 3] == 1 and engine._queued == 0
        gc.disable()
        try:
            gone = weakref.ref(view)
            del view
            assert gone() is None
        finally:
            gc.enable()

    def test_a_lane_kind_without_an_array_model_is_refused(self):
        """A kind no lane models (``roco`` has one now)."""
        from repro.traffic.generator import NullTraffic

        with pytest.raises(ValueError, match="damq"):
            run_lanes(_ENV_NET, _ENV_SIM, [LaneSpec(NullTraffic(), None, "damq")])
