"""Property-based integration tests over the whole simulator.

Hypothesis drives random network shapes, traffic levels, and fault
scenarios through end-to-end simulations, checking the global invariants:

* flit conservation (everything injected is buffered, in flight, or
  ejected — and after a drain, fully ejected),
* no misrouting (every delivered packet crossed exactly the routers of
  its route in ``route_table()``),
* credit conservation (an output VC's credits, the flits buffered in or
  flying toward its downstream VC, the credits flying back and the XB
  grants queued for it always sum to the buffer depth; a NIC's likewise),
  wire/physical VC indirection stays a permutation,
* per-VC in-order delivery (a packet's flits eject head first, in index
  order, tail last, on one VC; a lane's per-flow streams equal the
  object engine's),
* protected routers never deadlock under *tolerable* fault sets, under
  every routing function,
* a fault set outside the tolerated set blocks its flow and the run
  reports it, at the watchdog,
* fault-free protected == baseline latency (mechanism inertness).

Every end-of-run property runs on both :data:`ENGINES`, each example
twice: through ``NoCSimulator._run_stepped()``, and as a width-1 lane
through ``run_lanes(router_factory=...)``.  The mid-run invariants are
``NoCSimulator.check_invariants()`` on the object engine and, for
credits, :func:`assert_lane_credits` after every lane step.
"""

import itertools
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    PORT_EAST,
    PORT_LOCAL,
    PORT_WEST,
    NetworkConfig,
    RouterConfig,
    SimulationConfig,
)
from repro.core.ft_crossbar import secondary_source
from repro.core.protected_router import protected_router_factory
from repro.faults import FaultSite, FaultTimeline, FaultUnit, TimelineEvent
from repro.faults.injector import RandomFaultSchedule
from repro.network.batched import BatchedLaneEngine, LaneSpec, run_lanes
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.network.topology import Topology
from repro.router.routing import make_routing
from repro.router.flit import Packet
from repro.traffic.generator import (
    SINGLE_FLIT_MIX,
    PacketClass,
    SyntheticTraffic,
    TraceTraffic,
)

SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def network_configs(draw):
    width = draw(st.integers(2, 4))
    height = draw(st.integers(2, 4))
    num_vnets = draw(st.sampled_from([1, 2]))
    vcs_per_vnet = draw(st.integers(1, 2))
    return NetworkConfig(
        width=width,
        height=height,
        router=RouterConfig(
            num_vcs=num_vnets * vcs_per_vnet * draw(st.integers(1, 2)),
            num_vnets=num_vnets,
            buffer_depth=draw(st.integers(2, 5)),
        ),
    )


def _sim_config(seed, measure=800, warmup=100, drain=6000):
    return SimulationConfig(
        warmup_cycles=warmup,
        measure_cycles=measure,
        drain_cycles=drain,
        seed=seed,
        watchdog_cycles=4000,
    )


def build_sim(net, seed, rate, protected=False, fault_schedule=None,
              measure=800, mix=SINGLE_FLIT_MIX, **kwargs):
    factory = (
        protected_router_factory(net) if protected else baseline_router_factory(net)
    )
    return NoCSimulator(
        net,
        _sim_config(seed, measure),
        SyntheticTraffic(net, injection_rate=rate, mix=mix, rng=seed),
        router_factory=factory,
        fault_schedule=fault_schedule,
        **kwargs,
    )


def multi_flit_mix(net):
    """Single-flit and 4-flit packets on every vnet of ``net``."""
    return tuple(
        PacketClass(size_flits=size, vnet=vnet, weight=1.0)
        for vnet in range(net.router.num_vnets)
        for size in (1, 4)
    )


def random_faults(net, seed, nfaults, mean_interval=20):
    """A tolerable random fault schedule (``None`` for no faults)."""
    if nfaults == 0:
        return None
    return RandomFaultSchedule(
        net.router, net.num_nodes, mean_interval=mean_interval,
        num_faults=nfaults, rng=seed, first_fault_at=0, avoid_failure=True,
    )


def assert_lane_credits(engine):
    """Credit conservation over every installed lane of ``engine``: each
    ``credits`` counter plus what it owes — flits buffered in its VC (by
    wire id) or on the link toward it, credits flying back, XB grants
    queued for it — is the buffer depth."""
    e = engine
    held = np.zeros(e.credits.size, dtype=np.int64)
    slot = e.b_cnt_.nonzero()[0]
    wire = e.vc0_of[e.port_of[slot]] + e.pwire_[slot]
    np.add.at(held, e.credit_to[wire], e.b_cnt_[slot])
    for ev in e._ring_flit:
        if ev is not None:
            np.add.at(held, e.credit_to[ev[0]], 1)
    for ring in (e._ring_eject, e._ring_credit):
        for ev in ring:
            if ev is not None:
                np.add.at(held, ev[0], 1)
    if e._xq[0] is not None:
        np.add.at(held, e._xq[0][3], 1)  # the grants' output VC ids
    total = e.credits + held
    act = e._act
    assert (total[: e.cred_.size].reshape(e.L, -1)[act] == e.D).all()
    assert (total[e.cred_.size :].reshape(e.L, -1)[act] == e.D).all()


def stepped(sim):
    """The object engine's own loop; the fabric is left to inspect."""
    return sim._run_stepped(), sim


def laned(sim):
    """The same run as a width-1 lane of the kind of the fabric's routers;
    the fabric itself never runs, so there is nothing to inspect."""
    (res,) = run_lanes(
        sim.config, sim.sim_config, [LaneSpec(sim.traffic, sim.fault_schedule)],
        router_factory=lambda node, routing: sim.routers[node],
        routing_kind=sim.routing_kind,
        keep_samples=sim.stats.keep_samples,
    )
    return res, None


#: the two ways an end-of-run property is checked
ENGINES = (stepped, laned)


def route_length(net, src, dest):
    """Routers a packet from ``src`` to ``dest`` crosses under XY routing,
    walked through ``route_table()``."""
    table = make_routing(net, "xy").route_table()
    topology = Topology(net)
    node, length = src, 1
    while (port := table[node][dest]) != PORT_LOCAL:
        node, _ = topology.neighbour(node, port)
        length += 1
    return length


class TestConservationProperties:
    @given(network_configs(), st.integers(0, 1000), st.floats(0.01, 0.12))
    @settings(**SETTINGS)
    def test_all_packets_delivered_and_conserved(self, net, seed, rate):
        for engine in ENGINES:
            res, sim = engine(build_sim(net, seed, rate))
            assert not res.blocked, engine.__name__
            assert res.drained, engine.__name__
            assert res.stats.packets_ejected == res.stats.packets_created, engine.__name__
            assert res.stats.flits_ejected == res.stats.flits_injected, engine.__name__
            if sim is not None:
                assert sim.flits_in_network == 0
                sim.check_invariants()

    @given(network_configs(), st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_mid_run_invariants(self, net, seed):
        """Invariants hold at arbitrary points mid-simulation, not just at
        the end."""
        sim = build_sim(net, seed, 0.08)
        for cycle in range(300):
            sim._step(cycle, inject_traffic=True)
            if cycle % 50 == 17:
                sim.check_invariants()

    def test_a_lost_credit_is_caught(self):
        """The credit sum is a real check: one credit short on a busy
        fabric's output VC, or on a NIC, fails it."""
        net = NetworkConfig(width=3, height=3)
        for counters in (lambda sim: sim.routers[4].out_ports[PORT_EAST].credits,
                         lambda sim: sim.nics[4].credits):
            sim = build_sim(net, 3, 0.3)
            for cycle in range(40):
                sim._step(cycle, inject_traffic=True)
            sim.check_invariants()
            counters(sim)[0] -= 1
            with pytest.raises(AssertionError, match=r"buffer depth 4: \{\(4, (2|None), 0\): 3\}"):
                sim.check_invariants()

    def test_a_lost_lane_credit_is_caught(self):
        """:func:`assert_lane_credits` fails on a lane one credit short."""
        net = NetworkConfig(width=3, height=3)
        sim = build_sim(net, 3, 0.3)
        engine = BatchedLaneEngine(net, sim.sim_config, [LaneSpec(sim.traffic)])
        step = engine._step

        class Paused(Exception):
            pass

        def until_40(cycle, local):
            step(cycle, local)
            if cycle == 40:
                raise Paused

        engine._step = until_40
        with pytest.raises(Paused):
            engine.run()
        assert_lane_credits(engine)
        for counters in (engine.cred[0, 4, PORT_EAST], engine.nic_cred[0, 4]):
            counters[0] -= 1
            with pytest.raises(AssertionError):
                assert_lane_credits(engine)
            counters[0] += 1

    @given(network_configs(), st.integers(0, 1000), st.integers(0, 10))
    @settings(**SETTINGS)
    def test_mid_run_credits_on_lanes(self, net, seed, nfaults):
        """Credit conservation after every step of a (faulted) lane."""
        sim = build_sim(net, seed, 0.08, protected=True, mix=multi_flit_mix(net))
        engine = BatchedLaneEngine(
            net, sim.sim_config,
            [LaneSpec(sim.traffic, random_faults(net, seed, nfaults))],
            router_kind="protected",
        )
        step = engine._step

        def checked(cycle, local):
            step(cycle, local)
            assert_lane_credits(engine)

        engine._step = checked
        (res,) = engine.run()
        assert res.drained and not res.blocked

    @given(network_configs(), st.integers(0, 500), st.floats(0.01, 0.1))
    @settings(**SETTINGS)
    def test_protected_equals_baseline_fault_free(self, net, seed, rate):
        """The FT machinery is inert without faults: identical results."""
        for engine in ENGINES:
            r1, _ = engine(build_sim(net, seed, rate, protected=False))
            r2, _ = engine(build_sim(net, seed, rate, protected=True))
            assert r1.stats.packets_ejected == r2.stats.packets_ejected, engine.__name__
            assert r1.avg_network_latency == r2.avg_network_latency, engine.__name__
            assert r2.router_stats.sa_bypass_grants == 0
            assert r2.router_stats.secondary_path_grants == 0
            assert r2.router_stats.va_borrowed_grants == 0


class TestFaultToleranceProperties:

    @given(
        st.integers(0, 300),
        st.integers(1, 20),
    )
    @settings(**SETTINGS)
    def test_tolerable_faults_never_wedge_protected_network(self, seed, nfaults):
        """Under every routing function, on both engines: the simulation
        side of ``tests/test_deadlock_freedom.py``."""
        net = NetworkConfig(width=3, height=3, router=RouterConfig())
        for routing, engine in itertools.product(("xy", "yx", "west_first"), ENGINES):
            res, sim = engine(build_sim(
                net, seed, 0.06, protected=True,
                fault_schedule=random_faults(net, seed, nfaults),
                routing_kind=routing,
            ))
            where = (routing, engine.__name__)
            assert not res.blocked, where
            assert res.stats.packets_ejected == res.stats.packets_created, where
            assert res.faults_injected == nfaults, where
            if sim is not None:
                for router in sim.routers:
                    assert not router.failed
                    router.check_invariants()

    @given(st.integers(0, 300))
    @settings(**SETTINGS)
    def test_faults_never_cause_misroute(self, seed):
        """Every delivered packet crossed exactly the routers of its XY
        route: no mechanism of the protected router changes the port a
        flit leaves by."""
        net = NetworkConfig(width=3, height=3, router=RouterConfig())
        for engine in ENGINES:
            inj = RandomFaultSchedule(
                net.router, net.num_nodes, mean_interval=15, num_faults=12,
                rng=seed, first_fault_at=0, avoid_failure=True,
            )
            res, _ = engine(NoCSimulator(
                net,
                _sim_config(seed, measure=600, warmup=50, drain=5000),
                SyntheticTraffic(net, injection_rate=0.06, rng=seed),
                router_factory=protected_router_factory(net),
                fault_schedule=inj,
                keep_samples=True,
            ))
            assert res.stats.samples, engine.__name__
            for s in res.stats.samples:
                assert s.src != s.dest
                assert s.hops == route_length(net, s.src, s.dest), (engine.__name__, s)
                assert s.network_latency >= 5  # at least one router + link

    @given(st.integers(0, 200), st.floats(0.02, 0.1))
    @settings(**SETTINGS)
    def test_faulty_latency_never_better(self, seed, rate):
        net = NetworkConfig(width=3, height=3, router=RouterConfig())
        base = build_sim(net, seed, rate, protected=True).run()
        inj = RandomFaultSchedule(
            net.router, net.num_nodes, mean_interval=10, num_faults=15,
            rng=seed, first_fault_at=0, avoid_failure=True,
        )
        faulty = build_sim(net, seed, rate, protected=True,
                           fault_schedule=inj).run()
        assert faulty.avg_network_latency >= base.avg_network_latency - 0.5


class TestInOrderDelivery:
    @given(network_configs(), st.integers(0, 1000), st.integers(0, 10))
    @settings(**SETTINGS)
    def test_flits_eject_in_order_on_one_vc(self, net, seed, nfaults):
        """Object engine: each packet's flits reach its NIC head first, in
        index order, tail last, all on one VC, faults or not.  The
        ``on_eject`` hook carries no VC, so the NIC's ``eject`` is wrapped."""
        sim = build_sim(
            net, seed, 0.08, protected=True, mix=multi_flit_mix(net),
            fault_schedule=random_faults(net, seed, nfaults),
        )
        seen = {}  # packet id -> (its VC, the flit index due next, its length)

        def watch(eject):
            def checked(flit, vc, cycle, sched):
                due = seen.get(flit.packet_id, (vc, 0, flit.packet_len))
                assert due == (vc, flit.flit_index, flit.packet_len), (flit, vc)
                assert flit.is_head == (flit.flit_index == 0)
                assert flit.is_tail == (flit.flit_index == flit.packet_len - 1)
                seen[flit.packet_id] = (vc, flit.flit_index + 1, flit.packet_len)
                eject(flit, vc, cycle, sched)
            return checked

        for nic in sim.nics:
            nic.eject = watch(nic.eject)
        res = sim._run_stepped()
        assert res.drained and not res.blocked
        assert len(seen) == res.stats.packets_created
        assert all(due == length for _, due, length in seen.values())

    @given(network_configs(), st.integers(0, 1000), st.integers(0, 10))
    @settings(**SETTINGS)
    def test_lane_flows_eject_as_the_object_engine_does(self, net, seed, nfaults):
        """A lane keeps no per-flit record: its ``keep_samples`` stream of
        each (src, dest, vnet) flow, in ejection order (not sorted), must
        be the object engine's."""
        streams = []
        for engine in ENGINES:
            res, _ = engine(build_sim(
                net, seed, 0.08, protected=True, mix=multi_flit_mix(net),
                fault_schedule=random_faults(net, seed, nfaults), keep_samples=True,
            ))
            flows = defaultdict(list)
            for s in res.stats.samples:
                flows[s.src, s.dest, s.vnet].append((
                    s.size_flits, s.creation_cycle, s.injection_cycle,
                    s.ejection_cycle, s.hops,
                ))
            streams.append(dict(flows))
        assert streams[0] and streams[0] == streams[1]


class TestReportedFailure:
    """Router 5 sits on the flow 4 -> 7 (east along a 4x4 mesh's second
    row).  Each fatal set there blocks the flow at cycle 0; the run must
    end at the watchdog with ``blocked=True``, long before the drain
    deadline, and both engines must report the same run."""

    FATAL = {
        # both RC units of the input port
        "rc": [
            (FaultUnit.RC_PRIMARY, PORT_WEST), (FaultUnit.RC_DUPLICATE, PORT_WEST),
        ],
        # the SA1 arbiter and bypass of the input port
        "sa1": [
            (FaultUnit.SA1_ARBITER, PORT_WEST), (FaultUnit.SA1_BYPASS, PORT_WEST),
        ],
        # the output mux and its secondary source
        "xb": [
            (FaultUnit.XB_MUX, PORT_EAST),
            (FaultUnit.XB_MUX, secondary_source(PORT_EAST, 5)),
        ],
    }

    @pytest.mark.parametrize("fatal", sorted(FATAL))
    def test_fatal_set_is_blocked_and_reported(self, fatal):
        net = NetworkConfig(width=4, height=4)
        cfg = SimulationConfig(
            warmup_cycles=0, measure_cycles=60, drain_cycles=2000, watchdog_cycles=50
        )
        runs = []
        for engine in ENGINES:
            sim = NoCSimulator(
                net, cfg,
                TraceTraffic([Packet(src=4, dest=7, size_flits=3, creation_cycle=0)]),
                router_factory=protected_router_factory(net),
                fault_schedule=FaultTimeline(
                    TimelineEvent(0, FaultSite(5, unit, port))
                    for unit, port in self.FATAL[fatal]
                ),
            )
            res, _ = engine(sim)
            assert res.blocked and not res.drained, engine.__name__
            assert res.cycles < cfg.measure_cycles + cfg.watchdog_cycles, engine.__name__
            runs.append((
                res.cycles, res.router_stats, res.stats.packets_created,
                res.stats.packets_injected, res.stats.packets_ejected,
            ))
        assert runs[0] == runs[1]
        assert runs[0][2:] == (1, 1, 0)
