"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.config import PORT_LOCAL, NetworkConfig, RouterConfig, SimulationConfig
from repro.core.protected_router import ProtectedRouter, protected_router_factory
from repro.faults import FaultTimeline, RandomFaultSchedule, TimelineEvent
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.network.topology import Topology
from repro.router.flit import Packet, reset_packet_ids
from repro.router.router import BaselineRouter
from repro.router.routing import XYRouting
from repro.traffic.generator import NullTraffic, SyntheticTraffic
from repro.traffic.patterns import Hotspot, UniformRandom


@pytest.fixture(autouse=True)
def _fresh_packet_ids():
    """Keep packet ids deterministic per test."""
    reset_packet_ids()
    yield


@pytest.fixture(autouse=True)
def _observability_disabled():
    """Restore the all-disabled observability default after every test.

    Tests that call :func:`repro.observability.configure` would otherwise
    leak tracing/metrics into later tests through the process-global
    config and its environment mirror.
    """
    import repro.observability as observability

    yield
    observability.reset()


def make_network_config(width=4, height=4, **router_kwargs) -> NetworkConfig:
    return NetworkConfig(
        width=width, height=height, router=RouterConfig(**router_kwargs)
    )


def hop_count(routing, src: int, dest: int) -> int:
    """Router-to-router hops of ``routing``'s first-choice route, walked
    over the mesh's links."""
    topology = Topology(routing.network)
    node, hops = src, 0
    while (port := routing.candidate_ports(node, dest)[0]) != PORT_LOCAL:
        node, _ = topology.neighbour(node, port)
        hops += 1
        assert hops <= routing.network.num_nodes, "the route does not converge"
    return hops


def sweep_files(run_dir) -> list:
    """The checkpoint files of the sweeps ``run_dir`` holds, found through
    its manifest (none before the run has registered a sweep)."""
    manifest = Path(run_dir) / "manifest.json"
    if not manifest.exists():
        return []
    sweeps = json.loads(manifest.read_text())["sweeps"]
    return [Path(run_dir) / entry["file"] for entry in sweeps.values()]


def make_sim(
    net: NetworkConfig,
    *,
    protected: bool = False,
    injection_rate: float = 0.05,
    warmup: int = 100,
    measure: int = 1500,
    drain: int = 3000,
    seed: int = 7,
    traffic=None,
    fault_schedule=None,
    watchdog: int = 2000,
    **sim_kwargs,
) -> NoCSimulator:
    sim_cfg = SimulationConfig(
        warmup_cycles=warmup,
        measure_cycles=measure,
        drain_cycles=drain,
        seed=seed,
        watchdog_cycles=watchdog,
    )
    if traffic is None:
        traffic = SyntheticTraffic(net, injection_rate=injection_rate, rng=seed)
    factory = protected_router_factory(net) if protected else baseline_router_factory(net)
    return NoCSimulator(
        net, sim_cfg, traffic, router_factory=factory,
        fault_schedule=fault_schedule, **sim_kwargs,
    )


def permanent_faults(pairs) -> FaultTimeline:
    """A timeline of permanent faults from ``(cycle, site)`` pairs."""
    return FaultTimeline(TimelineEvent(cycle, site) for cycle, site in pairs)


def lane_schedules(net: NetworkConfig, lanes: int, seed: int, **kwargs) -> list:
    """One ``RandomFaultSchedule`` per lane of a batched sweep.

    Each is drawn from its own ``SeedSequence.spawn`` child — the sweep's
    point seeding — so lane ``i``'s schedule depends only on the root
    seed and ``i``, never on how lanes are grouped into engines.
    """
    from repro.experiments.parallel import spawn_seeds

    return [
        RandomFaultSchedule(
            net.router, net.num_nodes, rng=np.random.default_rng(child), **kwargs
        )
        for child in spawn_seeds(seed, lanes)
    ]


#: the object engine's own loop, kept for ``stepped_point`` under ``unstepped``
_RUN_STEPPED = NoCSimulator._run_stepped


def stepped_point(point):
    """``run_point`` held to the object engine's own loop.

    A differential test's oracle must not ride the lane engine it checks:
    above the break-even load ``NoCSimulator.run`` would.
    """
    from repro.experiments.parallel import run_point

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NoCSimulator, "run", _RUN_STEPPED)
        return run_point(point)


@contextmanager
def unstepped():
    """Fail every ``NoCSimulator._run_stepped`` call in the block, in this
    process or in a worker forked inside it: a sweep that finishes under
    it ran every point on lanes.  :func:`stepped_point` still steps."""
    refuse = AssertionError("a point ran on the object engine's own loop")
    with mock.patch.object(NoCSimulator, "_run_stepped", side_effect=refuse):
        yield


# ----------------------------------------------------------------------
# the naive per-cycle traffic reference
# ----------------------------------------------------------------------
def _ref_uniform(n, sources, rng):
    dests = rng.integers(0, n - 1, size=len(sources))
    return np.where(dests >= sources, dests + 1, dests)


def _ref_destinations(pattern, sources, rng):
    n = pattern.config.num_nodes
    if isinstance(pattern, UniformRandom):
        return _ref_uniform(n, sources, rng)
    if isinstance(pattern, Hotspot):
        dests = _ref_uniform(n, sources, rng)
        hot = rng.random(len(sources)) < pattern.fraction
        if np.any(hot):
            dests[hot] = rng.choice(pattern.hotspots, size=int(hot.sum()))
    else:
        dests = pattern._permute(sources).copy()
    selfed = dests == sources
    if np.any(selfed):
        dests[selfed] = _ref_uniform(n, sources[selfed], rng)
    return dests


def reference_packets(
    net, rate, pattern, mix, seed, burstiness, nodes, horizon, rng=None
):
    """``(cycle, src, dest, vnet, size)`` rows of a naive per-cycle source.

    What ``SyntheticTraffic`` must draw, written out with the plain NumPy
    calls one cycle at a time (``rng.choice`` for hotspots and packet
    classes, ``np.where`` shifts).  The production code parses the raw
    words these calls consume, so a NumPy release that changes any of
    them fails against this instead of silently forking every seeded
    result.  ``rng`` (default: seeded from ``seed``) is drawn from in
    place, so a caller can hold it against the source's afterwards.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    weights = np.array([c.weight for c in mix], dtype=float)
    class_prob = weights / weights.sum()
    mean_len = float(sum(c.size_flits * p for c, p in zip(mix, class_prob)))
    packet_rate = rate / mean_len
    nodes = np.arange(net.num_nodes) if nodes is None else np.asarray(nodes)
    n = len(nodes)
    on = np.ones(n, dtype=bool)
    if burstiness > 0.0:
        on = rng.random(n) < 0.5
    out = []
    for cycle in range(horizon):
        if burstiness > 0.0:
            flips = rng.random(n) < (1.0 - burstiness) * 0.1
            on = np.where(flips, ~on, on)
            start_prob = np.minimum(np.where(on, 2.0 * packet_rate, 0.0), 1.0)
        else:
            start_prob = np.full(n, packet_rate)
        starts = rng.random(n) < start_prob
        if not np.any(starts):
            continue
        sources = nodes[starts]
        dests = _ref_destinations(pattern, sources, rng)
        classes = rng.choice(len(mix), size=len(sources), p=class_prob)
        out.extend(
            (cycle, int(s), int(d), mix[int(k)].vnet, mix[int(k)].size_flits)
            for s, d, k in zip(sources, dests, classes)
        )
    return out


class NoLookahead:
    """Traffic wrapper exposing ``generate`` only (no ``next_injection``).

    Without the lookahead the simulator cannot prove an idle stretch
    quiet, so ``run()`` steps the active-set loop every cycle — the
    ``can_skip=False`` flavour the engine matrices pin to the reference.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    def generate(self, cycle: int):
        return self._inner.generate(cycle)


class FakeScheduler:
    """Stand-in EventScheduler for single-router unit tests.

    Records flit deliveries and credit returns instead of routing them
    through a fabric.
    """

    def __init__(self) -> None:
        self.cycle = 0
        self.delivered: list[tuple[int, int, int, object]] = []
        self.credits: list[tuple[int, int, int]] = []

    def deliver_flit(self, src_node, out_port, out_vc, flit) -> None:
        self.delivered.append((src_node, out_port, out_vc, flit))

    def return_credit(self, node, in_port, wire_vc) -> None:
        self.credits.append((node, in_port, wire_vc))


class SingleRouterHarness:
    """Drives one router through its pipeline phases without a network.

    The router sits (conceptually) at the centre of a 3x3 mesh so every
    output direction is meaningful for XY routing.
    """

    def __init__(self, protected: bool = False, **router_kwargs) -> None:
        self.net = NetworkConfig(
            width=3, height=3, router=RouterConfig(**router_kwargs)
        )
        routing = XYRouting(self.net)
        cls = ProtectedRouter if protected else BaselineRouter
        self.router = cls(4, self.net.router, routing)  # node 4 = centre
        self.sched = FakeScheduler()
        self.cycle = 0
        #: flits waiting to be drip-fed into (port, wire_vc), in order
        self._pending: dict[tuple[int, int], list] = {}

    def inject(self, port: int, wire_vc: int, packet: Packet) -> None:
        """Queue a packet's flits for an input VC; fed as slots free up
        (like a real upstream router respecting credits)."""
        self._pending.setdefault((port, wire_vc), []).extend(packet.flits())
        self._feed()

    def _feed(self) -> None:
        for (port, wire_vc), queue in self._pending.items():
            vc = self.router.in_ports[port].by_wire(wire_vc)
            while queue and vc.free_slots > 0:
                flit = queue.pop(0)
                flit.injection_cycle = self.cycle
                self.router.receive_flit(port, wire_vc, flit, self.cycle)

    def step(self, n: int = 1) -> None:
        for _ in range(n):
            self.sched.cycle = self.cycle
            self.router.xb_phase(self.sched, self.cycle)
            self.router.sa_phase(self.cycle)
            self.router.va_phase(self.cycle)
            self.router.rc_phase(self.cycle)
            self._feed()
            self.cycle += 1

    def run_until_delivered(self, n_flits: int, max_cycles: int = 200) -> bool:
        """Step until ``n_flits`` flits left the router (or give up)."""
        for _ in range(max_cycles):
            if len(self.sched.delivered) >= n_flits:
                return True
            self.step()
        return len(self.sched.delivered) >= n_flits


@pytest.fixture
def harness():
    return SingleRouterHarness()


@pytest.fixture
def protected_harness():
    return SingleRouterHarness(protected=True)
