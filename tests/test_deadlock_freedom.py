"""Deadlock freedom by proof: an acyclic channel dependency graph.

Routing is deadlock-free when the channel dependency graph (CDG) has no
cycle (Dally & Seitz; the fault-tolerant form in Stroobant et al.,
PAPERS.md).  Its nodes are the directed router-to-router links; an edge
``a -> b`` says a packet holding link ``a`` may wait for link ``b``.  The
edges come from ``candidate_ports`` over every state a packet bound for a
destination can reach from any source.  Vnets never share VCs and each
vnet has one VC class, so one graph per fabric covers every vnet.

The argument has three parts, one test class each:

* :class:`TestChannelDependencyGraph` — the CDG of every routing
  function ``make_routing`` knows is acyclic on 4x4, 8x8 and 5x3
  meshes, and a test-local fully adaptive minimal routing makes the same
  check report a cycle, so the check can fail;
* :class:`TestMechanismsKeepTheRoute` — the CDG is a fault-free graph,
  and it stays the graph under faults because no mechanism of the
  protected router changes the port a flit leaves by.  A lone protected
  router is driven the way ``reliability/spf_simulation.py`` does, flow
  by flow, under every single fault site and every pair
  ``protected_router_failed(exact=True)`` calls tolerable: each flit
  must leave by its ``route_table()`` port, on a VC of its vnet;
* the simulation cross-check is
  ``tests/test_properties.py::TestFaultToleranceProperties::
  test_tolerable_faults_never_wedge_protected_network``, over every
  routing on both engines.

DESIGN.md section 5, item 9, tabulates the graphs checked here.
"""

import functools
import itertools

import networkx as nx
import pytest

from repro.config import (
    PORT_EAST,
    PORT_LOCAL,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
    NetworkConfig,
    RouterConfig,
)
from repro.core.failure import protected_router_failed
from repro.core.protected_router import ProtectedRouter
from repro.faults.sites import enumerate_sites
from repro.network.topology import Topology
from repro.reliability.spf_simulation import _PROBE_NODE, _probe_flows
from repro.router.flit import Packet
from repro.router.routing import RoutingFunction, make_routing

ROUTINGS = ("xy", "yx", "west_first")


class FullyAdaptiveMinimal(RoutingFunction):
    """Every productive direction, no turn restriction: the negative control."""

    adaptive = True

    def candidate_ports(self, node, dest):
        net = self.network
        (x, y), (dx, dy) = net.coords(node), net.coords(dest)
        ports = []
        if dx != x:
            ports.append(PORT_EAST if dx > x else PORT_WEST)
        if dy != y:
            ports.append(PORT_SOUTH if dy > y else PORT_NORTH)
        return ports or [PORT_LOCAL]

    def output_port(self, node, dest):
        return self.candidate_ports(node, dest)[0]


def channel_dependency_graph(net, routing):
    """The CDG of ``routing`` on ``net``: a node per directed link
    ``(router, output port)``, an edge per wait a reachable packet state
    allows."""
    links = Topology(net).links
    cdg = nx.DiGraph()
    cdg.add_nodes_from(links)
    for dest in range(net.num_nodes):
        # links a packet bound for ``dest`` can hold, from every source
        frontier = [
            (src, port)
            for src in range(net.num_nodes)
            if src != dest
            for port in routing.candidate_ports(src, dest)
        ]
        held = set(frontier)
        while frontier:
            link = frontier.pop()
            here, _ = links[link]
            for port in routing.candidate_ports(here, dest):
                if port == PORT_LOCAL:
                    continue
                nxt = (here, port)
                cdg.add_edge(link, nxt)
                if nxt not in held:
                    held.add(nxt)
                    frontier.append(nxt)
    return cdg


class TestChannelDependencyGraph:
    #: (width, height) -> links, then CDG edges under xy, yx, west_first
    SIZES = {
        (4, 4): (48, {"xy": 68, "yx": 68, "west_first": 86}),
        (8, 8): (224, {"xy": 388, "yx": 388, "west_first": 486}),
        (5, 3): (44, None),
    }

    @pytest.mark.parametrize("kind", ROUTINGS)
    @pytest.mark.parametrize("size", sorted(SIZES), ids=lambda s: f"{s[0]}x{s[1]}")
    def test_acyclic(self, size, kind):
        net = NetworkConfig(width=size[0], height=size[1])
        cdg = channel_dependency_graph(net, make_routing(net, kind))
        links, edges = self.SIZES[size]
        assert cdg.number_of_nodes() == links
        if edges is not None:
            assert cdg.number_of_edges() == edges[kind]
        assert nx.is_directed_acyclic_graph(cdg), nx.find_cycle(cdg)

    def test_the_check_can_fail(self):
        """Fully adaptive minimal routing without VC classes has a cyclic
        CDG: the turns west-first forbids close a loop."""
        net = NetworkConfig(width=4, height=4)
        cdg = channel_dependency_graph(net, FullyAdaptiveMinimal(net))
        assert not nx.is_directed_acyclic_graph(cdg)
        cycle = nx.find_cycle(cdg)
        assert len(cycle) >= 4
        # every hop of the cycle is a dependency the routing allows
        for (here, port), (there, _) in cycle:
            assert Topology(net).links[(here, port)][0] == there


class _Link:
    """Stands in for the event scheduler: records what leaves the router."""

    def __init__(self):
        self.sent = []

    def deliver_flit(self, src_node, out_port, out_vc, flit):
        self.sent.append((out_port, out_vc))

    def return_credit(self, node, in_port, wire_vc):
        pass


def leaves_by(router, in_port, dest, vnet, max_cycles=60):
    """The (port, VC) a one-flit probe on ``vnet`` leaves ``router`` by, or
    ``None`` when it does not leave within ``max_cycles``."""
    router.clear_dynamic_state()
    link = _Link()
    src = 3 if dest != 3 else 5  # any node but the destination
    (flit,) = Packet(src=src, dest=dest, size_flits=1, vnet=vnet).flits()
    router.receive_flit(in_port, router.config.vcs_of_vnet(vnet)[0], flit, 0)
    for cycle in range(max_cycles):
        router.xb_phase(link, cycle)
        router.sa_phase(cycle)
        router.va_phase(cycle)
        router.rc_phase(cycle)
        if link.sent:
            (sent,) = link.sent
            return sent
    return None


class TestMechanismsKeepTheRoute:
    """No mechanism of the protected router changes the output port: RC
    duplicates compute the same route, VA1 borrowing and VA2 retries pick
    another VC of the same vnet, the SA1 bypass and VC transfer change
    the winner, and the XB secondary path and SA2 borrowing reach the
    *same* output through a neighbouring mux.  The default router (4 VCs,
    one vnet) takes every pair; a two-vnet one every single fault, each
    flow on both vnets."""

    NET = NetworkConfig(width=3, height=3)
    SITES = list(enumerate_sites(NET.router, router=_PROBE_NODE, include_va2=True))
    FLOWS = _probe_flows(NET)

    @staticmethod
    def router(net):
        return ProtectedRouter(_PROBE_NODE, net.router, make_routing(net, "xy"))

    @staticmethod
    @functools.cache
    def probes(net):
        """Every (input port, destination, vnet) probe, and the XY route row."""
        flows = itertools.product(_probe_flows(net), range(net.router.num_vnets))
        return list(flows), make_routing(net, "xy").route_table()[_PROBE_NODE]

    def assert_routes_kept(self, router, net, faults):
        probes, table = self.probes(net)
        for (in_port, dest), vnet in probes:
            sent = leaves_by(router, in_port, dest, vnet)
            assert sent is not None, (faults, in_port, dest, vnet)
            port, vc = sent
            assert port == table[dest], (faults, in_port, dest)
            assert net.router.vnet_of_vc(vc) == vnet, (faults, in_port, dest)

    def test_the_probe_covers_every_site_and_flow(self):
        assert (len(self.SITES), len(self.FLOWS)) == (75, 37)

    @pytest.mark.parametrize("vnets", [1, 2])
    def test_every_single_fault(self, vnets):
        net = NetworkConfig(width=3, height=3, router=RouterConfig(num_vnets=vnets))
        self.assert_routes_kept(self.router(net), net, ())
        for site in enumerate_sites(net.router, router=_PROBE_NODE, include_va2=True):
            router = self.router(net)
            router.inject_fault(site)
            assert not protected_router_failed(router.faults, exact=True)
            self.assert_routes_kept(router, net, (site,))

    def test_every_tolerable_pair(self):
        net, tolerable = self.NET, 0
        for i, first in enumerate(self.SITES):
            router = self.router(net)
            router.inject_fault(first)
            for second in self.SITES[i + 1 :]:
                router.inject_fault(second)
                if not protected_router_failed(router.faults, exact=True):
                    tolerable += 1
                    self.assert_routes_kept(router, net, (first, second))
                router.heal_fault(second)
        assert tolerable == 2739  # of 75 * 74 / 2 = 2775
