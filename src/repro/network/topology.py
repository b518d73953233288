"""Topology construction: 2D mesh wiring.

Produces the static wiring tables the simulator uses every cycle:
``links[(node, out_port)] -> (neighbour, neighbour_in_port)``.  The local
port of every router connects to that node's network interface.

Besides the ``links`` dict, a dense per-node array (:attr:`Topology.out_link`)
exposes the same wiring as plain list indexing for the event scheduler's
per-flit hot path — no tuple-key hashing per link traversal.  Every mesh
link has its reverse twin, so ``out_link[node][p]`` also names the output
port feeding input port ``p`` of ``node``: the credit path's wiring.

A `networkx` view of the fabric is exposed for structural analysis (path
diversity, connectivity under failed routers — used by tests and by the
network-level failure analysis in the experiments).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..config import (
    NetworkConfig,
    OPPOSITE_PORT,
    PORT_DELTAS,
    PORT_LOCAL,
)

if TYPE_CHECKING:  # 0.15 s and 14 MB no simulation run uses
    import networkx as nx


class Topology:
    """Static wiring of the fabric described by a :class:`NetworkConfig`."""

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        #: (node, out_port) -> (dst_node, dst_in_port) for router-router links
        self.links: Dict[Tuple[int, int], Tuple[int, int]] = {}
        num_ports = config.router.num_ports
        #: dense view: ``out_link[node][out_port]`` is the same
        #: ``(dst_node, dst_in_port)`` as ``links``, or ``None`` on edges
        self.out_link: list[list[Optional[Tuple[int, int]]]] = [
            [None] * num_ports for _ in range(config.num_nodes)
        ]
        self._build()

    def _build(self) -> None:
        cfg = self.config
        for node in range(cfg.num_nodes):
            x, y = cfg.coords(node)
            for port, (dx, dy) in PORT_DELTAS.items():
                nx_, ny_ = x + dx, y + dy
                if not (0 <= nx_ < cfg.width and 0 <= ny_ < cfg.height):
                    continue
                link = (cfg.node_id(nx_, ny_), OPPOSITE_PORT[port])
                self.links[(node, port)] = link
                self.out_link[node][port] = link

    def neighbour(self, node: int, out_port: int) -> Optional[Tuple[int, int]]:
        """(dst_node, dst_in_port) reached through ``out_port``, if wired."""
        if out_port == PORT_LOCAL:
            raise ValueError("the local port connects to the NIC, not a router")
        return self.links.get((node, out_port))

    def graph(self) -> nx.DiGraph:
        """Directed multigraph-free view: one edge per unidirectional link."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.config.num_nodes))
        for (node, port), (dst, _) in self.links.items():
            g.add_edge(node, dst, out_port=port)
        return g

    def is_connected(self, failed_routers: frozenset[int] = frozenset()) -> bool:
        """Connectivity of the healthy sub-fabric (network-level analysis)."""
        import networkx as nx

        g = self.graph()
        g.remove_nodes_from(failed_routers)
        if g.number_of_nodes() <= 1:
            return True
        return nx.is_strongly_connected(g)

    @property
    def num_links(self) -> int:
        """Unidirectional router-router links."""
        return len(self.links)
