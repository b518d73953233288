"""Topology construction: 2D mesh and torus wiring.

Produces the static wiring tables the simulator uses every cycle:
``links[(node, out_port)] -> (neighbour, neighbour_in_port)``.  The local
port of every router connects to that node's network interface.

Besides the ``links`` dict, dense per-node arrays (:attr:`Topology.out_link`
and :attr:`Topology.upstream_link`) expose the same wiring as plain list
indexing for the event scheduler's per-flit hot path — no tuple-key hashing
per link traversal.

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
        #: dense view: ``upstream_link[node][in_port]`` ==
        #: :meth:`upstream`\ ``(node, in_port)``, or ``None``
        self.upstream_link: list[list[Optional[Tuple[int, int]]]] = [
            [None] * num_ports for _ in range(config.num_nodes)
        ]
        self._build()

    def _build(self) -> None:
        cfg = self.config
        wrap = cfg.topology == "torus"
        for node in range(cfg.num_nodes):
            x, y = cfg.coords(node)
            for port, (dx, dy) in PORT_DELTAS.items():
                nx_, ny_ = x + dx, y + dy
                if wrap:
                    nx_ %= cfg.width
                    ny_ %= cfg.height
                elif not (0 <= nx_ < cfg.width and 0 <= ny_ < cfg.height):
                    continue
                # A 1-wide dimension on a torus would self-loop; treat as edge.
                neighbour = cfg.node_id(nx_, ny_)
                if neighbour == node:
                    continue
                self.links[(node, port)] = (neighbour, OPPOSITE_PORT[port])
                self.out_link[node][port] = (neighbour, OPPOSITE_PORT[port])
                # the link arriving on our input port `port` is fed by the
                # neighbour in that direction, through its opposite output
                self.upstream_link[node][port] = (neighbour, OPPOSITE_PORT[port])

    def neighbour(self, node: int, out_port: int) -> Optional[Tuple[int, int]]:
        """(dst_node, dst_in_port) reached through ``out_port``, if wired."""
        if out_port == PORT_LOCAL:
            raise ValueError("the local port connects to the NIC, not a router")
        return self.links.get((node, out_port))

    def upstream(self, node: int, in_port: int) -> Optional[Tuple[int, int]]:
        """(src_node, src_out_port) feeding ``(node, in_port)``, if wired.

        In a mesh/torus every link is bidirectional and symmetric, so the
        upstream of input port *p* is the neighbour in direction *p* and
        its opposite output port.
        """
        if in_port == PORT_LOCAL:
            raise ValueError("the local input port is fed by the NIC")
        link = self.links.get((node, in_port))
        if link is None:
            return None
        neighbour, _ = link
        return neighbour, OPPOSITE_PORT[in_port]

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
