"""Routing computation (RC) — dimension-order routing and variants.

The paper employs XY dimension-order routing (Section V-A): "XY routing
protocol does not require routing tables.  The fundamental logic block
required for implementing XY routing protocol is a comparator."  The RC unit
of a 5-port router in an 8x8 mesh therefore consists of two 6-bit
comparators (one per dimension), which is exactly how the reliability model
(:mod:`repro.reliability.components`) accounts for it.

XY routing on a mesh is deadlock-free: packets fully resolve the X dimension
before turning into Y, which breaks all cyclic channel dependencies.
``tests/test_deadlock_freedom.py`` checks that, for every routing here, on
the channel dependency graph of ``candidate_ports``.
"""

from __future__ import annotations

from typing import Optional

from ..config import (
    NetworkConfig,
    PORT_EAST,
    PORT_LOCAL,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
)


class RoutingFunction:
    """Interface: map (current node, destination node) -> output port(s).

    Deterministic functions implement :meth:`output_port`.  Adaptive
    functions override :meth:`candidate_ports` instead, to return all
    permitted productive directions; the RC unit then selects among them
    (by path health and downstream credit) at routing time.
    """

    #: True when candidate_ports can return more than one port
    adaptive = False

    def __init__(self, network: NetworkConfig) -> None:
        self.network = network
        self._route_table: Optional[list[list[int]]] = None

    def output_port(self, node: int, dest: int) -> int:
        raise NotImplementedError

    def route_table(self) -> list[list[int]]:
        """Dense ``table[node][dest] -> output port`` lookup (non-adaptive).

        Built lazily, once per routing instance, and shared by every
        router of a simulator: the RC unit replaces the per-head-flit
        coordinate arithmetic with one list index.  Adaptive functions
        have no static table — their choice depends on run-time credit
        and fault state — so they raise.
        """
        if self.adaptive:
            raise ValueError(
                f"{type(self).__name__} is adaptive: routes depend on "
                "run-time state, no static route table exists"
            )
        table = self._route_table
        if table is None:
            n = self.network.num_nodes
            output_port = self.output_port
            table = [
                [output_port(node, dest) for dest in range(n)]
                for node in range(n)
            ]
            self._route_table = table
        return table

    def candidate_ports(self, node: int, dest: int) -> list[int]:
        """Permitted output ports, most-preferred first (default: the one
        deterministic choice)."""
        return [self.output_port(node, dest)]


class XYRouting(RoutingFunction):
    """Dimension-order routing: resolve X first, then Y."""

    def output_port(self, node: int, dest: int) -> int:
        net = self.network
        x, y = net.coords(node)
        dx_, dy_ = net.coords(dest)
        if x == dx_ and y == dy_:
            return PORT_LOCAL
        if x != dx_:
            return self._x_port(x, dx_)
        return self._y_port(y, dy_)

    def _x_port(self, x: int, dx_: int) -> int:
        return PORT_EAST if dx_ > x else PORT_WEST

    def _y_port(self, y: int, dy_: int) -> int:
        return PORT_SOUTH if dy_ > y else PORT_NORTH


class YXRouting(XYRouting):
    """Dimension-order routing that resolves Y before X.

    Not used by the paper's experiments, but handy for tests (it must give
    identical hop counts to XY on a mesh) and for the RoCo comparison model,
    whose row/column decomposition pairs naturally with either order.
    """

    def output_port(self, node: int, dest: int) -> int:
        net = self.network
        x, y = net.coords(node)
        dx_, dy_ = net.coords(dest)
        if x == dx_ and y == dy_:
            return PORT_LOCAL
        if y != dy_:
            return self._y_port(y, dy_)
        return self._x_port(x, dx_)


class WestFirstRouting(RoutingFunction):
    """West-first turn-model adaptive routing.

    Extension beyond the paper (which uses XY): if the destination lies
    to the west, the packet must travel fully west first (no turns into
    west are ever taken later, which breaks all deadlock cycles); in
    every other case *any* productive direction among {east, north,
    south} is permitted, giving the RC unit freedom to route around
    congestion — and, in the protected router, around output ports whose
    normal *and* secondary paths have both died.
    """

    adaptive = True

    def candidate_ports(self, node: int, dest: int) -> list[int]:
        net = self.network
        x, y = net.coords(node)
        dx_, dy_ = net.coords(dest)
        if x == dx_ and y == dy_:
            return [PORT_LOCAL]
        if dx_ < x:
            # the turn model: all westward distance is covered first
            return [PORT_WEST]
        cands = []
        if dx_ > x:
            cands.append(PORT_EAST)
        if dy_ > y:
            cands.append(PORT_SOUTH)
        elif dy_ < y:
            cands.append(PORT_NORTH)
        return cands


def make_routing(network: NetworkConfig, kind: str = "xy") -> RoutingFunction:
    """Factory for routing functions by name."""
    if kind == "xy":
        return XYRouting(network)
    if kind == "yx":
        return YXRouting(network)
    if kind == "west_first":
        return WestFirstRouting(network)
    raise ValueError(f"unknown routing kind {kind!r}")
