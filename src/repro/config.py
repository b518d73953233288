"""Configuration objects shared across the simulator, router, and analyses.

The paper evaluates a 5-input / 5-output router with 4 virtual channels (VCs)
per input port, sitting in an 8x8 mesh that runs dimension-order (XY) routing
(Sections II and VI).  Those values are the defaults here, but every knob is
explicit so that the sensitivity studies (e.g. SPF vs. VC count in Section
VIII-E) are one-field changes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


# Canonical port numbering for a 2D mesh router.  Matches the common
# convention used by GARNET-style simulators: the local (NIC) port first,
# then the four cardinal directions.
PORT_LOCAL = 0
PORT_NORTH = 1
PORT_EAST = 2
PORT_SOUTH = 3
PORT_WEST = 4

PORT_NAMES = ("local", "north", "east", "south", "west")

#: Direction vectors (dx, dy) for each non-local port, with +x pointing east
#: and +y pointing south (row-major node numbering).
PORT_DELTAS = {
    PORT_NORTH: (0, -1),
    PORT_EAST: (1, 0),
    PORT_SOUTH: (0, 1),
    PORT_WEST: (-1, 0),
}

#: The port on the neighbouring router that faces back at us.
OPPOSITE_PORT = {
    PORT_NORTH: PORT_SOUTH,
    PORT_SOUTH: PORT_NORTH,
    PORT_EAST: PORT_WEST,
    PORT_WEST: PORT_EAST,
}


def port_name(port: int) -> str:
    """Human-readable name for a mesh router port index."""
    if 0 <= port < len(PORT_NAMES):
        return PORT_NAMES[port]
    return f"port{port}"


@dataclass(frozen=True)
class RouterConfig:
    """Static parameters of a single router.

    Attributes
    ----------
    num_ports:
        Number of input ports == number of output ports (``P`` in the paper).
        A mesh router has 5 (local + N/E/S/W); edge routers still instantiate
        all 5 and simply leave the missing links unconnected.
    num_vcs:
        Virtual channels per input port (``V``; paper uses 4).
    buffer_depth:
        Flit slots per VC (paper Figure 3d shows 4-deep VCs).
    num_vnets:
        Number of virtual networks.  VCs are partitioned evenly across
        vnets; VA only considers downstream VCs of the packet's vnet.  Two
        vnets (request/reply) model MOESI-style coherence traffic without
        protocol deadlock.
    bypass_rotation_period:
        Cycles between rotations of the SA-stage-1 bypass "default winner"
        VC (Section V-C1 recommends rotating to avoid starvation).
    """

    num_ports: int = 5
    num_vcs: int = 4
    buffer_depth: int = 4
    num_vnets: int = 1
    bypass_rotation_period: int = 8

    def __post_init__(self) -> None:
        if self.num_ports < 2:
            raise ValueError("a router needs at least 2 ports")
        if self.num_vcs < 1:
            raise ValueError("need at least one virtual channel")
        if self.num_vcs > 31 or self.num_ports * self.num_vcs > 62:
            raise ValueError(
                "the allocators' request bitmasks hold at most 31 VCs per "
                "port and 62 per router (num_ports * num_vcs)"
            )
        if self.buffer_depth < 1:
            raise ValueError("VC buffers need at least one flit slot")
        if self.num_vnets < 1:
            raise ValueError("need at least one virtual network")
        if self.num_vcs % self.num_vnets != 0:
            raise ValueError(
                f"num_vcs ({self.num_vcs}) must be divisible by "
                f"num_vnets ({self.num_vnets})"
            )
        if self.bypass_rotation_period < 1:
            raise ValueError("bypass rotation period must be >= 1")

    @property
    def vcs_per_vnet(self) -> int:
        """Number of VCs available to each virtual network."""
        return self.num_vcs // self.num_vnets

    def vnet_of_vc(self, vc: int) -> int:
        """Virtual network that VC index ``vc`` belongs to."""
        return vc // self.vcs_per_vnet

    def vcs_of_vnet(self, vnet: int) -> range:
        """VC indices belonging to virtual network ``vnet``."""
        base = vnet * self.vcs_per_vnet
        return range(base, base + self.vcs_per_vnet)


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the mesh fabric.

    The paper's latency study uses an 8x8 mesh (64 cores) with one router
    per core and XY dimension-order routing.
    """

    width: int = 8
    height: int = 8
    link_latency: int = 1
    credit_latency: int = 1
    router: RouterConfig = field(default_factory=RouterConfig)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")
        # a router's ports are local, north, east, south, west: the mesh
        # needs the highest one any of its links leaves by
        needed = PORT_WEST if self.width > 1 else PORT_SOUTH if self.height > 1 else PORT_LOCAL
        if self.router.num_ports <= needed:
            raise ValueError(
                f"a {self.width}x{self.height} mesh links routers through "
                f"the {PORT_NAMES[needed]} port: need num_ports >= {needed + 1}"
            )
        if self.link_latency < 1:
            raise ValueError("link latency must be >= 1 cycle")
        if self.credit_latency < 1:
            raise ValueError("credit latency must be >= 1 cycle")

    @property
    def num_nodes(self) -> int:
        """Total number of routers (== cores) in the fabric."""
        return self.width * self.height

    def node_id(self, x: int, y: int) -> int:
        """Row-major node id of coordinates ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height}")
        return y * self.width + x

    def coords(self, node: int) -> tuple[int, int]:
        """Coordinates ``(x, y)`` of row-major node id ``node``."""
        if not (0 <= node < self.num_nodes):
            raise ValueError(f"node {node} outside 0..{self.num_nodes - 1}")
        return node % self.width, node // self.width


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run.

    ``warmup_cycles`` packets are excluded from latency statistics; the
    simulator then measures for ``measure_cycles`` and finally drains
    in-flight packets for up to ``drain_cycles``.
    """

    warmup_cycles: int = 1000
    measure_cycles: int = 10000
    drain_cycles: int = 5000
    seed: int = 1
    watchdog_cycles: int = 100000
    """If any packet is older than this many cycles, the simulator flags a
    (likely fault-induced) blockage instead of spinning forever."""

    def __post_init__(self) -> None:
        if self.warmup_cycles < 0 or self.measure_cycles < 1:
            raise ValueError("invalid cycle budget")
        if self.drain_cycles < 0:
            raise ValueError("drain_cycles must be >= 0")
        if self.watchdog_cycles < 1:
            raise ValueError("watchdog_cycles must be >= 1")

    @property
    def total_cycles(self) -> int:
        """Upper bound on simulated cycles (warmup + measure + drain)."""
        return self.warmup_cycles + self.measure_cycles + self.drain_cycles


def replace(cfg, **changes):
    """Dataclass ``replace`` re-export for convenient config tweaking."""
    return dataclasses.replace(cfg, **changes)
