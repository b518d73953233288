"""Generic NoC router substrate (paper Section II).

Flits, virtual channels, arbiters, separable VA/SA allocators, the
baseline crossbar, XY routing, and the 4-stage pipeline driver.
"""

from .allocator import SAGrant, SAUnit, VAUnit
from .arbiter import RoundRobinArbiter
from .crossbar import Crossbar, PathPlan
from .flit import Flit, FlitType, Packet, reset_packet_ids
from .input_port import InputPort
from .router import BaseRouter, BaselineRouter, OutputPort, RCUnit, RouterStats
from .routing import (
    RoutingFunction,
    WestFirstRouting,
    XYRouting,
    YXRouting,
    make_routing,
)
from .vc import VCState, VirtualChannel

__all__ = [
    "BaseRouter",
    "BaselineRouter",
    "Crossbar",
    "Flit",
    "FlitType",
    "InputPort",
    "OutputPort",
    "Packet",
    "PathPlan",
    "RCUnit",
    "RoundRobinArbiter",
    "RouterStats",
    "RoutingFunction",
    "SAGrant",
    "SAUnit",
    "VAUnit",
    "VCState",
    "VirtualChannel",
    "WestFirstRouting",
    "XYRouting",
    "YXRouting",
    "make_routing",
    "reset_packet_ids",
]
