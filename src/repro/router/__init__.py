"""Generic NoC router substrate (paper Section II).

Flits, virtual channels, arbiters, separable VA/SA allocators, the
baseline crossbar, XY routing, and the 4-stage pipeline driver.
"""

from .._lazy import lazy_face

__getattr__, __dir__ = lazy_face(__name__, {
    "allocator": "SAGrant SAUnit VAUnit",
    "arbiter": "RoundRobinArbiter",
    "crossbar": "Crossbar PathPlan",
    "flit": "Flit FlitType Packet reset_packet_ids",
    "input_port": "InputPort",
    "router": "BaseRouter BaselineRouter OutputPort RCUnit RouterStats",
    "routing": "RoutingFunction WestFirstRouting XYRouting YXRouting make_routing",
    "vc": "VCState VirtualChannel",
})

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
