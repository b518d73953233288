"""Cycle-accurate NoC fabric simulator (GEM5/GARNET substitute)."""

from .._lazy import lazy_face

__getattr__, __dir__ = lazy_face(__name__, {
    "batched": "BatchedLaneEngine LaneSpec run_lanes",
    "nic": "NetworkInterface",
    "simulator": "EventScheduler NoCSimulator SimulationResult baseline_router_factory",
    "stats": "LatencySample NetworkStats",
    "topology": "Topology",
})

__all__ = [
    "BatchedLaneEngine",
    "EventScheduler",
    "LaneSpec",
    "LatencySample",
    "NetworkInterface",
    "NetworkStats",
    "NoCSimulator",
    "SimulationResult",
    "Topology",
    "baseline_router_factory",
    "run_lanes",
]
