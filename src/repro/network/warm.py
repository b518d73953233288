"""Simulator construction for sweep points.

:func:`acquire` is the ``NoCSimulator(...)`` constructor call under the
name the performance ledger times it by (``network.warm.acquire_s``):
every call builds a fresh fabric.  There is no pool — ``docs/performance.md``
("Why there is no warm-fabric pool") has the measurement that retired it.
"""

from __future__ import annotations

from typing import Optional

from ..config import NetworkConfig, SimulationConfig
from ..observability import Observability
from .simulator import (
    FaultSchedule,
    NoCSimulator,
    RouterFactory,
    TrafficSource,
)


def acquire(
    config: NetworkConfig,
    sim_config: SimulationConfig,
    traffic: TrafficSource,
    router_factory: Optional[RouterFactory] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    routing_kind: str = "xy",
    keep_samples: bool = False,
    observability: Optional[Observability] = None,
) -> NoCSimulator:
    """A freshly built simulator."""
    return NoCSimulator(
        config, sim_config, traffic, router_factory, fault_schedule,
        routing_kind, keep_samples, observability=observability,
    )


def pool_size() -> int:
    """Always 0: the ledger reads it until a ``benchmark`` PR retires ``network.warm.*``."""
    return 0
