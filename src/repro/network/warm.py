"""Timed simulator construction for sweep points.

:func:`acquire` is the ``NoCSimulator(...)`` constructor call with a
stopwatch around it: every call builds a fresh fabric, and the seconds
it took accumulate in a module-level counter that
:mod:`repro.experiments.parallel` drains into the per-task ``setup_s`` /
``run_s`` timing split.  There is no pool — ``docs/performance.md``
("Why there is no warm-fabric pool") has the measurement that retired it.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from ..config import NetworkConfig, SimulationConfig
from ..observability import Observability
from .simulator import (
    FaultSchedule,
    NoCSimulator,
    RouterFactory,
    TrafficSource,
)

#: seconds spent building networks since the last drain
_setup_seconds = 0.0


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
    """A freshly built simulator; construction time accrues to ``setup_s``."""
    global _setup_seconds
    t0 = perf_counter()
    sim = NoCSimulator(
        config, sim_config, traffic, router_factory, fault_schedule,
        routing_kind, keep_samples, observability=observability,
    )
    _setup_seconds += perf_counter() - t0
    return sim


def drain_setup_seconds() -> float:
    """Return and zero the accumulated setup time (per-task harvest)."""
    global _setup_seconds
    t = _setup_seconds
    _setup_seconds = 0.0
    return t


def pool_size() -> int:
    """Always 0: the ledger reads it until a ``benchmark`` PR retires ``network.warm.*``."""
    return 0
