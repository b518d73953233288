"""Warm-network pool: reuse one constructed fabric across many runs.

Building an 8x8 mesh — 64 routers x (20 VCs + 125 VA arbiters + 10 SA
arbiters + crossbar + route row) plus NICs and topology — costs far more
than a warm reset that only rewinds dynamic state.  Sweep workers
therefore keep one simulator per *structural* configuration and
:meth:`repro.network.simulator.NoCSimulator.reset` it between sweep
points and Monte-Carlo trials.  The golden determinism tests pin the
reset path bit-identical to fresh construction, so pooling is purely a
wall-clock optimization.

The pool is per-process (sweep workers are separate processes, each
keeps its own warm fabric) and keyed by everything that shapes the
object graph: the frozen :class:`~repro.config.NetworkConfig`, the
router flavour (``router_kind`` marker on the factory), the routing
function kind, the sample-retention flag, and the fault schedule's
``fingerprint()`` — a pooled fabric is never held under a schedule it is
no longer running (a structurally matching fabric with a *different*
schedule fingerprint is recycled through ``reset()`` and re-keyed, so
the per-process pool stays one fabric per structural configuration).
Factories without the marker — ad-hoc lambdas in tests — fall back to a
fresh, uncached build.

Setup wall time (construction *and* resets) accumulates in a
module-level counter that :mod:`repro.experiments.parallel` drains into
the per-shard ``setup_s`` / ``run_s`` timing split.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

from ..config import NetworkConfig, SimulationConfig
from ..observability import Observability
from .simulator import (
    FaultSchedule,
    NoCSimulator,
    RouterFactory,
    TrafficSource,
    baseline_router_factory,
)

#: pool key -> warm simulator (per process; workers each grow their own)
_POOL: dict = {}

#: seconds spent building or resetting networks since the last drain
_setup_seconds = 0.0


def acquire(
    config: NetworkConfig,
    sim_config: SimulationConfig,
    traffic: TrafficSource,
    router_factory: Optional[RouterFactory] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    routing_kind: str = "xy",
    keep_samples: bool = False,
    on_eject: Optional[Callable] = None,
    observability: Optional[Observability] = None,
) -> NoCSimulator:
    """A simulator ready to ``run()`` — warm-reset when possible.

    Drop-in for the ``NoCSimulator(...)`` constructor call in sweep
    loops.  Returns a pooled, freshly reset fabric when the structural
    key matches a previous acquire in this process, else constructs (and
    pools) a new one.  Either way the caller must treat the instance as
    borrowed until its ``run()`` returns.
    """
    global _setup_seconds
    factory = router_factory if router_factory is not None else baseline_router_factory(config)
    kind = getattr(factory, "router_kind", None)
    t0 = perf_counter()
    if kind is None:
        # unknown factory: no way to prove two builds are interchangeable
        sim = NoCSimulator(
            config, sim_config, traffic, factory, fault_schedule,
            routing_kind, keep_samples, on_eject, observability,
        )
        _setup_seconds += perf_counter() - t0
        return sim
    fp = "none" if fault_schedule is None else fault_schedule.fingerprint()
    structural = (config, kind, routing_kind, keep_samples)
    key = structural + (fp,)
    sim = _POOL.get(key)
    if sim is None:
        # same structure, different schedule: recycle the fabric under the
        # new fingerprint so the pool never holds it under a stale key
        stale = next((k for k in _POOL if k[:-1] == structural), None)
        if stale is not None:
            sim = _POOL.pop(stale)
            sim.reset(sim_config, traffic, fault_schedule, on_eject, observability)
            _POOL[key] = sim
        else:
            sim = NoCSimulator(
                config, sim_config, traffic, factory, fault_schedule,
                routing_kind, keep_samples, on_eject, observability,
            )
            _POOL[key] = sim
    else:
        sim.reset(sim_config, traffic, fault_schedule, on_eject, observability)
    _setup_seconds += perf_counter() - t0
    return sim


def drain_setup_seconds() -> float:
    """Return and zero the accumulated setup time (per-shard harvest)."""
    global _setup_seconds
    t = _setup_seconds
    _setup_seconds = 0.0
    return t


def pool_size() -> int:
    """Number of warm fabrics currently pooled (diagnostics/tests)."""
    return len(_POOL)


def clear_pool() -> None:
    """Drop every pooled fabric (test isolation / memory pressure)."""
    _POOL.clear()
