"""``repro.observability`` — zero-cost-when-disabled introspection layer.

Three cooperating subsystems, all off by default:

* :mod:`~repro.observability.events` — a flit-lifecycle event tracer
  (inject → RC → VA → SA → XB → link → eject, then the delivered
  ``packet``) with bounded ring-buffer storage and Chrome
  ``trace_event`` export (:mod:`~repro.observability.trace`) viewable in
  Perfetto;
* :mod:`~repro.observability.metrics` — a counters/gauges/histograms
  registry holding a finished run's per-router stall causes, VA/SA
  grants and retries and fault-path activations (:func:`harvest`, one
  reduction over the counts every engine keeps), merged
  deterministically across parallel sweep shards;
* :mod:`~repro.observability.profiler` — sampled wall-time profiling of
  the simulator's per-cycle phases.

**Cost discipline:** every instrumentation site in the simulator, router
pipeline, allocators, and NIC is guarded by a single ``x is None``
attribute check; with everything disabled (the default) those checks are
the *entire* overhead — pinned to <= 5 % by
``benchmarks/bench_observability.py``.

**Enabling:** pass an :class:`Observability` to
:class:`~repro.network.simulator.NoCSimulator`, or flip the process-wide
default with :func:`configure` (the ``--metrics-out`` / ``--trace-out`` /
``--profile`` flags on ``python -m repro.experiments`` do the latter).
Metrics, profiles and traces run on either engine: a lane sweep's trace
holds one ``packet`` event per delivered packet, and a simulator handed a
tracer steps on the object engine, which adds the per-stage events.
The global configuration is mirrored into the ``REPRO_OBSERVABILITY``
environment variable so ``spawn``-started sweep workers inherit it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from .events import DEFAULT_CAPACITY, EVENT_SCHEMA, EventTracer
from .metrics import DEFAULT_EDGES, Histogram, MetricsRegistry, merge_snapshots
from .profiler import StageProfiler, merge_profiles

if TYPE_CHECKING:
    import numpy as np

    from ..network.stats import NetworkStats

__all__ = [
    "DEFAULT_EDGES",
    "EVENT_SCHEMA",
    "EventTracer",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "ObservabilityConfig",
    "StageProfiler",
    "configure",
    "global_config",
    "harvest",
    "maybe_create",
    "merge_exports",
    "merge_snapshots",
    "reset",
]

ENV_VAR = "REPRO_OBSERVABILITY"
ENV_CAPACITY_VAR = "REPRO_TRACE_CAPACITY"

@dataclass(frozen=True)
class ObservabilityConfig:
    """Which subsystems are on, and their knobs."""

    trace: bool = False
    metrics: bool = False
    profile: bool = False
    trace_capacity: int = DEFAULT_CAPACITY

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics or self.profile


def _config_from_env() -> ObservabilityConfig:
    raw = os.environ.get(ENV_VAR, "")
    flags = {f.strip() for f in raw.split(",") if f.strip()}
    capacity = int(os.environ.get(ENV_CAPACITY_VAR, DEFAULT_CAPACITY))
    return ObservabilityConfig(
        trace="trace" in flags,
        metrics="metrics" in flags,
        profile="profile" in flags,
        trace_capacity=capacity,
    )


#: process-wide default configuration (inherited by fork *and*, via the
#: environment mirror, by spawn-started sweep workers)
_GLOBAL: ObservabilityConfig = _config_from_env()


def global_config() -> ObservabilityConfig:
    return _GLOBAL


def configure(**changes: object) -> ObservabilityConfig:
    """Update the process-wide default config; returns the new config.

    Accepts any :class:`ObservabilityConfig` field as a keyword.  The
    enabled-subsystem set and trace capacity are mirrored into the
    environment so worker processes started with the ``spawn`` method
    (which re-import this module) see the same configuration.
    """
    global _GLOBAL
    _GLOBAL = replace(_GLOBAL, **changes)  # type: ignore[arg-type]
    flags = [
        name
        for name, on in (
            ("trace", _GLOBAL.trace),
            ("metrics", _GLOBAL.metrics),
            ("profile", _GLOBAL.profile),
        )
        if on
    ]
    if flags:
        os.environ[ENV_VAR] = ",".join(flags)
        os.environ[ENV_CAPACITY_VAR] = str(_GLOBAL.trace_capacity)
    else:
        os.environ.pop(ENV_VAR, None)
        os.environ.pop(ENV_CAPACITY_VAR, None)
    return _GLOBAL


def reset() -> ObservabilityConfig:
    """Restore the all-disabled default (test isolation helper)."""
    global _GLOBAL
    os.environ.pop(ENV_VAR, None)
    os.environ.pop(ENV_CAPACITY_VAR, None)
    _GLOBAL = ObservabilityConfig()
    return _GLOBAL


def maybe_create(
    config: Optional[ObservabilityConfig] = None,
) -> Optional["Observability"]:
    """An :class:`Observability` per the (global) config, or ``None``.

    Returning ``None`` when everything is disabled is what makes the
    disabled path free: the simulator stores the ``None`` and every
    instrumentation site reduces to one attribute check.
    """
    cfg = config if config is not None else _GLOBAL
    if not cfg.enabled:
        return None
    return Observability(cfg)


class Observability:
    """One run's tracer + metrics + profiler bundle."""

    __slots__ = ("config", "tracer", "metrics", "profiler")

    def __init__(self, config: Optional[ObservabilityConfig] = None) -> None:
        cfg = config if config is not None else ObservabilityConfig(
            trace=True, metrics=True, profile=True
        )
        self.config = cfg
        self.tracer: Optional[EventTracer] = (
            EventTracer(cfg.trace_capacity) if cfg.trace else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if cfg.metrics else None
        )
        self.profiler: Optional[StageProfiler] = (
            StageProfiler() if cfg.profile else None
        )

    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Picklable snapshot carried on ``SimulationResult.observability``."""
        return {
            "metrics": self.metrics.snapshot() if self.metrics else None,
            # an empty tracer is falsy (``__len__``), and still a trace
            "trace": self.tracer.snapshot() if self.tracer is not None else None,
            "profile": self.profiler.snapshot() if self.profiler else None,
        }


def harvest(
    registry: MetricsRegistry,
    counts: "np.ndarray",
    stats: "NetworkStats",
    cycles: int,
    faults_injected: int,
) -> None:
    """Add one finished run's metrics to ``registry``: the one export both
    engines call.

    ``counts`` has one row per :class:`~repro.router.router.RouterStats`
    field, in field order, and one column per router: the object engine
    stacks its routers' ``stats``, the lane engine passes a lane's slice
    of its counter matrix.  Every metric is a count both engines keep, so
    a point's snapshot is the same whichever engine ran it.  Zero
    counters are skipped.  ``buffer_writes`` is one total without a
    router label, because the lane engine keeps it per lane.
    """
    from ..router.router import RouterStats

    for name, row in zip(RouterStats.__dataclass_fields__, counts.tolist()):
        if name == "buffer_writes":
            if sum(row):
                registry.inc("router.buffer_writes", sum(row))
            continue
        for node, value in enumerate(row):
            if value:
                registry.inc(f"router.{name}", value, router=node)
    for name in (
        "packets_created", "packets_injected", "packets_ejected",
        "flits_injected", "flits_ejected", "measured_packets",
    ):
        registry.inc(f"network.{name}", getattr(stats, name))
    registry.inc("sim.cycles", cycles)
    registry.inc("sim.faults_injected", faults_injected)
    registry.set_gauge("network.max_network_latency", stats.max_network_latency)
    if stats.latency_hist.count:
        registry.adopt_histogram("network.latency_cycles", stats.latency_hist)


def merge_exports(
    exports: "list[tuple[str, Optional[dict]]]",
) -> Optional[dict]:
    """Merge per-point :meth:`Observability.export` snapshots.

    ``exports`` is ``[(label, export_or_None), ...]`` in task-index
    order.  Metrics merge by exact integer summation (bit-identical for
    any sharding); traces are kept per point, labelled; profiles sum.
    Returns ``None`` when no point carried observability data.
    """
    if not any(snap for _, snap in exports):
        return None
    metrics = (
        merge_snapshots((snap or {}).get("metrics") for _, snap in exports)
        if any(snap and snap.get("metrics") for _, snap in exports)
        else None
    )
    traces = [
        (label, snap["trace"])
        for label, snap in exports
        if snap and snap.get("trace")
    ]
    profile = merge_profiles(
        (snap or {}).get("profile") for _, snap in exports
    )
    return {"metrics": metrics, "traces": traces, "profile": profile}
