"""``repro.observability`` — zero-cost-when-disabled introspection layer.

Three cooperating subsystems, all off by default:

* :mod:`~repro.observability.events` — a flit-lifecycle event tracer
  (inject → RC → VA → SA → XB → link → eject) with bounded ring-buffer
  storage and Chrome ``trace_event`` export
  (:mod:`~repro.observability.trace`) viewable in Perfetto;
* :mod:`~repro.observability.metrics` — a counters/gauges/histograms
  registry capturing per-router per-stage occupancy, stall causes,
  VA/SA retries, and fault-path activations, merged deterministically
  across parallel sweep shards;
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
The global configuration is mirrored into the ``REPRO_OBSERVABILITY``
environment variable so ``spawn``-started sweep workers inherit it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

from .events import (
    DEFAULT_CAPACITY,
    EVENT_KINDS,
    EVENT_SCHEMA,
    EventTracer,
)
from .metrics import DEFAULT_EDGES, Histogram, MetricsRegistry, merge_snapshots
from .profiler import StageProfiler, merge_profiles

__all__ = [
    "DEFAULT_EDGES",
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "EventTracer",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "ObservabilityConfig",
    "StageProfiler",
    "configure",
    "global_config",
    "maybe_create",
    "merge_exports",
    "merge_snapshots",
    "reset",
]

ENV_VAR = "REPRO_OBSERVABILITY"
ENV_CAPACITY_VAR = "REPRO_TRACE_CAPACITY"

#: occupancy sampling stride (cycles) when metrics are enabled
OCCUPANCY_SAMPLE_EVERY = 64

#: bucket edges for buffered-flit occupancy histograms
OCCUPANCY_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128)


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
    # simulator hooks
    # ------------------------------------------------------------------
    def on_cycle(self, sim, cycle: int) -> None:
        """Periodic in-run sampling (called once per simulated cycle).

        Samples per-router buffered-flit occupancy and per-stage VC-state
        counts every :data:`OCCUPANCY_SAMPLE_EVERY` cycles.  Sampling depends
        only on the simulation state, so it is deterministic and merges
        bit-identically across shardings.
        """
        m = self.metrics
        if m is None or cycle % OCCUPANCY_SAMPLE_EVERY:
            return
        from ..router.vc import VCState

        for router in sim.routers:
            node = router.node
            occ = router.buffered_flits()
            m.observe(
                "router.occupancy_flits", occ, OCCUPANCY_EDGES, router=node
            )
            if not router.busy:
                continue
            for in_port in router.in_ports:
                for vc in in_port.slots:
                    state = vc.state
                    if state != VCState.IDLE:
                        m.inc(
                            "router.stage_occupancy",
                            1,
                            router=node,
                            stage=state.name.lower(),
                        )

    def finalize_run(self, sim) -> None:
        """Harvest end-of-run counters from the fabric into the registry.

        Reading the per-router :class:`~repro.router.router.RouterStats`
        after the run costs nothing during simulation; only the sampled
        occupancy above needs in-loop work.
        """
        m = self.metrics
        if m is None:
            return
        for router in sim.routers:
            node = router.node
            stats = router.stats
            for name in type(stats).__dataclass_fields__:
                value = getattr(stats, name)
                if value:
                    m.inc(f"router.{name}", value, router=node)
        ns = sim.stats
        m.inc("network.packets_created", ns.packets_created)
        m.inc("network.packets_injected", ns.packets_injected)
        m.inc("network.packets_ejected", ns.packets_ejected)
        m.inc("network.flits_injected", ns.flits_injected)
        m.inc("network.flits_ejected", ns.flits_ejected)
        m.inc("network.measured_packets", ns.measured_packets)
        m.inc("sim.cycles", sim.cycle)
        m.inc("sim.faults_injected", sim.faults_injected)
        m.set_gauge("network.max_network_latency", ns.max_network_latency)
        hist = getattr(ns, "latency_hist", None)
        if hist is not None and hist.count:
            m.adopt_histogram("network.latency_cycles", hist)

    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Picklable snapshot carried on ``SimulationResult.observability``."""
        return {
            "metrics": self.metrics.snapshot() if self.metrics else None,
            "trace": self.tracer.snapshot() if self.tracer else None,
            "profile": self.profiler.snapshot() if self.profiler else None,
        }


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
