"""Unified ``FaultSchedule`` API: protocol, spec dataclasses, registry.

One explicit contract for everything that injects faults:

* :class:`FaultSchedule` — a runtime-checkable :class:`typing.Protocol`
  with the two methods every schedule implements (the simulator calls
  them directly and rejects objects missing one):
  ``events_at(cycle)`` (the consuming event iterator) and
  ``next_cycle()`` (the event-engine wake lookahead).
* **Spec dataclasses** — frozen, JSON-shaped descriptions of a schedule
  (:class:`ScheduledSpec`, :class:`RandomSpec`, :class:`TransientSpec`,
  :class:`NullSpec`, and :class:`repro.faults.timeline.TimelineSpec`).
  They hold only scalars and tuples, so they round-trip through the
  service's ``build_config``/``canonical`` machinery unchanged and
  cache-key soundly.
* :func:`make_schedule` — a name-keyed factory registry turning a spec
  (plus the network geometry where needed) into a live schedule object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..config import RouterConfig
from .sites import FaultSite, FaultUnit


@runtime_checkable
class FaultSchedule(Protocol):
    """Anything that injects faults into a running simulation.

    ``events_at(cycle)`` yields the :class:`FaultSite` events due at (or
    before) ``cycle`` and consumes them — the simulator calls it once
    per stepped cycle.  ``next_cycle()`` returns the cycle of the
    earliest not-yet-delivered event (or ``None`` when exhausted); the
    event-driven engine turns it into a calendar wake so skip-ahead
    never jumps over a fault arrival.

    Schedules that also *heal* sites mid-run (transient upsets, fault
    timelines) additionally set ``native_heals = True`` and implement
    ``heals_due(cycle)``; see :class:`repro.faults.timeline.FaultTimeline`.
    Both engines read that flag (and ``wants_recovery_log``) off the
    schedule object, so a schedule heals wherever it runs.
    """

    def events_at(self, cycle: int) -> Iterator[FaultSite]:
        """Consume and yield the fault sites due at ``cycle``."""
        ...

    def next_cycle(self) -> Optional[int]:
        """Cycle of the next pending event, or ``None`` when exhausted."""
        ...


# ----------------------------------------------------------------------
# site-token helpers shared by the schedule classes and the recovery log
# ----------------------------------------------------------------------
def site_token(site: FaultSite) -> str:
    """Canonical string form of a :class:`FaultSite`."""
    return f"{site.router}:{site.unit.value}:{site.port}:{site.vc}"


def site_tuple(site: FaultSite) -> Tuple[int, str, int, int]:
    """JSON-ready ``(router, unit, port, vc)`` form of a site."""
    return (site.router, site.unit.value, site.port, site.vc)


def site_from_tuple(row: Iterable[Any]) -> FaultSite:
    """Rebuild a :class:`FaultSite` from its JSON-ready tuple form."""
    router, unit, port, vc = row
    return FaultSite(int(router), FaultUnit(str(unit)), int(port), int(vc))


# ----------------------------------------------------------------------
# frozen spec dataclasses (JSON-shaped; scalars and tuples only)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduledSpec:
    """Explicit event list: ``(cycle, router, unit, port, vc)`` rows."""

    name: ClassVar[str] = "scheduled"
    events: Tuple[Tuple[int, int, str, int, int], ...] = ()

    def __post_init__(self) -> None:
        rows = tuple(
            (int(c), int(r), str(u), int(p), int(v))
            for c, r, u, p, v in self.events
        )
        object.__setattr__(self, "events", rows)


@dataclass(frozen=True)
class RandomSpec:
    """Paper-style pre-drawn random schedule (Section IX acceleration)."""

    name: ClassVar[str] = "random"
    mean_interval: float = 1000.0
    num_faults: int = 1
    seed: int = 0
    protected: bool = True
    first_fault_at: Optional[int] = None
    include_va2: bool = True
    avoid_failure: bool = False


@dataclass(frozen=True)
class TransientSpec:
    """Poisson-ish self-healing upsets (see ``random_transients``)."""

    name: ClassVar[str] = "transient"
    rate_per_cycle: float = 0.001
    cycles: int = 1000
    duration: int = 1
    seed: int = 0
    protected: bool = True


@dataclass(frozen=True)
class NullSpec:
    """No faults (fault-free runs)."""

    name: ClassVar[str] = "none"


@dataclass(frozen=True)
class TimelineSpec:
    """FIT-derived online fault timeline (permanent + transient events).

    Built by :func:`repro.faults.timeline.random_timeline`:
    exponential inter-arrival gaps with the given mean (cycles), each
    event transient with probability ``transient_fraction`` (healing
    ``transient_duration`` cycles after landing).
    """

    name: ClassVar[str] = "timeline"
    events: int = 8
    mean_interval: float = 2000.0
    transient_fraction: float = 0.25
    transient_duration: int = 64
    seed: int = 0
    protected: bool = True
    avoid_failure: bool = True
    first_event_at: int = 0


# ----------------------------------------------------------------------
# name-keyed factory registry
# ----------------------------------------------------------------------
#: schedule name -> spec dataclass (public, for service introspection)
SCHEDULE_SPECS: Dict[str, type] = {}
_BUILDERS: Dict[str, Callable[..., Any]] = {}
_SPEC_NAMES: Dict[type, str] = {}


def register_schedule(
    name: str, spec_type: type
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register ``spec_type`` + its builder under ``name`` (decorator).

    The builder is called as ``builder(spec, config=..., num_routers=...)``
    and must return a :class:`FaultSchedule`.  Registration happens at
    import of the defining module; ``repro.faults`` imports every
    schedule module, so the registry is complete once the package is.
    """

    def deco(builder: Callable[..., Any]) -> Callable[..., Any]:
        if name in _BUILDERS:
            raise ValueError(f"schedule {name!r} already registered")
        _BUILDERS[name] = builder
        SCHEDULE_SPECS[name] = spec_type
        _SPEC_NAMES[spec_type] = name
        return builder

    return deco


def schedule_spec(name: str, payload: Optional[Mapping[str, Any]] = None) -> Any:
    """Build the spec dataclass registered under ``name`` from a mapping.

    The JSON-side door: list values coerce to tuples (JSON has no
    tuples), unknown names/fields raise ``ValueError``.
    """
    cls = SCHEDULE_SPECS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown schedule {name!r}; available: {sorted(SCHEDULE_SPECS)}"
        )
    payload = dict(payload or {})
    coerced = {
        k: tuple(tuple(x) if isinstance(x, list) else x for x in v)
        if isinstance(v, list)
        else v
        for k, v in payload.items()
    }
    return cls(**coerced)


def make_schedule(
    spec: Any,
    *,
    config: Optional[RouterConfig] = None,
    num_routers: Optional[int] = None,
) -> Any:
    """Build a live :class:`FaultSchedule` from a frozen spec.

    Specs that draw sites from the fabric (``random``, ``transient``,
    ``timeline``) need the router ``config`` and ``num_routers``; the
    purely explicit ones (``scheduled``, ``none``) ignore them.
    """
    name = _SPEC_NAMES.get(type(spec))
    if name is None:
        raise TypeError(
            f"not a registered schedule spec: {type(spec).__name__} "
            f"(known: {sorted(SCHEDULE_SPECS)})"
        )
    return _BUILDERS[name](spec, config=config, num_routers=num_routers)


def spec_name(spec: Any) -> Optional[str]:
    """Registry name of a spec instance, or ``None`` if unregistered."""
    return _SPEC_NAMES.get(type(spec))


def _require_geometry(
    name: str, config: Optional[RouterConfig], num_routers: Optional[int]
) -> Tuple[RouterConfig, int]:
    if config is None or num_routers is None:
        raise ValueError(
            f"schedule {name!r} draws sites from the fabric: pass "
            "config= and num_routers= to make_schedule()"
        )
    return config, num_routers
