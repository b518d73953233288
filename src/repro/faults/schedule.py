"""Unified ``FaultSchedule`` API: the protocol and the timeline spec.

One explicit contract for everything that injects faults:

* :class:`FaultSchedule` — a runtime-checkable :class:`typing.Protocol`
  with the two methods every schedule implements (the simulator calls
  them directly and rejects objects missing one):
  ``events_at(cycle)`` (the consuming event iterator) and
  ``next_cycle()`` (the event-engine wake lookahead).
* :class:`TimelineSpec` — the frozen, JSON-shaped description of a fault
  timeline a ``CampaignConfig`` holds.  Scalars only, so it round-trips
  through the service's ``build_config``/``canonical`` machinery
  unchanged and cache-keys soundly.

A live schedule is built by calling its class or drawing function
(``RandomFaultSchedule``, ``random_timeline``, ...) directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

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


def check_timeline(
    events: int, mean_interval: float, transient_fraction: float,
    transient_duration: int, first_event_at: int,
) -> None:
    """Reject timeline scalars no draw can honour (``ValueError``)."""
    if events < 0:
        raise ValueError("events must be >= 0")
    if mean_interval <= 0:
        raise ValueError("mean_interval must be positive")
    if not 0 <= transient_fraction <= 1:
        raise ValueError("transient_fraction must be a probability")
    if transient_fraction > 0 and transient_duration < 1:
        raise ValueError("transient_duration must be >= 1 cycle")
    if first_event_at < 0:
        raise ValueError("first_event_at must be >= 0")


@dataclass(frozen=True)
class TimelineSpec:
    """FIT-derived online fault timeline (permanent + transient events).

    Built by :func:`repro.faults.timeline.random_timeline`:
    exponential inter-arrival gaps with the given mean (cycles), each
    event transient with probability ``transient_fraction`` (healing
    ``transient_duration`` cycles after landing).  Checked on
    construction, so a request carrying a bad spec is refused before it
    computes.
    """

    events: int = 8
    mean_interval: float = 2000.0
    transient_fraction: float = 0.25
    transient_duration: int = 64
    seed: int = 0
    protected: bool = True
    avoid_failure: bool = True
    first_event_at: int = 0

    def __post_init__(self) -> None:
        check_timeline(
            self.events, self.mean_interval, self.transient_fraction,
            self.transient_duration, self.first_event_at,
        )
