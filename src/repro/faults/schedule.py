"""Unified ``FaultSchedule`` API: the protocol and the timeline spec.

One explicit contract for everything that injects faults:

* :class:`FaultSchedule` — a runtime-checkable :class:`typing.Protocol`
  with the three methods a schedule implements (the simulator calls
  them directly and rejects objects missing one):
  ``events_at(cycle)`` and ``heals_due(cycle)`` (the consuming landing
  and heal iterators) and ``next_cycle()`` (the only cycles an engine
  polls).
* :class:`TimelineSpec` — the frozen, JSON-shaped description of a fault
  timeline a ``CampaignConfig`` holds.  Scalars only, so it round-trips
  through the service's ``build_config``/``canonical`` machinery
  unchanged and cache-keys soundly.

:class:`repro.faults.timeline.FaultTimeline` is the one implementation;
a live schedule is one listed by hand or drawn (``RandomFaultSchedule``,
``random_timeline``, ``random_transients``).
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
    """Anything that injects (and heals) faults in a running simulation.

    ``next_cycle()`` returns the cycle of the earliest not-yet-delivered
    event, landing or heal (``None`` when exhausted).  Both engines poll
    a schedule only on the cycles it names — and the object engine's
    skip-ahead never jumps past one — so on those cycles they first heal
    the sites ``heals_due(cycle)`` yields and then inject the ones
    ``events_at(cycle)`` yields, each consuming what it yields.  A
    schedule may also set ``recovery_log = True`` to have the engine
    keep a :class:`repro.faults.recovery.RecoveryMonitor` for the run.
    """

    def events_at(self, cycle: int) -> Iterator[FaultSite]:
        """Consume and yield the fault sites that land at ``cycle``."""
        ...

    def heals_due(self, cycle: int) -> Iterator[FaultSite]:
        """Consume and yield the fault sites that heal at ``cycle``."""
        ...

    def next_cycle(self) -> Optional[int]:
        """Cycle of the next pending event, or ``None`` when exhausted."""
        ...


# ----------------------------------------------------------------------
# site-token helpers shared by the schedules and the recovery log
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
