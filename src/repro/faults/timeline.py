"""Arrival-time-stamped fault timelines drawn from the FIT/MTTF models.

The paper evaluates reliability with faults fixed before cycle 0; a
*timeline* instead delivers permanent and transient fault events at
FIT-derived arrival times **while traffic is live**, so a run measures
the temporal story: detection latency, time-to-recover, packets in
flight during reconfiguration.

A :class:`FaultTimeline` is a full :class:`repro.faults.schedule.FaultSchedule`
plus the *native heal seam*: it sets ``native_heals = True`` and
implements ``heals_due(cycle)``, and both engines heal those sites
in-loop (``next_cycle()`` reports the earliest pending **event of either
kind**, so neither the object engine's skip-ahead nor a lane's fault
poll can jump over a heal).  It also sets ``wants_recovery_log = True``
so the engine running it — a ``NoCSimulator``, or the batched lane
engine for that lane — installs a
:class:`repro.faults.recovery.RecoveryMonitor`.  Both flags are read off
the schedule *object*, never off the factory that built it.

Arrival times come from the paper's Section VII FIT inventories:
:func:`fit_mean_interval_cycles` converts the per-router failure rate
into a mean inter-arrival gap in cycles, compressed by an acceleration
factor exactly like the paper compresses its 10-million-cycle means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..config import RouterConfig
from .schedule import check_timeline
from .sites import FaultSite, network_sites

#: cycles per simulated hour at the canonical 1 GHz clock
CYCLES_PER_HOUR_1GHZ = 3.6e12


@dataclass(frozen=True)
class TimelineEvent:
    """One timeline entry: a fault lands at ``cycle``.

    Permanent events never heal; transient events heal ``duration``
    cycles after landing.
    """

    cycle: int
    site: FaultSite
    transient: bool = False
    duration: int = 1

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("cycle must be >= 0")
        if self.transient and self.duration < 1:
            raise ValueError("transient duration must be >= 1 cycle")

    @property
    def heal_cycle(self) -> Optional[int]:
        return self.cycle + self.duration if self.transient else None


class FaultTimeline:
    """A sorted stream of timed fault events with native heals."""

    #: the engine heals ``heals_due`` sites in-loop
    native_heals: ClassVar[bool] = True
    #: the engine installs a RecoveryMonitor for this schedule
    wants_recovery_log: ClassVar[bool] = True

    def __init__(self, events: Iterable[TimelineEvent]) -> None:
        items = sorted(events, key=lambda e: e.cycle)
        self._events: List[TimelineEvent] = items
        self._inject_i = 0
        # Merge overlapping transients per site (boolean fault state:
        # heal at the latest heal cycle) and drop heals for sites that a
        # permanent event claims before the heal would land.
        permanent: dict[tuple, int] = {}
        for e in items:
            if not e.transient:
                key = (e.site.router, e.site.unit, e.site.port, e.site.vc)
                permanent.setdefault(key, e.cycle)
        heals: dict[tuple, int] = {}
        sites: dict[tuple, FaultSite] = {}
        for e in items:
            if not e.transient:
                continue
            key = (e.site.router, e.site.unit, e.site.port, e.site.vc)
            heal_at = e.heal_cycle
            assert heal_at is not None
            if key in permanent and permanent[key] <= heal_at:
                continue
            heals[key] = max(heals.get(key, 0), heal_at)
            sites[key] = e.site
        self._heals: List[Tuple[int, tuple]] = sorted(
            ((cycle, key) for key, cycle in heals.items()), key=lambda x: x[0]
        )
        self._heal_i = 0
        self._site_by_key = sites

    # -- FaultSchedule protocol ------------------------------------------
    def events_at(self, cycle: int) -> Iterator[FaultSite]:
        while (
            self._inject_i < len(self._events)
            and self._events[self._inject_i].cycle <= cycle
        ):
            yield self._events[self._inject_i].site
            self._inject_i += 1

    def next_cycle(self) -> Optional[int]:
        """Earliest pending event of *either* kind (inject or heal).

        Folding heals in is what makes the native seam safe under the
        event-driven loop: the wake armed from this value steps the
        exact heal cycle even when the fabric is idle.
        """
        nxt: Optional[int] = None
        if self._inject_i < len(self._events):
            nxt = self._events[self._inject_i].cycle
        if self._heal_i < len(self._heals):
            heal = self._heals[self._heal_i][0]
            nxt = heal if nxt is None else min(nxt, heal)
        return nxt

    # -- native heal seam ------------------------------------------------
    def heals_due(self, cycle: int) -> Iterator[FaultSite]:
        while self._heal_i < len(self._heals) and self._heals[self._heal_i][0] <= cycle:
            _, key = self._heals[self._heal_i]
            yield self._site_by_key[key]
            self._heal_i += 1

    @property
    def events(self) -> List[TimelineEvent]:
        """The full planned event list (copy; reporting/tests)."""
        return list(self._events)


# ----------------------------------------------------------------------
# FIT-derived arrival model
# ----------------------------------------------------------------------
def router_fit(config: RouterConfig, num_routers: int, protected: bool) -> float:
    """Per-router failure rate (FIT): the sum of failure rates (SOFR) of
    the Section VII stage inventories — baseline stages, plus the
    correction circuitry for the protected router."""
    from ..reliability.stages import RouterGeometry, baseline_stages, correction_stages, total_fit

    geom = RouterGeometry.from_mesh(num_routers, num_ports=config.num_ports, num_vcs=config.num_vcs)
    fit = total_fit(baseline_stages(geom))
    if protected:
        fit += total_fit(correction_stages(geom))
    return fit


def fit_mean_interval_cycles(
    config: RouterConfig,
    num_routers: int,
    *,
    cycles_per_hour: float = CYCLES_PER_HOUR_1GHZ,
    acceleration: float = 1.0,
    protected: bool = True,
) -> float:
    """Mean fault inter-arrival gap in cycles from the Section VII FIT model.

    The network-level arrival rate is ``num_routers`` x
    :func:`router_fit`.  ``acceleration`` compresses simulated time the
    same way the paper's 10-million-cycle mean compresses its FIT-scale
    arrivals — a campaign picks it so a run's horizon sees the intended
    number of events, and the degradation report un-compresses when
    joining back to real hours.
    """
    if num_routers < 1:
        raise ValueError("num_routers must be >= 1")
    if acceleration <= 0 or cycles_per_hour <= 0:
        raise ValueError("acceleration and cycles_per_hour must be positive")
    fit = router_fit(config, num_routers, protected)
    # FIT = failures per 1e9 device-hours -> per-network failures/hour
    rate_per_hour = num_routers * fit / 1e9
    mean_hours = 1.0 / rate_per_hour
    return mean_hours * cycles_per_hour / acceleration


def random_timeline(
    config: RouterConfig,
    num_routers: int,
    *,
    events: int,
    mean_interval: float,
    transient_fraction: float = 0.0,
    transient_duration: int = 64,
    rng: np.random.Generator | int | None = None,
    protected: bool = True,
    avoid_failure: bool = True,
    first_event_at: int = 0,
) -> FaultTimeline:
    """Draw one seeded fault timeline.

    Inter-arrival gaps are exponential with the given mean (a Poisson
    arrival process — the constant-rate limit of the FIT model that
    :func:`fit_mean_interval_cycles` summarizes).  Each event is
    transient with probability ``transient_fraction``.  Sites are drawn
    without replacement; ``avoid_failure=True`` keeps every router
    tolerable were all events permanent (conservative for transients),
    reusing the Section VIII failure predicate.
    """
    check_timeline(
        events, mean_interval, transient_fraction, transient_duration, first_event_at
    )
    gen = np.random.default_rng(rng)
    pool = network_sites(config, num_routers, protected, True)
    if events > len(pool):
        raise ValueError(
            f"cannot place {events} distinct events over {len(pool)} sites"
        )
    order = gen.permutation(len(pool))
    if avoid_failure:
        from .injector import RandomFaultSchedule

        picked = RandomFaultSchedule._pick_tolerable(
            config, num_routers, pool, order, events
        )
    else:
        picked = [pool[int(i)] for i in order[:events]]
    gaps = gen.exponential(mean_interval, size=events)
    cycles = first_event_at + np.cumsum(gaps).astype(np.int64)
    kinds = gen.random(events) < transient_fraction
    return FaultTimeline(
        TimelineEvent(
            int(c), site, transient=bool(t), duration=transient_duration
        )
        for c, site, t in zip(cycles, picked, kinds)
    )
