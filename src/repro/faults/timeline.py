"""The fault schedule: timed fault events, drawn or listed by hand.

The paper's fault model is one idea — a site fails at a cycle (Sections
VIII-IX) — and the transient extension lets it heal later.  A
:class:`FaultTimeline` is that idea as the one class that implements the
:class:`repro.faults.schedule.FaultSchedule` protocol:
``TimelineEvent(cycle, site)`` is a permanent fault and
``TimelineEvent(cycle, site, transient=True, duration=d)`` one that
heals ``d`` cycles after landing.  Both engines heal the ``heals_due``
sites and then inject the ``events_at`` ones, on the cycles
``next_cycle()`` names (the earliest pending event of either kind, so
neither the object engine's skip-ahead nor a lane's fault poll can jump
over a heal).  ``recovery_log=True`` makes the engine running it — a
``NoCSimulator``, or the batched lane engine for that lane — install a
:class:`repro.faults.recovery.RecoveryMonitor`, whose summary lands on
``SimulationResult.recovery``.

Drawn timelines: :func:`random_timeline` (Poisson arrivals at a mean
taken from the Section VII FIT inventories via
:func:`fit_mean_interval_cycles`, compressed by an acceleration factor
exactly like the paper compresses its 10-million-cycle means),
:func:`random_transients` (per-cycle upsets), and
:class:`repro.faults.injector.RandomFaultSchedule` (the paper's uniform
inter-fault gaps).  All of them pick sites through :func:`draw_sites`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

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
    """A sorted stream of timed fault landings and transient heals."""

    def __init__(
        self, events: Iterable[TimelineEvent], *, recovery_log: bool = False
    ) -> None:
        items = sorted(events, key=lambda e: e.cycle)
        self._events: List[TimelineEvent] = items
        self._inject_i = 0
        #: the engine running this schedule installs a RecoveryMonitor
        self.recovery_log = recovery_log
        # Merge overlapping transients per site (boolean fault state:
        # heal at the latest heal cycle) and drop heals for sites that a
        # permanent event claims before the heal would land.
        permanent: dict[tuple, int] = {}
        for e in items:
            if not e.transient:
                permanent.setdefault(_key(e.site), e.cycle)
        heals: dict[tuple, int] = {}
        sites: dict[tuple, FaultSite] = {}
        for e in items:
            heal_at = e.heal_cycle
            if heal_at is None:
                continue
            key = _key(e.site)
            if key in permanent and permanent[key] <= heal_at:
                continue
            heals[key] = max(heals.get(key, 0), heal_at)
            sites[key] = e.site
        self._heals: List[Tuple[int, tuple]] = sorted(
            ((cycle, key) for key, cycle in heals.items()), key=lambda x: x[0]
        )
        self._heal_i = 0
        self._site_by_key = sites

    def events_at(self, cycle: int) -> Iterator[FaultSite]:
        """Consume and yield the sites that land at (or before) ``cycle``."""
        while (
            self._inject_i < len(self._events)
            and self._events[self._inject_i].cycle <= cycle
        ):
            yield self._events[self._inject_i].site
            self._inject_i += 1

    def heals_due(self, cycle: int) -> Iterator[FaultSite]:
        """Consume and yield the sites that heal at (or before) ``cycle``."""
        while self._heal_i < len(self._heals) and self._heals[self._heal_i][0] <= cycle:
            _, key = self._heals[self._heal_i]
            yield self._site_by_key[key]
            self._heal_i += 1

    def next_cycle(self) -> Optional[int]:
        """Earliest pending event of *either* kind (landing or heal), or
        ``None`` when exhausted: the only cycles an engine polls."""
        nxt: Optional[int] = None
        if self._inject_i < len(self._events):
            nxt = self._events[self._inject_i].cycle
        if self._heal_i < len(self._heals):
            heal = self._heals[self._heal_i][0]
            nxt = heal if nxt is None else min(nxt, heal)
        return nxt

    @property
    def events(self) -> List[TimelineEvent]:
        """The full planned event list (copy; reporting/tests)."""
        return list(self._events)


def _key(site: FaultSite) -> tuple:
    return (site.router, site.unit, site.port, site.vc)


# ----------------------------------------------------------------------
# drawing timelines
# ----------------------------------------------------------------------
def draw_sites(
    config: RouterConfig,
    num_routers: int,
    count: int,
    gen: np.random.Generator,
    *,
    protected: bool = True,
    include_va2: bool = True,
    avoid_failure: bool = False,
) -> List[FaultSite]:
    """``count`` distinct sites in one random order over the network.

    ``avoid_failure=True`` draws greedily, skipping any site that would
    bring its router to its Section VIII failure condition, so every
    protected router *tolerates* the set.  Its router tolerated the set
    before the draw and the predicate's components share no site, so only
    the component holding the drawn site can fail: that one rule is
    checked, and a site of no component is always kept.
    """
    pool = network_sites(config, num_routers, protected, include_va2)
    if count > len(pool):
        raise ValueError(f"cannot place {count} distinct faults over {len(pool)} sites")
    order = gen.permutation(len(pool))
    if not avoid_failure:
        return [pool[int(i)] for i in order[:count]]
    from ..core.failure import failure_components
    from .sites import RouterFaultState

    rule = {
        (s.unit, s.port, s.vc): c.failed
        for c in failure_components(config, exact=True)
        for s in c.sites
    }
    states = [RouterFaultState(config) for _ in range(num_routers)]
    picked: List[FaultSite] = []
    for i in order:
        if len(picked) == count:
            break
        site = pool[int(i)]
        failed = rule.get((site.unit, site.port, site.vc))
        if failed is not None:
            st = states[site.router]
            st.inject(site)
            if failed(st):
                st.heal(site)
                continue
        picked.append(site)
    if len(picked) < count:
        raise ValueError(
            f"could only place {len(picked)} of {count} faults "
            "without failing a router; lower num_faults"
        )
    return picked


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
    """Draw one seeded fault timeline, with a recovery log.

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
    picked = draw_sites(
        config, num_routers, events, gen, protected=protected, avoid_failure=avoid_failure
    )
    gaps = gen.exponential(mean_interval, size=events)
    cycles = first_event_at + np.cumsum(gaps).astype(np.int64)
    kinds = gen.random(events) < transient_fraction
    return FaultTimeline(
        (
            TimelineEvent(int(c), site, transient=bool(t), duration=transient_duration)
            for c, site, t in zip(cycles, picked, kinds)
        ),
        recovery_log=True,
    )


def random_transients(
    config: RouterConfig,
    num_routers: int,
    rate_per_cycle: float,
    cycles: int,
    duration: int = 1,
    rng: np.random.Generator | int | None = None,
    protected: bool = True,
) -> List[TimelineEvent]:
    """Poisson-ish transient upsets: each cycle, with probability
    ``rate_per_cycle``, one uniformly-chosen site is upset for
    ``duration`` cycles (sites may repeat; overlapping upsets of one
    site merge in the :class:`FaultTimeline` built from them)."""
    if not 0 <= rate_per_cycle <= 1:
        raise ValueError("rate must be a per-cycle probability")
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    gen = np.random.default_rng(rng)
    pool = network_sites(config, num_routers, protected, True)
    hits = gen.random(cycles) < rate_per_cycle
    return [
        TimelineEvent(
            int(cycle), pool[int(gen.integers(len(pool)))], transient=True, duration=duration
        )
        for cycle in np.flatnonzero(hits)
    ]
