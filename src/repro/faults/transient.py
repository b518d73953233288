"""Transient-fault extension.

The paper's Introduction distinguishes permanent from transient faults
("a transient fault affects the operation of a circuit for a smaller
period of time, typically in the order of one clock cycle") but its
design targets permanent faults only.  This extension models transients
as *self-healing* fault injections: a site goes faulty for a bounded
number of cycles and is then healed.  While active, the protected
router's mechanisms absorb it exactly like an early-life permanent
fault; after healing, the router returns to its pristine datapath.

Used by ablation benches and robustness property tests; not part of the
paper's headline reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable

import numpy as np

from ..config import RouterConfig
from .sites import FaultSite, network_sites
from .timeline import FaultTimeline, TimelineEvent


@dataclass(frozen=True)
class TransientFault:
    """One transient upset: ``site`` is faulty during [start, start+duration)."""

    cycle: int
    site: FaultSite
    duration: int = 1

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError("transient duration must be >= 1 cycle")
        if self.cycle < 0:
            raise ValueError("cycle must be >= 0")

    @property
    def heal_cycle(self) -> int:
        return self.cycle + self.duration


class TransientFaultSchedule(FaultTimeline):
    """Fault schedule that injects *and later heals* each site.

    An all-transient :class:`~repro.faults.timeline.FaultTimeline`: the
    simulator heals through the same native seam (``native_heals``,
    ``heals_due``, ``next_cycle()`` covering heal cycles), so passing
    one as ``fault_schedule=`` is all it takes.  Overlapping transients
    on the *same* site merge (the site heals at the later heal time) —
    the fault state is boolean.  No recovery log is kept: transients are
    a robustness study, not a campaign.
    """

    wants_recovery_log: ClassVar[bool] = False

    def __init__(self, transients: Iterable[TransientFault]) -> None:
        super().__init__(
            TimelineEvent(t.cycle, t.site, transient=True, duration=t.duration)
            for t in transients
        )


def random_transients(
    config: RouterConfig,
    num_routers: int,
    rate_per_cycle: float,
    cycles: int,
    duration: int = 1,
    rng: np.random.Generator | int | None = None,
    protected: bool = True,
) -> list[TransientFault]:
    """Poisson-ish transient schedule: each cycle, with probability
    ``rate_per_cycle``, one uniformly-chosen site is upset for
    ``duration`` cycles."""
    if not 0 <= rate_per_cycle <= 1:
        raise ValueError("rate must be a per-cycle probability")
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    rng = np.random.default_rng(rng)
    pool = network_sites(config, num_routers, protected, True)
    hits = rng.random(cycles) < rate_per_cycle
    out: list[TransientFault] = []
    for cycle in np.flatnonzero(hits):
        site = pool[int(rng.integers(len(pool)))]
        out.append(TransientFault(int(cycle), site, duration))
    return out
