"""The paper's random fault draw.

The paper (Section IX): "The ideal way to simulate faults is to inject
them based on the FIT values ... Since the derived FIT values are very
small, the applications need to run for a long time ... To accelerate
simulations, we inject faults based on a uniform random variable with a
mean of 10 million cycles."

Python cycle budgets are smaller still, so :class:`RandomFaultSchedule`
takes the mean inter-fault interval as a parameter; experiment configs
scale it so each run sees a comparable *number* of faults to the paper's
runs (documented per experiment in EXPERIMENTS.md).  It is a
:class:`~repro.faults.timeline.FaultTimeline` of permanent events; an
exact scenario is a ``FaultTimeline`` listed by hand.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import RouterConfig
from .timeline import FaultTimeline, TimelineEvent, draw_sites


class RandomFaultSchedule(FaultTimeline):
    """Pre-draws a random schedule over a network's fault sites.

    Inter-fault gaps are ``Uniform(0, 2*mean)`` (mean = ``mean_interval``),
    matching the paper's "uniform random variable with a mean of 10 million
    cycles".  Sites are drawn without replacement across the whole network,
    uniformly over protectable component instances.

    ``protected`` controls whether correction-circuitry sites can also be
    hit (they can in the paper's model — Section VIII counts e.g. a fault
    "in the original and the other in the duplicate RC unit").

    ``avoid_failure=True`` draws only fault combinations that every
    protected router *tolerates* (no router reaches its Section VIII
    failure condition).  The paper's latency study (Section IX) measures
    the overhead of tolerated faults — a failed router would block traffic
    and measure availability, not latency — so the Figure 7/8 harnesses
    use this mode.
    """

    def __init__(
        self,
        config: RouterConfig,
        num_routers: int,
        mean_interval: float,
        num_faults: int,
        rng: np.random.Generator | int | None = None,
        protected: bool = True,
        first_fault_at: Optional[int] = None,
        include_va2: bool = True,
        avoid_failure: bool = False,
    ) -> None:
        if mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        if num_faults < 0:
            raise ValueError("num_faults must be >= 0")
        gen = np.random.default_rng(rng)
        picked = draw_sites(
            config, num_routers, num_faults, gen,
            protected=protected, include_va2=include_va2, avoid_failure=avoid_failure,
        )
        gaps = gen.uniform(0, 2 * mean_interval, size=num_faults)
        cycles: np.ndarray = np.cumsum(gaps).astype(np.int64)
        if first_fault_at is not None and num_faults > 0:
            cycles = cycles - cycles[0] + first_fault_at
        super().__init__(TimelineEvent(int(c), site) for c, site in zip(cycles, picked))
