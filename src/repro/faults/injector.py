"""Fault-injection schedules.

The paper (Section IX): "The ideal way to simulate faults is to inject
them based on the FIT values ... Since the derived FIT values are very
small, the applications need to run for a long time ... To accelerate
simulations, we inject faults based on a uniform random variable with a
mean of 10 million cycles."

Python cycle budgets are smaller still, so :class:`RandomFaultSchedule`
takes the mean inter-fault interval as a parameter; experiment configs
scale it so each run sees a comparable *number* of faults to the paper's
runs (documented per experiment in EXPERIMENTS.md).  A deterministic
:class:`ExplicitFaultSchedule` supports exact test scenarios.

Every class here implements the :class:`repro.faults.schedule.FaultSchedule`
protocol (``events_at`` / ``next_cycle``).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, cast

import numpy as np

from ..config import RouterConfig
from .sites import FaultSite, network_sites


class ExplicitFaultSchedule:
    """Injects an explicit list of ``(cycle, FaultSite)`` pairs."""

    def __init__(self, schedule: Iterable[tuple[int, FaultSite]]) -> None:
        items = sorted(schedule, key=lambda cs: cs[0])
        self._cycles = [c for c, _ in items]
        self._sites = [s for _, s in items]
        self._next = 0

    def events_at(self, cycle: int) -> Iterator[FaultSite]:
        """Consume and yield the sites due at (or before) ``cycle``."""
        while self._next < len(self._cycles) and self._cycles[self._next] <= cycle:
            yield self._sites[self._next]
            self._next += 1

    def next_cycle(self) -> Optional[int]:
        """Cycle of the next pending fault, or ``None`` when exhausted.

        The event-driven engine arms a wake event here so skip-ahead
        never jumps over a fault arrival.
        """
        if self._next < len(self._cycles):
            return self._cycles[self._next]
        return None

    @property
    def remaining(self) -> int:
        return len(self._cycles) - self._next

    @property
    def planned(self) -> Sequence[tuple[int, FaultSite]]:
        return list(zip(self._cycles, self._sites))


class RandomFaultSchedule(ExplicitFaultSchedule):
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
        rng = np.random.default_rng(rng)
        pool = network_sites(config, num_routers, protected, include_va2)
        if num_faults > len(pool):
            raise ValueError(
                f"cannot inject {num_faults} distinct faults into "
                f"{len(pool)} sites"
            )
        order = rng.permutation(len(pool))
        if avoid_failure:
            picked = self._pick_tolerable(
                config, num_routers, pool, order, num_faults
            )
        else:
            picked = [pool[int(i)] for i in order[:num_faults]]
        gaps = rng.uniform(0, 2 * mean_interval, size=num_faults)
        cycles: np.ndarray = np.cumsum(gaps).astype(np.int64)
        if first_fault_at is not None and num_faults > 0:
            cycles = cycles - cycles[0] + first_fault_at
        schedule = list(zip((int(c) for c in cycles), picked))
        super().__init__(schedule)

    @staticmethod
    def _pick_tolerable(
        config: RouterConfig,
        num_routers: int,
        pool: Sequence[FaultSite],
        order: np.ndarray,
        num_faults: int,
    ) -> list[FaultSite]:
        """Greedy draw skipping any site that would fail its router."""
        from ..core.failure import protected_router_failed
        from .sites import RouterFaultState

        states = [RouterFaultState(config) for _ in range(num_routers)]
        picked: list[FaultSite] = []
        for i in order:
            if len(picked) == num_faults:
                break
            site = pool[int(i)]
            st = states[site.router]
            st.inject(site)
            if protected_router_failed(st, exact=True):
                st.heal(site)
                continue
            picked.append(site)
        if len(picked) < num_faults:
            raise ValueError(
                f"could only place {len(picked)} of {num_faults} faults "
                "without failing a router; lower num_faults"
            )
        return picked


class NullFaultSchedule:
    """No faults (fault-free runs)."""

    def events_at(self, cycle: int) -> Iterator[FaultSite]:
        return iter(())

    def next_cycle(self) -> Optional[int]:
        return None


def spawn_lane_injectors(
    config: RouterConfig,
    num_routers: int,
    lanes: int,
    mean_interval: float,
    num_faults: int,
    rng: np.random.Generator | np.random.SeedSequence | int | None = None,
    **kwargs: Any,
) -> list[RandomFaultSchedule]:
    """One independent random fault schedule per lane of a batched sweep.

    Child seeds come from :meth:`numpy.random.SeedSequence.spawn` — the
    same derivation :func:`repro.experiments.parallel.spawn_seeds` uses
    for sweep points — so lane ``i``'s schedule depends only on the root
    entropy and the lane index, never on how lanes are grouped into
    :class:`repro.network.batched.BatchedLaneEngine` chunks or worker
    processes.  ``kwargs`` pass through to :class:`RandomFaultSchedule`
    (``protected``, ``first_fault_at``, ``avoid_failure``, ...).
    """
    seq: np.random.SeedSequence
    if isinstance(rng, np.random.Generator):
        seq = cast(np.random.SeedSequence, rng.bit_generator.seed_seq)
    elif isinstance(rng, np.random.SeedSequence):
        seq = rng
    else:
        seq = np.random.SeedSequence(rng)
    return [
        RandomFaultSchedule(
            config, num_routers, mean_interval, num_faults,
            rng=np.random.default_rng(child), **kwargs,
        )
        for child in seq.spawn(lanes)
    ]
