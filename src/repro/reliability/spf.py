"""Silicon Protection Factor (paper Section VIII).

SPF = (mean number of faults to cause failure) / (1 + area overhead).

The paper computes the mean as the average of the *minimum* and *maximum*
number of faults that cause failure.  Per stage (P-port, V-VC router):

========= ============================== ==============================
Stage     max tolerated                  min to cause failure
========= ============================== ==============================
RC        P   (one per port)             2 (primary + duplicate, same port)
VA        P*(V-1)                        V (all sets of one port)
SA        P   (one arbiter per port)     2 (arbiter + bypass, same port)
XB        2   (paper's conservative      2 (normal + secondary path)
          figure; exact analysis gives
          3 for P=5 — reported separately)
========= ============================== ==============================

For the paper's 5x5, 4-VC router: max tolerated = 5 + 15 + 5 + 2 = 27,
max to failure = 28, min to failure = 2, mean = 15, and with the 31 % area
overhead SPF = 15 / 1.31 = 11.4 (Table III).

:func:`monte_carlo_faults_to_failure` cross-checks the analytical mean by
injecting faults in random order into the Section VIII failure predicates
until the router fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import RouterConfig
from ..core.failure import protected_router_failed
from ..core.ft_crossbar import max_tolerable_mux_faults
from ..faults.sites import RouterFaultState, enumerate_sites


@dataclass(frozen=True)
class StageFaultBounds:
    """Min-to-failure and max-tolerated fault counts of one stage."""

    stage: str
    max_tolerated: int
    min_to_failure: int


@dataclass(frozen=True)
class SPFResult:
    """The Section VIII-E accounting for one router configuration."""

    stages: tuple[StageFaultBounds, ...]
    max_tolerated: int
    max_to_failure: int
    min_to_failure: int
    mean_faults_to_failure: float
    area_overhead: float
    spf: float

    def stage(self, name: str) -> StageFaultBounds:
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(name)


def stage_fault_bounds(
    config: RouterConfig | None = None, exact_xb: bool = False
) -> list[StageFaultBounds]:
    """Per-stage bounds per Section VIII (paper accounting by default)."""
    config = config or RouterConfig()
    P, V = config.num_ports, config.num_vcs
    xb_max = max_tolerable_mux_faults(P) if exact_xb else 2
    return [
        StageFaultBounds("RC", max_tolerated=P, min_to_failure=2),
        StageFaultBounds("VA", max_tolerated=P * (V - 1), min_to_failure=V),
        StageFaultBounds("SA", max_tolerated=P, min_to_failure=2),
        StageFaultBounds("XB", max_tolerated=xb_max, min_to_failure=2),
    ]


def analyze_spf(
    area_overhead: float,
    config: RouterConfig | None = None,
    exact_xb: bool = False,
) -> SPFResult:
    """Compute SPF for a router config and a given area overhead fraction.

    ``area_overhead`` is the correction circuitry's area as a fraction of
    the baseline router (the paper uses 0.31, including fault detection).
    """
    if area_overhead < 0:
        raise ValueError("area overhead must be >= 0")
    config = config or RouterConfig()
    bounds = stage_fault_bounds(config, exact_xb=exact_xb)
    max_tol = sum(b.max_tolerated for b in bounds)
    max_fail = max_tol + 1
    min_fail = min(b.min_to_failure for b in bounds)
    mean = (min_fail + max_fail) / 2
    return SPFResult(
        stages=tuple(bounds),
        max_tolerated=max_tol,
        max_to_failure=max_fail,
        min_to_failure=min_fail,
        mean_faults_to_failure=mean,
        area_overhead=area_overhead,
        spf=mean / (1.0 + area_overhead),
    )


def spf_vs_vc_count(
    overheads: dict[int, float],
    num_ports: int = 5,
    exact_xb: bool = False,
) -> dict[int, SPFResult]:
    """Section VIII-E sensitivity: SPF for each VC count in ``overheads``.

    ``overheads`` maps VC count -> area-overhead fraction (typically from
    :func:`repro.synthesis.area.area_overhead`).
    """
    out = {}
    for vcs, ovh in sorted(overheads.items()):
        cfg = RouterConfig(num_ports=num_ports, num_vcs=vcs)
        out[vcs] = analyze_spf(ovh, cfg, exact_xb=exact_xb)
    return out


@dataclass(frozen=True)
class MonteCarloSPF:
    """Empirical faults-to-failure distribution."""

    mean: float
    std: float
    minimum: int
    maximum: int
    samples: np.ndarray
    #: shard/timing breakdown when run through the parallel sweep engine
    sweep: object = None

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.samples, q))


def _mc_trial_chunk(
    config: RouterConfig,
    seeds: list[np.random.SeedSequence],
    exact: bool,
    include_va2: bool,
) -> np.ndarray:
    """One worker chunk of the faults-to-failure campaign.

    Each trial draws its permutation from its own spawned child seed, so
    the counts depend only on the root seed and the trial index — never
    on how trials are chunked across workers.
    """
    sites = list(
        enumerate_sites(config, protected=True, include_va2=include_va2)
    )
    counts = np.empty(len(seeds), dtype=np.int64)
    for t, seed in enumerate(seeds):
        order = np.random.default_rng(seed).permutation(len(sites))
        state = RouterFaultState(config)
        n = 0
        for i in order:
            state.inject(sites[int(i)])
            n += 1
            if protected_router_failed(state, exact=exact):
                break
        counts[t] = n
    return counts


def monte_carlo_faults_to_failure(
    config: RouterConfig | None = None,
    trials: int = 2000,
    rng: np.random.Generator | int | None = None,
    exact: bool = False,
    include_va2: bool = False,
    jobs: int | None = None,
) -> MonteCarloSPF:
    """Inject faults in random order until the Section VIII predicates fail.

    ``include_va2`` matches the paper's SPF accounting when False (the
    paper's Section VIII analysis covers RC/VA1/SA1/XB sites); set it True
    together with ``exact=True`` for the extended model.

    ``jobs`` shards the trials across worker processes (0 = all cores).
    Trials are seeded per-trial via ``SeedSequence.spawn``, so the result
    is bit-identical for any ``jobs`` value.
    """
    # imported lazily: repro.experiments imports this module at startup
    from ..experiments.parallel import run_trials

    if trials < 1:
        raise ValueError("need at least one trial")
    cfg = config or RouterConfig()
    counts, report = run_trials(
        _mc_trial_chunk, lambda seeds: (cfg, seeds, exact, include_va2),
        trials, rng, jobs,
    )
    return MonteCarloSPF(
        mean=float(counts.mean()),
        std=float(counts.std()),
        minimum=int(counts.min()),
        maximum=int(counts.max()),
        samples=counts,
        sweep=report,
    )
