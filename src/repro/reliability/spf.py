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

:func:`faults_to_failure` gives the exact law of the faults a uniformly
random fault order lands before the Section VIII predicates fail: mean
9.286 for that router, support 2 .. 34.  The paper's 28 caps XB at 2
tolerated faults and counts neither SA2 nor correction-circuitry faults;
the predicate tolerates 33 sites at most, 8 of them in the XB ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from ..config import RouterConfig
from ..core.failure import FailureComponent, failure_components
from ..core.ft_crossbar import max_tolerable_mux_faults
from ..faults.sites import FaultSite, RouterFaultState, enumerate_sites


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
class FaultsToFailure:
    """Exact law of T, the number of faults a uniformly random fault order
    lands on the router up to and including the one that fails it."""

    #: ``tolerable[k]``: how many k-fault sets the router survives (N_k)
    tolerable: tuple[int, ...]
    #: ``pmf[k]`` = P(T = k), k = 0 .. number of sites; sums to exactly 1
    pmf: tuple[Fraction, ...]
    mean: float
    minimum: int
    maximum: int


def _tolerable_by_size(
    component: FailureComponent, pool: frozenset[FaultSite], config: RouterConfig
) -> list[int]:
    """``counts[k]``: the k-subsets of the component's pool sites it survives.

    Walks the subsets through the component's own ``failed``.  Faults only
    remove capability, so once a subset fails every superset does too and
    the walk stops there.
    """
    sites = [s for s in component.sites if s in pool]
    counts = [0] * (len(sites) + 1)
    state = RouterFaultState(config)

    def walk(i: int, k: int) -> None:
        if i == len(sites):
            counts[k] += 1
            return
        walk(i + 1, k)
        state.inject(sites[i])
        if not component.failed(state):
            walk(i + 1, k + 1)
        state.heal(sites[i])

    walk(0, 0)
    return counts


def poly_times(a: list, b: list) -> list:
    """Coefficients of the product of two polynomials (ints or Fractions)."""
    out = [0 * a[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=32)
def faults_to_failure(
    config: RouterConfig | None = None,
    exact: bool = False,
    include_va2: bool = False,
) -> FaultsToFailure:
    """Faults to failure under a uniformly random order, counted exactly.

    The sites are those of :func:`enumerate_sites` (``include_va2=False``
    is the paper's Section VIII pool), the failure rule is
    :func:`~repro.core.failure.protected_router_failed` with ``exact``.  The predicate is an OR
    over components that share no site, so the tolerable k-sets number
    N_k = [x^k] of the product of the components' polynomials (a site no
    rule reads contributes 1 + x).  The first k faults of a random order
    are a uniform k-set, so P(T > k) = N_k / C(n, k).  Cached per
    argument tuple.
    """
    config = config or RouterConfig()
    pool = frozenset(enumerate_sites(config, include_va2=include_va2))
    n = len(pool)
    tolerable = [1]
    covered = 0
    for component in failure_components(config, exact):
        counts = _tolerable_by_size(component, pool, config)
        covered += len(counts) - 1
        tolerable = poly_times(tolerable, counts)
    tolerable = poly_times(tolerable, [comb(n - covered, k) for k in range(n - covered + 1)])
    # survival S_k = P(T > k); T stops at n if every site is tolerable
    survival = [Fraction(tolerable[k], comb(n, k)) for k in range(n)] + [Fraction(0)]
    pmf = (Fraction(0),) + tuple(survival[k - 1] - survival[k] for k in range(1, n + 1))
    support = [k for k, p in enumerate(pmf) if p]
    return FaultsToFailure(
        tolerable=tuple(tolerable),
        pmf=pmf,
        mean=float(sum(survival)),
        minimum=support[0],
        maximum=support[-1],
    )
