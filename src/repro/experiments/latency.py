"""Shared harness for the latency experiments (paper Section IX).

The paper simulates an 8x8 mesh in GEM5/GARNET, runs SPLASH-2 and PARSEC
traffic, and injects faults "based on a uniform random variable with a
mean of 10 million cycles".  The reproduction runs the same 8x8 mesh on
our simulator with the app surrogates and scales fault injection to the
Python-sized cycle budget: all faults are injected during warmup (uniform
random over the warmup window) so the measurement window observes the
steady-state latency of a network *tolerating* the faults — matching what
Figures 7/8 report.  Fault sites are drawn with ``avoid_failure=True``:
a failed router measures availability, not latency (see
:class:`repro.faults.injector.RandomFaultSchedule`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..config import NetworkConfig, RouterConfig, SimulationConfig
from ..faults.injector import RandomFaultSchedule
from ..network.simulator import SimulationResult
from ..traffic.apps import AppProfile, app_profile, make_app_traffic, suite_profiles
from .parallel import LanePoint, run_point
from .report import ExperimentResult


@dataclass(frozen=True)
class LatencyConfig:
    """Knobs of one Figure 7/8-style run."""

    width: int = 8
    height: int = 8
    num_vcs: int = 4
    num_vnets: int = 2
    buffer_depth: int = 4
    warmup_cycles: int = 2000
    measure_cycles: int = 8000
    drain_cycles: int = 8000
    num_faults: int = 224
    rate_scale: float = 1.0
    seed: int = 1

    def network(self) -> NetworkConfig:
        return NetworkConfig(
            width=self.width,
            height=self.height,
            router=RouterConfig(
                num_vcs=self.num_vcs,
                num_vnets=self.num_vnets,
                buffer_depth=self.buffer_depth,
            ),
        )

    def simulation(self) -> SimulationConfig:
        return SimulationConfig(
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            drain_cycles=self.drain_cycles,
            seed=self.seed,
            watchdog_cycles=max(10_000, self.measure_cycles),
        )


#: Reduced configuration for tests and quick benches (4x4, ~2 tolerated
#: faults per router — the same density as the paper-scale run).
QUICK_CONFIG = LatencyConfig(
    width=4,
    height=4,
    warmup_cycles=500,
    measure_cycles=2500,
    drain_cycles=3000,
    num_faults=32,
)


@dataclass(frozen=True)
class SuiteRunConfig:
    """Unified-API config of the fig7/fig8 suite experiments.

    ``latency`` is the per-run knob set (paper scale by default); ``apps``
    optionally restricts the suite to the named applications.
    """

    latency: LatencyConfig = LatencyConfig()
    apps: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.apps is not None:
            if not self.apps:
                raise ValueError("apps must name at least one application")
            for app in self.apps:
                app_profile(app)  # unknown application: ValueError


@dataclass
class AppLatency:
    """Fault-free vs faulty latency of one application."""

    app: str
    fault_free: float
    faulty: float
    fault_free_result: SimulationResult = field(repr=False, default=None)
    faulty_result: SimulationResult = field(repr=False, default=None)

    @property
    def overhead(self) -> float:
        """Relative latency increase caused by the tolerated faults."""
        return self.faulty / self.fault_free - 1.0


def suite_traffic(
    net: NetworkConfig, app: AppProfile | str, seed: int, rate_scale: float
):
    """Traffic factory for one suite point (module-level → picklable)."""
    return make_app_traffic(net, app, rng=seed, rate_scale=rate_scale)


def suite_schedule(
    net: NetworkConfig, warmup_cycles: int, num_faults: int, seed: int
) -> RandomFaultSchedule:
    """Fault-schedule factory for one suite point (module-level).

    All faults land during warmup so the measurement window sees the
    steady state (uniform over ``[0, warmup)``, paper-style uniform gaps).
    """
    return RandomFaultSchedule(
        net.router,
        net.num_nodes,
        mean_interval=max(1.0, warmup_cycles / (2 * num_faults)),
        num_faults=num_faults,
        rng=seed + 7919,
        first_fault_at=0,
        avoid_failure=True,
    )


def _suite_point(
    cfg: LatencyConfig,
    net: NetworkConfig,
    sim_config: SimulationConfig,
    app: AppProfile,
    faulty: bool,
) -> LanePoint:
    """One (application, fault-state) simulation of the suite.

    The single description every path runs — :func:`suite_points` and
    the ``energy`` experiment as lanes, :func:`run_app` alone — which is
    what keeps them bit-identical.  ``net`` / ``sim_config`` are ``cfg``'s,
    built once per sweep.
    """
    return LanePoint(
        config=net,
        sim_config=sim_config,
        make_traffic=suite_traffic,
        traffic_args=(net, app, cfg.seed, cfg.rate_scale),
        make_schedule=suite_schedule if faulty else None,
        schedule_args=(
            (net, cfg.warmup_cycles, cfg.num_faults, cfg.seed)
            if faulty
            else ()
        ),
        router_kind="protected",
        label=f"{app.name}:{'faulty' if faulty else 'fault-free'}",
    )


def app_points(cfg: LatencyConfig, app: AppProfile) -> list[LanePoint]:
    """One application's fault-free and faulty points, in that order."""
    net, sim_config = cfg.network(), cfg.simulation()
    return [_suite_point(cfg, net, sim_config, app, f) for f in (False, True)]


def tolerated(result: SimulationResult, label: str) -> SimulationResult:
    """``result``, unless a fault schedule drawn to be tolerable blocked it."""
    if result.blocked:
        raise RuntimeError(
            f"{label}: network blocked — fault schedule should have been "
            "tolerable"
        )
    return result


def run_app(
    profile: AppProfile, cfg: LatencyConfig, faulty: bool
) -> SimulationResult:
    """One simulation of one application, with or without faults."""
    point = _suite_point(cfg, cfg.network(), cfg.simulation(), profile, faulty)
    return tolerated(run_point(point), profile.name)


def run_app_pair(
    profile: AppProfile, cfg: LatencyConfig
) -> AppLatency:
    """Fault-free and faulty runs of one app with identical traffic seed."""
    ff = run_app(profile, cfg, faulty=False)
    fy = run_app(profile, cfg, faulty=True)
    return AppLatency(
        app=profile.name,
        fault_free=ff.avg_network_latency,
        faulty=fy.avg_network_latency,
        fault_free_result=ff,
        faulty_result=fy,
    )


def _suite_profiles(
    suite: str, apps: Optional[Sequence[str]]
) -> tuple[AppProfile, ...]:
    profiles = suite_profiles(suite)
    if apps is not None:
        wanted = set(apps)
        profiles = tuple(p for p in profiles if p.name in wanted)
        missing = wanted - {p.name for p in profiles}
        if missing:
            raise ValueError(f"unknown apps for {suite}: {sorted(missing)}")
    return profiles


def suite_points(
    suite: str,
    cfg: LatencyConfig,
    apps: Optional[Sequence[str]] = None,
) -> list[LanePoint]:
    """The suite's sweep points: (fault-free, faulty) per application.

    Every point shares one structural key (same mesh, protected router,
    XY routing — only traffic and fault schedules differ), so the whole
    suite steps as lanes of one
    :class:`repro.network.batched.BatchedLaneEngine` per chunk.
    """
    net = cfg.network()
    sim_config = cfg.simulation()
    return [
        _suite_point(cfg, net, sim_config, p, faulty)
        for p in _suite_profiles(suite, apps)
        for faulty in (False, True)
    ]


def overall_overhead(results: Sequence[AppLatency]) -> float:
    """Suite-level latency increase: mean of per-app overheads."""
    if not results:
        raise ValueError("no app results")
    return sum(r.overhead for r in results) / len(results)


def suite_report(
    experiment: str,
    title: str,
    suite: str,
    paper_overall_overhead: float,
    config: SuiteRunConfig,
    values: Sequence[SimulationResult],
) -> ExperimentResult:
    """The Figure 7/8 result from the values of :func:`suite_points`."""
    results = [
        AppLatency(
            app=p.name,
            fault_free=tolerated(ff, p.name).avg_network_latency,
            faulty=tolerated(fy, p.name).avg_network_latency,
            fault_free_result=ff,
            faulty_result=fy,
        )
        for p, ff, fy in zip(
            _suite_profiles(suite, config.apps), values[0::2], values[1::2]
        )
    ]
    res = ExperimentResult(experiment, title)
    for r in results:
        res.add(
            f"{r.app}: fault-free latency", round(r.fault_free, 2), None,
            unit="cycles",
        )
        res.add(
            f"{r.app}: faulty latency", round(r.faulty, 2), None,
            unit="cycles",
        )
        res.add(f"{r.app}: overhead", round(r.overhead, 3), None)
    res.add(
        "overall latency increase",
        round(overall_overhead(results), 3),
        paper_overall_overhead,
        note="paper reports bar charts; the overall percentage is the "
        "stated headline",
    )
    res.extras["results"] = results
    res.extras["config"] = config.latency
    from .charts import latency_figure

    res.extras["chart"] = latency_figure(results, title)
    return res
