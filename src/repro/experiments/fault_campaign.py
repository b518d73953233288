"""Experiment ``fault_campaign`` — online fault-injection campaigns.

The paper evaluates reliability with faults fixed before cycle 0 and
latency with faults landed during warmup; a *campaign* instead replays
many seeded :class:`repro.faults.timeline.FaultTimeline` objects —
arrival-time-stamped permanent and transient fault events drawn from the
Section VII FIT model's arrival process — against live traffic, and
measures the temporal story the static experiments cannot see:

* **detection latency** — fault landing to the first watched counter
  moving (the unit's mechanism counter, which only the protected router
  moves, or one of its blocked-pipeline symptom counters);
* **time-to-recover** — landing to the first flit demonstrably served
  by the reconfigured datapath;
* **in-flight exposure** — flits buffered in the hit router at landing
  (the traffic at risk during reconfiguration) and flits stranded in
  never-recovered routers at end of run;
* **post-fault saturation shift** — measured latency under the campaign
  vs the fault-free reference of the same traffic.

Each timeline is one sweep point, and the points run as lanes of the
batched engine: router kind is a per-lane mask there, so the baseline,
protected and ``roco`` replays of a campaign — references included —
step in one engine, heal through its heal seam and are watched by the
same :class:`repro.faults.recovery.RecoveryMonitor` the object engine
uses.  Under the resilient runtime a lane chunk is one supervised,
watchdogged task that hands each timeline over as its lane retires, so
checkpoint granularity is the timeline, as for every other lane sweep.

The **degradation-over-lifetime report** joins the FIT model back in:
the per-router failure rate converts measured per-event recovery into
expected yearly fault counts, downtime and flit loss per router kind,
with analytic BulletProof and Vicis rows for the comparison designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..config import NetworkConfig, replace
from ..faults.schedule import TimelineSpec
from ..faults.timeline import CYCLES_PER_HOUR_1GHZ, random_timeline, router_fit
from ..network.batched import LANE_KINDS
from ..network.simulator import SimulationResult
from ..traffic.apps import app_profile
from .latency import QUICK_CONFIG, LatencyConfig, suite_traffic
from .parallel import LanePoint
from .report import ExperimentResult, experiment

#: hours in a (non-leap) year, for the lifetime join
HOURS_PER_YEAR = 8760.0


@dataclass(frozen=True)
class CampaignConfig:
    """Unified-API config of the online fault-injection campaign.

    ``timeline`` is the *template* spec: timeline ``t`` of the campaign
    runs ``replace(timeline, seed=timeline.seed + t)``, so a campaign is
    fully described by the template plus ``timelines`` — submittable as
    JSON to :mod:`repro.service` and cache-keyed soundly.  Every router
    kind replays the *same* timelines (same seeds, same traffic), so
    per-kind rows differ only by the router's recovery behaviour.
    """

    timelines: int = 12
    #: kinds simulated live, every lane kind by default (the analytic
    #: comparison designs — BulletProof, Vicis — join the report as rows)
    router_kinds: tuple[str, ...] = LANE_KINDS
    timeline: TimelineSpec = TimelineSpec()
    app: str = "ocean"
    latency: LatencyConfig = QUICK_CONFIG
    #: simulated-hours join: cycles per wall-clock hour of the modelled
    #: silicon (1 GHz by default); only the lifetime report uses it
    cycles_per_hour: float = CYCLES_PER_HOUR_1GHZ

    def __post_init__(self) -> None:
        if self.timelines < 1:
            raise ValueError("timelines must be >= 1")
        if not self.router_kinds or not set(self.router_kinds) <= set(LANE_KINDS):
            raise ValueError(f"router_kinds must be one or more of {LANE_KINDS}")
        app_profile(self.app)  # unknown application: ValueError


def campaign_schedule(net: NetworkConfig, spec: TimelineSpec):
    """Build one campaign timeline (module-level, picklable factory)."""
    return random_timeline(
        net.router,
        net.num_nodes,
        events=spec.events,
        mean_interval=spec.mean_interval,
        transient_fraction=spec.transient_fraction,
        transient_duration=spec.transient_duration,
        rng=spec.seed,
        protected=spec.protected,
        avoid_failure=spec.avoid_failure,
        first_event_at=spec.first_event_at,
    )


def _placement(config: CampaignConfig) -> list[tuple[str, Optional[int]]]:
    """``(router kind, timeline or None for the reference)`` per point."""
    return [
        (kind, t)
        for kind in config.router_kinds
        for t in (None, *range(config.timelines))
    ]


def points(config: CampaignConfig) -> list[LanePoint]:
    """One fault-free reference plus every timeline, per router kind.

    The same seeds everywhere, so kinds differ only in recovery behaviour.
    """
    cfg = config.latency
    net = cfg.network()
    sim_config = cfg.simulation()
    out = []
    for kind, t in _placement(config):
        spec = None if t is None else replace(
            config.timeline, seed=config.timeline.seed + cfg.seed + t
        )
        out.append(
            LanePoint(
                config=net,
                sim_config=sim_config,
                make_traffic=suite_traffic,
                traffic_args=(net, config.app, cfg.seed + (t or 0), cfg.rate_scale),
                make_schedule=None if spec is None else campaign_schedule,
                schedule_args=() if spec is None else (net, spec),
                router_kind=kind,
                label=f"{kind}/{'fault-free' if t is None else f'timeline-{t}'}",
            )
        )
    return out


def report(
    config: CampaignConfig, results: Sequence[SimulationResult]
) -> ExperimentResult:
    cfg = config.latency
    net = cfg.network()
    per_kind = {k: _KindAccumulator(k) for k in config.router_kinds}
    for (kind, t), result in zip(_placement(config), results):
        acc = per_kind[kind]
        if t is None:
            acc.take_reference(result)
        else:
            acc.take_timeline(result)

    rows = [
        acc.row(net, config.cycles_per_hour) for acc in per_kind.values()
    ]
    analytic = _analytic_rows(net)

    res = ExperimentResult(
        "fault_campaign",
        "online fault timelines: detection, recovery, lifetime degradation"
        " (extension)",
    )
    for row in rows:
        k = row["kind"]
        res.add(f"{k}: fault events", row["events"], None)
        res.add(
            f"{k}: recovered fraction", round(row["recovered_frac"], 3), None
        )
        if row["mean_detection_latency"] is not None:
            res.add(
                f"{k}: mean detection latency",
                round(row["mean_detection_latency"], 1),
                None,
                unit="cycles",
            )
        if row["mean_time_to_recover"] is not None:
            res.add(
                f"{k}: mean time to recover",
                round(row["mean_time_to_recover"], 1),
                None,
                unit="cycles",
            )
        res.add(
            f"{k}: expected events per year",
            round(row["events_per_year"], 4),
            None,
        )
    res.add(
        "fault-free references carry no recovery log",
        all(acc.reference_recovery is None for acc in per_kind.values()),
        True,
    )
    res.add(
        "every timeline produced a recovery log",
        all(acc.missing_logs == 0 for acc in per_kind.values()),
        True,
    )
    landed = sum(row["events"] for row in rows)
    res.add("campaign delivered fault events", landed > 0, True)
    if "protected" in per_kind:
        prot = per_kind["protected"].row(net, config.cycles_per_hour)
        res.add(
            "protected mesh recovers from landed faults",
            prot["events"] == 0 or prot["recovered_frac"] > 0.0,
            True,
        )
    res.extras["rows"] = rows
    res.extras["degradation"] = {
        "simulated": rows,
        "analytic": analytic,
        "cycles_per_hour": config.cycles_per_hour,
        "timelines": config.timelines,
    }
    from .charts import curve

    years = [float(y) for y in range(1, 11)]
    ref = rows[0]
    res.extras["chart"] = curve(
        years,
        [y * ref["events_per_year"] for y in years],
        x_label="years",
        y_label=f"faults ({ref['kind']})",
    )
    return res


class _KindAccumulator:
    """Folds one router kind's reference + timeline results into a row."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.reference_latency = float("nan")
        self.reference_recovery: Optional[dict] = None
        self.runs = 0
        self.blocked = 0
        self.missing_logs = 0
        self.events = 0
        self.detected = 0
        self.recovered = 0
        self.healed = 0
        self.latent = 0
        self.exposed = 0
        self.stranded = 0
        self._det_sum = 0.0
        self._rec_sum = 0.0
        self._lat_sum = 0.0
        self._lat_n = 0

    def take_reference(self, result: Any) -> None:
        self.reference_latency = result.avg_network_latency
        self.reference_recovery = result.recovery

    def take_timeline(self, result: Any) -> None:
        self.runs += 1
        if result.blocked:
            self.blocked += 1
        else:
            self._lat_sum += result.avg_network_latency
            self._lat_n += 1
        rec = result.recovery
        if rec is None:
            self.missing_logs += 1
            return
        self.events += rec["events"]
        self.detected += rec["detected"]
        self.recovered += rec["recovered"]
        self.healed += rec["healed"]
        self.latent += rec["latent"]
        self.exposed += rec["exposed_flits"]
        self.stranded += rec["stranded_flits"]
        if rec["mean_detection_latency"] is not None:
            self._det_sum += rec["mean_detection_latency"] * rec["detected"]
        if rec["mean_time_to_recover"] is not None:
            self._rec_sum += rec["mean_time_to_recover"] * rec["recovered"]

    def row(self, net: NetworkConfig, cycles_per_hour: float) -> dict:
        """One degradation-report row: measured recovery + FIT join."""
        fit = router_fit(net.router, net.num_nodes, self.kind == "protected")
        rate_per_hour = net.num_nodes * fit / 1e9
        mtbf_hours = 1.0 / rate_per_hour
        events_per_year = HOURS_PER_YEAR / mtbf_hours
        mean_det = self._det_sum / self.detected if self.detected else None
        mean_rec = self._rec_sum / self.recovered if self.recovered else None
        campaign_latency = (
            self._lat_sum / self._lat_n if self._lat_n else float("nan")
        )
        saturation_shift = (
            campaign_latency / self.reference_latency - 1.0
            if self._lat_n and self.reference_latency == self.reference_latency
            else None
        )
        downtime_s = (
            events_per_year
            * (self.recovered / self.events)
            * (mean_rec / cycles_per_hour)
            * 3600.0
            if self.events and mean_rec is not None
            else 0.0
        )
        return {
            "kind": self.kind,
            "analytic": False,
            "runs": self.runs,
            "blocked_runs": self.blocked,
            "events": self.events,
            "detected_frac": self.detected / self.events if self.events else 0.0,
            "recovered_frac": (
                self.recovered / self.events if self.events else 0.0
            ),
            "healed": self.healed,
            "latent": self.latent,
            "mean_detection_latency": mean_det,
            "mean_time_to_recover": mean_rec,
            "exposed_flits": self.exposed,
            "stranded_flits": self.stranded,
            "fault_free_latency": self.reference_latency,
            "campaign_latency": campaign_latency,
            "saturation_shift": saturation_shift,
            "fit_per_router": fit,
            "network_mtbf_hours": mtbf_hours,
            "events_per_year": events_per_year,
            "recovery_downtime_s_per_year": downtime_s,
            "stranded_flits_per_year": (
                events_per_year * self.stranded / self.events
                if self.events
                else 0.0
            ),
        }


def _analytic_rows(net: NetworkConfig) -> list[dict]:
    """Model rows for the comparison designs (no live simulation)."""
    from ..comparison.bulletproof import BulletProofModel
    from ..comparison.vicis import VicisModel

    fit = router_fit(net.router, net.num_nodes, protected=False)
    mtbf_hours = 1e9 / (net.num_nodes * fit)
    rows = []
    for name, model in (
        ("bulletproof", BulletProofModel()),
        ("vicis", VicisModel()),
    ):
        mean_faults = model.mean_faults_to_failure()
        rows.append(
            {
                "kind": name,
                "analytic": True,
                "mean_faults_to_failure": mean_faults,
                "spf": model.spf(),
                "area_overhead": model.area_overhead,
                "events_per_year": HOURS_PER_YEAR / mtbf_hours,
                "expected_years_to_failure": (
                    mean_faults * mtbf_hours / HOURS_PER_YEAR
                ),
            }
        )
    return rows


run = experiment(CampaignConfig, __name__)
