"""Fault model: sites, the one schedule class, recovery.

The schedule protocol and the timeline spec live in
:mod:`repro.faults.schedule` (:class:`FaultSchedule`,
:class:`TimelineSpec`); :mod:`repro.faults.timeline` holds the one class
that implements it, :class:`FaultTimeline` (permanent and transient
events), and the draws that build one; :mod:`repro.faults.recovery` the
per-router detection and recovery accounting used by ``fault_campaign``
and ``detection_latency``.
"""

from .._lazy import lazy_face

__getattr__, __dir__ = lazy_face(__name__, {
    "injector": "RandomFaultSchedule",
    "recovery": "RecoveryMonitor RecoveryRecord",
    "schedule": "FaultSchedule TimelineSpec site_from_tuple site_token site_tuple",
    "sites": "FaultSite FaultUnit RouterFaultState enumerate_sites",
    "timeline": "FaultTimeline TimelineEvent fit_mean_interval_cycles random_timeline"
    " random_transients",
})

__all__ = [
    "FaultSchedule",
    "FaultSite",
    "FaultTimeline",
    "FaultUnit",
    "RandomFaultSchedule",
    "RecoveryMonitor",
    "RecoveryRecord",
    "RouterFaultState",
    "TimelineEvent",
    "TimelineSpec",
    "enumerate_sites",
    "fit_mean_interval_cycles",
    "random_timeline",
    "random_transients",
    "site_from_tuple",
    "site_token",
    "site_tuple",
]
