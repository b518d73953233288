"""Fault model: sites, schedules, timelines, detection, recovery.

The unified schedule API lives in :mod:`repro.faults.schedule`
(:class:`FaultSchedule` protocol, :class:`TimelineSpec`);
:mod:`repro.faults.timeline` adds
arrival-time-stamped online fault timelines and
:mod:`repro.faults.recovery` the per-router detection and recovery
accounting used by ``fault_campaign`` and ``detection_latency``.
"""

from .injector import (
    ExplicitFaultSchedule,
    NullFaultSchedule,
    RandomFaultSchedule,
    spawn_lane_injectors,
)
from .recovery import RecoveryMonitor, RecoveryRecord
from .schedule import (
    FaultSchedule,
    TimelineSpec,
    site_from_tuple,
    site_token,
    site_tuple,
)
from .sites import FaultSite, FaultUnit, RouterFaultState, enumerate_sites
from .timeline import (
    FaultTimeline,
    TimelineEvent,
    fit_mean_interval_cycles,
    random_timeline,
)
from .transient import (
    TransientFault,
    TransientFaultSchedule,
    random_transients,
)

__all__ = [
    "ExplicitFaultSchedule",
    "FaultSchedule",
    "FaultSite",
    "FaultTimeline",
    "FaultUnit",
    "NullFaultSchedule",
    "RandomFaultSchedule",
    "RecoveryMonitor",
    "RecoveryRecord",
    "RouterFaultState",
    "TimelineEvent",
    "TimelineSpec",
    "TransientFault",
    "TransientFaultSchedule",
    "enumerate_sites",
    "fit_mean_interval_cycles",
    "random_timeline",
    "random_transients",
    "site_from_tuple",
    "site_token",
    "site_tuple",
    "spawn_lane_injectors",
]
