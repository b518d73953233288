"""Fault model: sites, schedules, timelines, detection, recovery.

The unified schedule API lives in :mod:`repro.faults.schedule`
(:class:`FaultSchedule` protocol, frozen spec dataclasses,
:func:`make_schedule` registry); :mod:`repro.faults.timeline` adds
arrival-time-stamped online fault timelines and
:mod:`repro.faults.recovery` the per-router recovery accounting used by
``repro.experiments.fault_campaign``.
"""

from .detection import DetectionEvent, NetworkDetector, OnlineDetector
from .injector import (
    ExplicitFaultSchedule,
    NullFaultSchedule,
    RandomFaultSchedule,
    spawn_lane_injectors,
)
from .recovery import RecoveryMonitor, RecoveryRecord
from .schedule import (
    SCHEDULE_SPECS,
    FaultSchedule,
    NullSpec,
    RandomSpec,
    ScheduledSpec,
    TimelineSpec,
    TransientSpec,
    make_schedule,
    register_schedule,
    schedule_spec,
    site_from_tuple,
    site_token,
    site_tuple,
    spec_name,
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
    "SCHEDULE_SPECS",
    "DetectionEvent",
    "ExplicitFaultSchedule",
    "FaultSchedule",
    "FaultSite",
    "FaultTimeline",
    "FaultUnit",
    "NetworkDetector",
    "NullFaultSchedule",
    "NullSpec",
    "OnlineDetector",
    "RandomFaultSchedule",
    "RandomSpec",
    "RecoveryMonitor",
    "RecoveryRecord",
    "RouterFaultState",
    "ScheduledSpec",
    "TimelineEvent",
    "TimelineSpec",
    "TransientFault",
    "TransientFaultSchedule",
    "TransientSpec",
    "enumerate_sites",
    "fit_mean_interval_cycles",
    "make_schedule",
    "random_timeline",
    "random_transients",
    "register_schedule",
    "schedule_spec",
    "site_from_tuple",
    "site_token",
    "site_tuple",
    "spawn_lane_injectors",
    "spec_name",
]
