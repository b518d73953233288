"""Per-router fault detection and recovery accounting.

The paper assumes an existing detector (NoCAlert [18]) and charges +3 %
area / +1 % power for it; this module is the one behavioural stand-in
for that assumption, used by ``fault_campaign`` and ``detection_latency``
alike.  When a fault lands mid-traffic the interesting story is temporal:

* **detection latency** — land to the first watched counter moving.
  Every router kind watches the same counters for a unit: its
  protection-mechanism counter (duplicate RC computations, borrowed VA
  grants, bypass/secondary-path grants), which only a protected router
  ever moves, plus its blocked-pipeline symptom counters.  Faults in
  correction circuitry have no counter and stay latent;
* **time-to-recover** — land to the first flit traversing the router
  again, i.e. the reconfigured datapath demonstrably serving traffic;
* **in-flight exposure** — flits buffered in the router at land time
  (the packets at risk during reconfiguration) and flits still stranded
  there at end of run when the router never recovered.

A :class:`RecoveryMonitor` installs itself as the ``recovery`` probe on
every router (the :class:`repro.router.router.BaseRouter` hook); the
simulator reports land/heal events into it and polls open watches once
per stepped cycle.  Polling only reads counters, which are frozen while
a fabric is idle, so the event-driven skip-ahead stays enabled and
bit-identical.  At end of run the monitor exports a picklable summary on
``SimulationResult.recovery``, the one record of a run's faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .schedule import site_token
from .sites import FaultSite, FaultUnit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..router.router import BaseRouter

#: mechanism counters: the protected router's correction for the unit
#: fires the first time the faulty component would have served traffic —
#: the fastest observable
_MECHANISM: Dict[FaultUnit, str] = {
    FaultUnit.RC_PRIMARY: "rc_duplicate_computations",
    FaultUnit.VA1_ARBITER_SET: "va_borrowed_grants",
    FaultUnit.VA2_ARBITER: "va_stage2_fault_retries",
    FaultUnit.SA1_ARBITER: "sa_bypass_grants",
    FaultUnit.SA2_ARBITER: "secondary_path_grants",
    FaultUnit.XB_MUX: "secondary_path_grants",
}

#: symptom counters: pipeline-blockage effects of the fault — slower,
#: congestion-mediated observables, and the only ones that move on a
#: router without a correction mechanism (baseline and comparison kinds)
_SYMPTOM: Dict[FaultUnit, Tuple[str, ...]] = {
    FaultUnit.RC_PRIMARY: ("rc_blocked_cycles",),
    FaultUnit.VA1_ARBITER_SET: ("va_blocked_cycles", "va_no_free_vc_cycles"),
    FaultUnit.VA2_ARBITER: ("va_no_free_vc_cycles", "va_blocked_cycles"),
    FaultUnit.SA1_ARBITER: ("sa_blocked_cycles",),
    FaultUnit.SA2_ARBITER: ("sa_blocked_cycles",),
    FaultUnit.XB_MUX: ("unreachable_output_cycles", "sa_blocked_cycles"),
}


def watch_counters(unit: FaultUnit) -> Tuple[str, ...]:
    """Stats counters whose movement counts as detecting ``unit``.

    The mechanism counter first, then the symptom counters, for every
    router kind.  Correction-circuitry units return ``()``: a fault there
    is latent until a second fault exercises it (Section VIII), so it is
    classified as undetectable rather than given a latency.
    """
    mech = _MECHANISM.get(unit)
    symptom = _SYMPTOM.get(unit, ())
    return ((mech,) + symptom) if mech else symptom


@dataclass
class RecoveryRecord:
    """Lifecycle of one fault event at one router."""

    site: FaultSite
    landed_at: int
    exposed_flits: int = 0
    detected_at: Optional[int] = None
    recovered_at: Optional[int] = None
    healed_at: Optional[int] = None
    stranded_flits: int = 0
    #: no counter observes this unit (correction circuitry: latent)
    latent: bool = False

    @property
    def detection_latency(self) -> Optional[int]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.landed_at

    @property
    def time_to_recover(self) -> Optional[int]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.landed_at

    def export(self) -> dict:
        """Plain-dict form (pickles through sweep workers)."""
        return {
            "site": site_token(self.site),
            "unit": self.site.unit.value,
            "router": self.site.router,
            "landed_at": self.landed_at,
            "detected_at": self.detected_at,
            "recovered_at": self.recovered_at,
            "healed_at": self.healed_at,
            "exposed_flits": self.exposed_flits,
            "stranded_flits": self.stranded_flits,
            "latent": self.latent,
        }


@dataclass
class _Watch:
    record: RecoveryRecord
    router: "BaseRouter"
    counters: Tuple[str, ...]
    baselines: Tuple[int, ...]
    traversed0: int = 0


@dataclass
class RecoveryMonitor:
    """Collects :class:`RecoveryRecord` streams for one simulation run."""

    records: List[RecoveryRecord] = field(default_factory=list)
    _open: List[_Watch] = field(default_factory=list)
    #: simulator fast-path gate: poll only while a watch is open
    open_watches: int = 0

    # -- BaseRouter ``recovery`` probe hooks -----------------------------
    def fault_landed(self, router: "BaseRouter", site: FaultSite, cycle: int) -> None:
        counters = watch_counters(site.unit)
        stats = router.stats
        rec = RecoveryRecord(
            site=site,
            landed_at=cycle,
            exposed_flits=router.buffered_flits(),
            latent=not counters,
        )
        self.records.append(rec)
        self._open.append(
            _Watch(
                rec,
                router,
                counters,
                tuple(getattr(stats, c) for c in counters),
                stats.flits_traversed,
            )
        )
        self.open_watches = len(self._open)

    def fault_healed(self, router: "BaseRouter", site: FaultSite, cycle: int) -> None:
        for rec in reversed(self.records):
            if rec.site == site and rec.healed_at is None:
                rec.healed_at = cycle
                break

    # -- per-cycle polling (stepped cycles only; counters are frozen
    # while idle, so the event-driven skip-ahead cannot miss an edge) ----
    def poll(self, cycle: int) -> None:
        still_open: List[_Watch] = []
        for w in self._open:
            stats = w.router.stats
            rec = w.record
            if rec.detected_at is None and w.counters:
                for name, base in zip(w.counters, w.baselines):
                    if getattr(stats, name) > base:
                        rec.detected_at = cycle
                        break
            if rec.recovered_at is None:
                if stats.flits_traversed > w.traversed0:
                    rec.recovered_at = cycle
            resolved = rec.recovered_at is not None and (
                rec.detected_at is not None or not w.counters
            )
            if not resolved:
                still_open.append(w)
        self._open = still_open
        self.open_watches = len(still_open)

    # -- end of run ------------------------------------------------------
    def finalize(self) -> None:
        """Record stranded flits for the watches still open at end of run."""
        for w in self._open:
            if w.record.recovered_at is None:
                w.record.stranded_flits = w.router.buffered_flits()
        self._open = []
        self.open_watches = 0

    def summary(self) -> dict:
        """Picklable per-run recovery summary (``SimulationResult.recovery``)."""
        n = len(self.records)
        detected = [r for r in self.records if r.detected_at is not None]
        recovered = [r for r in self.records if r.recovered_at is not None]
        det_lat = [r.detection_latency for r in detected]
        rec_lat = [r.time_to_recover for r in recovered]
        return {
            "events": n,
            "detected": len(detected),
            "recovered": len(recovered),
            "healed": sum(1 for r in self.records if r.healed_at is not None),
            "latent": sum(1 for r in self.records if r.latent),
            "unrecovered": n - len(recovered),
            "mean_detection_latency": (
                sum(det_lat) / len(det_lat) if det_lat else None
            ),
            "mean_time_to_recover": (
                sum(rec_lat) / len(rec_lat) if rec_lat else None
            ),
            "max_time_to_recover": max(rec_lat, default=None),
            "exposed_flits": sum(r.exposed_flits for r in self.records),
            "stranded_flits": sum(r.stranded_flits for r in self.records),
            "records": [r.export() for r in self.records],
        }
