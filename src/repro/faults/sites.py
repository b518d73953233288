"""Enumeration of permanent-fault sites in the router pipeline.

The paper (Section V) considers permanent faults in the four pipeline
stages only — "Faults in the other components of a router such as
multiplexers and buffers are studied in [23] and are out of scope".  The
protectable component instances are:

========== ========================= ============================== =======
Stage      Component                 Granularity                    Count*
========== ========================= ============================== =======
RC         routing unit              per input port                 5
RC (prot.) duplicate routing unit    per input port                 5
VA stage 1 ``po x v:1`` arbiter set  per input VC                   20
VA stage 2 ``pi*v : 1`` arbiter      per (output port, downstream VC) 20
SA stage 1 ``v:1`` arbiter           per input port                 5
SA (prot.) bypass path (mux+reg)     per input port                 5
SA stage 2 ``pi:1`` arbiter          per output port                5
XB         ``pi:1`` output mux       per output port                5
XB (prot.) secondary path (demux+P)  per output port                5
========== ========================= ============================== =======

(*counts for the paper's 5-port, 4-VC router)

A :class:`FaultSite` names one such instance inside one router;
:class:`RouterFaultState` holds the set of faulty instances of a single
router and offers O(1) lookups for the pipeline units.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from ..config import RouterConfig


class FaultUnit(enum.Enum):
    """Kind of protectable component instance."""

    RC_PRIMARY = "rc_primary"
    RC_DUPLICATE = "rc_duplicate"
    VA1_ARBITER_SET = "va1_arbiter_set"
    VA2_ARBITER = "va2_arbiter"
    SA1_ARBITER = "sa1_arbiter"
    SA1_BYPASS = "sa1_bypass"
    SA2_ARBITER = "sa2_arbiter"
    XB_MUX = "xb_mux"
    XB_SECONDARY = "xb_secondary"

    @property
    def stage(self) -> str:
        """Pipeline stage this unit belongs to (RC/VA/SA/XB)."""
        return _UNIT_STAGE[self]

    @property
    def is_correction_circuitry(self) -> bool:
        """True for components added by the protected router."""
        return self in (
            FaultUnit.RC_DUPLICATE,
            FaultUnit.SA1_BYPASS,
            FaultUnit.XB_SECONDARY,
        )


_UNIT_STAGE = {
    FaultUnit.RC_PRIMARY: "RC",
    FaultUnit.RC_DUPLICATE: "RC",
    FaultUnit.VA1_ARBITER_SET: "VA",
    FaultUnit.VA2_ARBITER: "VA",
    FaultUnit.SA1_ARBITER: "SA",
    FaultUnit.SA1_BYPASS: "SA",
    FaultUnit.SA2_ARBITER: "SA",
    FaultUnit.XB_MUX: "XB",
    FaultUnit.XB_SECONDARY: "XB",
}


@dataclass(frozen=True)
class FaultSite:
    """One permanently-faultable component instance.

    ``port`` is the input port for RC/VA1/SA1 units and the output port for
    VA2/SA2/XB units.  ``vc`` is used by the per-VC units (VA1: the input
    VC owning the arbiter set; VA2: the downstream VC of the arbiter).
    """

    router: int
    unit: FaultUnit
    port: int
    vc: int = -1

    def __post_init__(self) -> None:
        per_vc = self.unit in (FaultUnit.VA1_ARBITER_SET, FaultUnit.VA2_ARBITER)
        if per_vc and self.vc < 0:
            raise ValueError(f"{self.unit.value} requires a VC index")
        if not per_vc and self.vc != -1:
            raise ValueError(f"{self.unit.value} takes no VC index")

    def describe(self) -> str:
        """Human-readable location, e.g. ``router 12 VA1_ARBITER_SET p3v1``."""
        loc = f"p{self.port}" + (f"v{self.vc}" if self.vc >= 0 else "")
        return f"router {self.router} {self.unit.name} {loc}"


def enumerate_sites(
    config: RouterConfig,
    router: int = 0,
    protected: bool = True,
    include_va2: bool = True,
) -> Iterator[FaultSite]:
    """Yield every fault site of one router.

    ``protected=False`` omits the correction-circuitry sites (the baseline
    router has no duplicates/bypasses/secondary paths).  ``include_va2``
    exists because the paper's SPF analysis (Section VIII) covers VA stage 1
    only — VA stage 2 tolerance uses inherent redundancy with no dedicated
    circuitry, so some analyses exclude those sites.
    """
    P, V = config.num_ports, config.num_vcs
    for p in range(P):
        yield FaultSite(router, FaultUnit.RC_PRIMARY, p)
        if protected:
            yield FaultSite(router, FaultUnit.RC_DUPLICATE, p)
    for p in range(P):
        for v in range(V):
            yield FaultSite(router, FaultUnit.VA1_ARBITER_SET, p, v)
    if include_va2:
        for p in range(P):
            for v in range(V):
                yield FaultSite(router, FaultUnit.VA2_ARBITER, p, v)
    for p in range(P):
        yield FaultSite(router, FaultUnit.SA1_ARBITER, p)
        if protected:
            yield FaultSite(router, FaultUnit.SA1_BYPASS, p)
    for p in range(P):
        yield FaultSite(router, FaultUnit.SA2_ARBITER, p)
    for p in range(P):
        yield FaultSite(router, FaultUnit.XB_MUX, p)
        if protected:
            yield FaultSite(router, FaultUnit.XB_SECONDARY, p)


@lru_cache(maxsize=8)
def network_sites(
    config: RouterConfig, num_routers: int, protected: bool, include_va2: bool
) -> tuple[FaultSite, ...]:
    """Every fault site of a ``num_routers``-router fabric, router-major.

    The pool the random schedules draw from.  Sites and configs are frozen,
    so the tuple is built once per geometry and shared: a sweep draws one
    schedule per point over the same few thousand sites.  (No defaults:
    ``lru_cache`` keys on the arguments as passed.)
    """
    return tuple(
        site
        for router in range(num_routers)
        for site in enumerate_sites(config, router, protected, include_va2)
    )


class RouterFaultState:
    """Mutable set of faulty component instances of one router.

    The pipeline units consult this object every cycle, so membership tests
    are plain set lookups.  Injection is idempotent; ``inject`` returns
    ``False`` when the site was already faulty.
    """

    __slots__ = (
        "config",
        "rc_primary",
        "rc_duplicate",
        "va1",
        "va2",
        "sa1",
        "sa1_bypass",
        "sa2",
        "xb_mux",
        "xb_secondary",
        "history",
    )

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.rc_primary: set[int] = set()
        self.rc_duplicate: set[int] = set()
        self.va1: set[tuple[int, int]] = set()
        self.va2: set[tuple[int, int]] = set()
        self.sa1: set[int] = set()
        self.sa1_bypass: set[int] = set()
        self.sa2: set[int] = set()
        self.xb_mux: set[int] = set()
        self.xb_secondary: set[int] = set()
        #: injection order, for reporting
        self.history: list[FaultSite] = []

    def inject(self, site: FaultSite) -> bool:
        """Mark ``site`` permanently faulty.  Returns False if already so."""
        P, V = self.config.num_ports, self.config.num_vcs
        if not (0 <= site.port < P):
            raise ValueError(f"port {site.port} out of range for {P}-port router")
        if site.vc >= V:
            raise ValueError(f"vc {site.vc} out of range for {V}-VC router")
        target = self._target_set(site.unit)
        key = (site.port, site.vc) if site.vc >= 0 else site.port
        if key in target:
            return False
        target.add(key)
        self.history.append(site)
        return True

    def heal(self, site: FaultSite) -> bool:
        """Remove a fault (used by tests and transient-fault extensions)."""
        target = self._target_set(site.unit)
        key = (site.port, site.vc) if site.vc >= 0 else site.port
        if key not in target:
            return False
        target.discard(key)
        self.history = [
            s for s in self.history
            if not (s.unit == site.unit and s.port == site.port and s.vc == site.vc)
        ]
        return True

    def _target_set(self, unit: FaultUnit) -> set:
        return {
            FaultUnit.RC_PRIMARY: self.rc_primary,
            FaultUnit.RC_DUPLICATE: self.rc_duplicate,
            FaultUnit.VA1_ARBITER_SET: self.va1,
            FaultUnit.VA2_ARBITER: self.va2,
            FaultUnit.SA1_ARBITER: self.sa1,
            FaultUnit.SA1_BYPASS: self.sa1_bypass,
            FaultUnit.SA2_ARBITER: self.sa2,
            FaultUnit.XB_MUX: self.xb_mux,
            FaultUnit.XB_SECONDARY: self.xb_secondary,
        }[unit]

    @property
    def num_faults(self) -> int:
        """Total number of injected faults."""
        return len(self.history)

    @property
    def any_faults(self) -> bool:
        """A landing recorded or a bit set: a RoCo router has either alone
        (a module killed by hand, faults a live module absorbs)."""
        return bool(self.history) or any(self._target_set(unit) for unit in FaultUnit)

    def sites(self) -> list[FaultSite]:
        """Injection history as a list (copy)."""
        return list(self.history)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RouterFaultState({self.num_faults} faults)"
