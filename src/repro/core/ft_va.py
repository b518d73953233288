"""Fault-tolerant virtual-channel allocation (paper Section V-B).

**Stage 1 — arbiter sharing.**  Every input VC owns an identical set of
``po`` ``v:1`` arbiters.  When a VC's set is faulty, the VC *borrows* the
set of another VC of the same input port: it scans the ``G`` fields of its
siblings and picks the first whose arbiters are idle this cycle — i.e. a
VC that is idle or in switch-allocation (ACTIVE) state.  In hardware the
borrow request travels through the lender's Figure 4 ``R2``/``VF``/``ID``
fields.  The model gets the same effect without storing them: the unit's
per-cycle lent set marks a set as used, the borrower arbitrates with the
lender's arbiters directly and is itself granted, and nothing is left to
clear afterwards.

Two timing scenarios (Section V-B1):

* *Scenario 1* — the lender's arbiters are idle: allocation completes in
  the same cycle (only the critical path is affected).
* *Scenario 2* — the lender is itself in VA this cycle: the lender
  allocates first and the borrower waits one extra cycle.

**Stage 2 — inherent redundancy.**  A faulty per-downstream-VC arbiter
means that downstream VC can never be granted; the affected head flit
simply retries with a *different* free downstream VC next cycle (+1 cycle,
no extra circuitry).  We record the failed downstream VC in the VC's
``va_excluded`` set so the retry cannot loop on the same faulty arbiter.
"""

from __future__ import annotations

from ..router.allocator import VAUnit
from ..router.vc import VCState, VirtualChannel


class ArbiterSharingVAUnit(VAUnit):
    """VA unit with stage-1 arbiter sharing and stage-2 retry."""

    def __init__(self, router) -> None:
        super().__init__(router)
        #: (port, slot) arbiter sets already used or lent out this cycle
        self._lent: set[tuple[int, int]] = set()

    def allocate(self, cycle: int) -> None:
        self._lent.clear()
        super().allocate(cycle)

    def _stage1_arbiters(self, port: int, slot: int):
        faults = self.router.faults
        if (port, slot) not in faults.va1:
            # A healthy set that is used by its owner this cycle cannot be
            # lent simultaneously.
            self._lent.add((port, slot))
            return slot, self.stage1[port][slot]

        # Borrower path: scan sibling VCs of the same input port.
        in_port = self.router.in_ports[port]
        for lender_slot, lender in enumerate(in_port.slots):
            if lender_slot == slot:
                continue
            if (port, lender_slot) in faults.va1:
                continue  # the sibling's set is faulty too
            if (port, lender_slot) in self._lent:
                continue  # already used/lent this cycle
            if lender.state in (VCState.IDLE, VCState.ACTIVE):
                # Scenario 1: arbiters idle -> borrow in the same cycle.
                self._lent.add((port, lender_slot))
                return lender_slot, self.stage1[port][lender_slot]
        # Scenario 2 (or no healthy sibling set at all): wait this cycle.
        self.router.stats.va_borrow_wait_cycles += 1
        return None

    def _on_stage2_fault(self, vc: VirtualChannel, out_port: int, dvc: int) -> None:
        """Exclude the faulty downstream-VC arbiter from the retry."""
        if vc.va_excluded is None:
            vc.va_excluded = set()
        vc.va_excluded.add(dvc)
