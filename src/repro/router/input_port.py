"""Input ports: VC storage plus the wire-id indirection.

Paper Figure 3d shows an input port with four VCs.  The protected router's
SA-stage-1 mechanism (Section V-C1) *transfers flits and state fields*
between two VCs of the same input port so that a rotating "default winner"
VC always has work when the port's SA arbiter is bypassed.

Moving buffered flits while more flits of the same packet are still in
flight upstream requires the input demultiplexer to steer those later
arrivals into the *new* VC.  We model that steering with a wire-id
indirection: every VC object carries an immutable ``wire`` id (the VC id
upstream routers allocate, send flits to, and count credits for) and a
mutable *physical slot* position inside the port.  A transfer simply swaps
two VC objects' slots — upstream state, in-flight flits, and credit
accounting all keep working because they are keyed by wire id.

The baseline router never swaps, so wire id == physical slot throughout.
"""

from __future__ import annotations

from typing import Iterator, List

from .vc import VCState, VirtualChannel


class InputPort:
    """VC array of one input port with wire→physical indirection."""

    __slots__ = ("port", "num_vcs", "slots", "nonidle", "_wire_to_phys")

    def __init__(self, port: int, num_vcs: int, buffer_depth: int) -> None:
        self.port = port
        self.num_vcs = num_vcs
        #: VC objects indexed by *physical slot*
        self.slots: List[VirtualChannel] = [
            VirtualChannel(port, v, buffer_depth) for v in range(num_vcs)
        ]
        #: count of non-IDLE VCs in this port, maintained by the router
        #: (``receive_flit`` / ``xb_phase``); allocator and RC scans skip
        #: ports with no work.  Slot swaps (FT VC transfers) exchange VCs
        #: within the port, so they never change this count.
        self.nonidle = 0
        self._wire_to_phys: List[int] = list(range(num_vcs))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def by_wire(self, wire: int) -> VirtualChannel:
        """The VC that currently receives flits addressed to ``wire``."""
        return self.slots[self._wire_to_phys[wire]]

    def by_slot(self, slot: int) -> VirtualChannel:
        """The VC occupying physical slot ``slot``."""
        return self.slots[slot]

    def phys_of_wire(self, wire: int) -> int:
        """Physical slot currently backing wire id ``wire``."""
        return self._wire_to_phys[wire]

    def __iter__(self) -> Iterator[VirtualChannel]:
        return iter(self.slots)

    # ------------------------------------------------------------------
    # the transfer operation (Section V-C1)
    # ------------------------------------------------------------------
    def swap_slots(self, slot_a: int, slot_b: int) -> None:
        """Exchange the VCs in two physical slots.

        Models the paper's flit + state-field transfer: after the swap the
        contents previously in ``slot_a`` occupy ``slot_b`` and vice versa,
        and future arrivals follow their wire ids to the new slots.
        """
        if slot_a == slot_b:
            return
        vcs = self.slots
        va, vb = vcs[slot_a], vcs[slot_b]
        vcs[slot_a], vcs[slot_b] = vb, va
        self._wire_to_phys[va.index], self._wire_to_phys[vb.index] = (
            self._wire_to_phys[vb.index],
            self._wire_to_phys[va.index],
        )

    # ------------------------------------------------------------------
    # in-place reset (driven by ``BaseRouter.clear_dynamic_state``)
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Empty every VC and idle the port; slot swaps are kept."""
        for vc in self.slots:
            vc.reset()
        self.nonidle = 0

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def total_occupancy(self) -> int:
        """Buffered flits across all VCs of this port."""
        return sum(vc.occupancy for vc in self.slots)

    def idle(self) -> bool:
        """True when every VC of the port is idle and empty."""
        return all(vc.state == VCState.IDLE and vc.is_empty for vc in self.slots)

    def check_invariants(self) -> None:
        """Assert the indirection is a permutation (test helper).

        (The ``nonidle`` counter is router-maintained, so its consistency
        is asserted by ``BaseRouter.check_invariants`` — standalone ports
        fed directly in unit tests legitimately leave it at zero.)
        """
        assert sorted(self._wire_to_phys) == list(range(self.num_vcs))
        for wire, phys in enumerate(self._wire_to_phys):
            assert self.slots[phys].index == wire, (
                f"wire {wire} maps to slot {phys} holding VC "
                f"{self.slots[phys].index}"
            )
