"""Virtual channels and their per-VC state fields.

Paper Section II-C (Figure 3d): each VC is associated with state fields

* ``G`` — pipeline-stage status of the VC (:class:`VCState` here),
* ``R`` — result of routing computation (output port),
* ``O`` — result of VC allocation (downstream VC id),
* ``P`` — read/write pointers (implicit in our deque buffer),
* ``C`` — credit count (tracked on the *output* side, see
  :class:`repro.router.router.OutputPort`).

Section V-B2 (Figure 4) adds the fault-tolerance fields ``R2``/``VF``/
``ID`` (a borrow request deposited with the lender VC) and ``SP``/``FSP``
(the secondary-path port and flag).  The model gets their effect without
storing them: the VA unit's per-cycle lent set carries the borrow, and
the crossbar's path plan names the SA stage-2 arbiter of the secondary
path (DESIGN.md section 1).  The one fault-tolerance field a VC keeps is
``va_excluded``, the downstream VCs a VA stage-2 retry must avoid.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Optional

from .flit import Flit


class VCState(enum.IntEnum):
    """The ``G`` field: which pipeline stage the VC's current packet is in."""

    IDLE = 0
    #: head flit waiting for / undergoing routing computation
    ROUTING = 1
    #: waiting for a downstream VC grant from the VA unit
    WAITING_VA = 2
    #: allocated; flits compete in switch allocation
    ACTIVE = 3


class VirtualChannel:
    """One flit FIFO plus the per-VC register state.

    The state machine operates on the packet whose flits are at the front
    of the buffer; flits of a subsequent packet may legally queue up behind
    the current packet's tail (the upstream router only reallocates the
    downstream VC after it forwards the tail, so flit order within a VC is
    always head..body..tail per packet, packets back to back).
    """

    __slots__ = (
        "port",
        "index",
        "capacity",
        "buffer",
        "state",
        "route",
        "out_vc",
        "packet_id",
        "va_excluded",
    )

    def __init__(self, port: int, index: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("VC capacity must be >= 1")
        self.port = port
        self.index = index
        self.capacity = capacity
        self.buffer: Deque[Flit] = deque()
        self.state = VCState.IDLE
        #: ``R`` field — logical output port of the current packet
        self.route: Optional[int] = None
        #: ``O`` field — allocated downstream VC of the current packet
        self.out_vc: Optional[int] = None
        #: id of the packet currently owning this VC's pipeline state
        self.packet_id: Optional[int] = None
        #: downstream VCs excluded after a stage-2 arbiter fault was hit
        #: (Section V-B3 recompute-with-another-VC, protected router only)
        self.va_excluded: Optional[set] = None

    # ------------------------------------------------------------------
    # buffer operations
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of flits currently buffered."""
        return len(self.buffer)

    @property
    def free_slots(self) -> int:
        """Remaining buffer capacity in flits."""
        return self.capacity - len(self.buffer)

    @property
    def is_empty(self) -> bool:
        return not self.buffer

    def front(self) -> Flit:
        """The flit that would traverse the switch next."""
        return self.buffer[0]

    def enqueue(self, flit: Flit) -> None:
        """Buffer write (BW).  Raises on overflow — credits must prevent it."""
        if len(self.buffer) >= self.capacity:
            raise OverflowError(
                f"VC ({self.port},{self.index}) overflow: credit protocol violated"
            )
        self.buffer.append(flit)
        if self.state == VCState.IDLE:
            if not flit.is_head:
                raise AssertionError(
                    "non-head flit arrived at an idle VC: upstream wormhole "
                    "invariant broken"
                )
            self._start_packet(flit)

    def dequeue(self) -> Flit:
        """Remove and return the front flit (switch traversal)."""
        if not self.buffer:
            raise IndexError("dequeue from empty VC")
        flit = self.buffer.popleft()
        if flit.is_tail:
            self._finish_packet()
        return flit

    # ------------------------------------------------------------------
    # packet lifecycle
    # ------------------------------------------------------------------
    def _start_packet(self, head: Flit) -> None:
        self.state = VCState.ROUTING
        self.route = None
        self.out_vc = None
        self.va_excluded = None
        self.packet_id = head.packet_id

    def _finish_packet(self) -> None:
        """Tail left: free resources; start the next queued packet if any."""
        self.route = None
        self.out_vc = None
        self.va_excluded = None
        self.packet_id = None
        if self.buffer:
            head = self.buffer[0]
            if not head.is_head:
                raise AssertionError(
                    "flit following a tail is not a head: packet interleaving "
                    "within a VC is not allowed"
                )
            self._start_packet(head)
        else:
            self.state = VCState.IDLE

    # ------------------------------------------------------------------
    # in-place reset
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore power-on state without reallocating the object.

        Every field returns to its ``__init__`` value so a reset VC is
        indistinguishable from a freshly constructed one.
        """
        self.buffer.clear()
        self.state = VCState.IDLE
        self.route = None
        self.out_vc = None
        self.packet_id = None
        self.va_excluded = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VC(p{self.port},v{self.index}, {self.state.name}, "
            f"{len(self.buffer)}/{self.capacity} flits, R={self.route}, "
            f"O={self.out_vc})"
        )
