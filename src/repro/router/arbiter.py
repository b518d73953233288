"""Arbiters — the fundamental building block of the VA and SA stages.

The paper's FIT accounting (Table I) treats the ``v:1`` and ``pi:1`` arbiters
as the fundamental components of the allocation stages, and its fault model
marks whole arbiters as faulty.  Every allocator uses
:class:`RoundRobinArbiter` — rotating priority, the winner gets lowest
priority next time — because it is starvation-free, which the paper's
bypass-path discussion (Section V-C1) relies on, and because it is the
arbiter the lane engine's array kernels reproduce.

The interface is ``grant(requests) -> winner | None`` where ``requests``
is an iterable of requester indices.  An arbiter carries no fault flag:
the allocators consult the router's
:class:`repro.faults.sites.RouterFaultState` before asking an arbiter, so
a faulty arbiter is simply never asked and its flit blocks (Section V:
the flit "would not be allocated ... resulting in the flit being
blocked").
"""

from __future__ import annotations

from typing import Iterable, Optional


class RoundRobinArbiter:
    """Rotating-priority arbiter.

    Priority starts at requester 0; after a grant to requester *i*,
    requester *i+1 (mod size)* has top priority.  ``grant`` runs in
    O(#requests) using modular distance, not O(size).
    """

    __slots__ = ("size", "_priority")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("arbiter needs at least one requester")
        self.size = size
        self._priority = 0

    @property
    def priority(self) -> int:
        """Requester index that currently has top priority."""
        return self._priority

    def grant(self, requests: Iterable[int]) -> Optional[int]:
        """Pick the requester closest (cyclically) to the priority pointer.

        Returns ``None`` when there are no requests.  On a grant the
        priority pointer advances past the winner.
        """
        best = None
        best_dist = self.size
        prio = self._priority
        size = self.size
        for r in requests:
            if r < 0 or r >= size:
                raise ValueError(f"requester {r} out of range 0..{size - 1}")
            dist = (r - prio) % size
            if dist < best_dist:
                best = r
                best_dist = dist
                if dist == 0:
                    break
        if best is not None:
            self._priority = (best + 1) % size
        return best
