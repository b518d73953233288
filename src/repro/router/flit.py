"""Flits and packets — the units of data movement in the NoC.

Section II-A of the paper: "data traverses in the NoC in the form of flits
(flow control information units).  Typically, a packet is segmented into a
head flit, single or multiple body flits and a tail flit.  Head flit
allocates router resources to the packet, body flit(s) contain the payload
of the packet and tail flit frees the router resources allocated to the
packet."

A single-flit packet is represented by a flit that is simultaneously head
and tail (``FlitType.HEAD_TAIL``), matching how one-flit control messages
behave in GARNET.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, Optional


class FlitType(enum.IntEnum):
    """Position of a flit within its packet."""

    HEAD = 0
    BODY = 1
    TAIL = 2
    HEAD_TAIL = 3


_packet_ids = itertools.count()


def reset_packet_ids() -> None:
    """Restart the global packet id counter (test isolation helper)."""
    global _packet_ids
    _packet_ids = itertools.count()


class Flit:
    """One flow-control unit.

    Mutable per-hop fields (set by the pipeline) live on the flit so that
    downstream stages and the statistics module can observe them.
    """

    __slots__ = (
        "ftype",
        "is_head",
        "is_tail",
        "packet_id",
        "src",
        "dest",
        "vnet",
        "flit_index",
        "packet_len",
        "payload",
        "creation_cycle",
        "injection_cycle",
        "hops",
    )

    def __init__(
        self,
        ftype: FlitType,
        packet_id: int,
        src: int,
        dest: int,
        vnet: int = 0,
        flit_index: int = 0,
        packet_len: int = 1,
        payload: object = None,
        creation_cycle: int = 0,
    ) -> None:
        self.ftype = ftype
        #: head/tail role, precomputed — the pipeline tests these on every
        #: buffer write and switch traversal, and ``ftype`` never changes
        #: after construction
        self.is_head: bool = ftype is FlitType.HEAD or ftype is FlitType.HEAD_TAIL
        self.is_tail: bool = ftype is FlitType.TAIL or ftype is FlitType.HEAD_TAIL
        self.packet_id = packet_id
        self.src = src
        self.dest = dest
        self.vnet = vnet
        self.flit_index = flit_index
        self.packet_len = packet_len
        self.payload = payload
        self.creation_cycle = creation_cycle
        #: cycle the flit entered the network (left the NIC source queue)
        self.injection_cycle: int = -1
        #: number of routers traversed so far
        self.hops: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Flit({self.ftype.name}, pkt={self.packet_id}, "
            f"{self.src}->{self.dest}, idx={self.flit_index}/{self.packet_len})"
        )


class Packet:
    """A message to be segmented into flits.

    ``size_flits`` counts all flits including head and tail.  The paper's
    latency experiments use a coherence-style mix of 1-flit control packets
    and multi-flit data packets; the traffic generators build those.
    """

    __slots__ = (
        "packet_id",
        "src",
        "dest",
        "size_flits",
        "vnet",
        "creation_cycle",
        "payload",
    )

    def __init__(
        self,
        src: int,
        dest: int,
        size_flits: int,
        vnet: int = 0,
        creation_cycle: int = 0,
        payload: object = None,
        packet_id: Optional[int] = None,
    ) -> None:
        if size_flits < 1:
            raise ValueError("packets contain at least one flit")
        if src == dest:
            raise ValueError("source and destination must differ")
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        self.src = src
        self.dest = dest
        self.size_flits = size_flits
        self.vnet = vnet
        self.creation_cycle = creation_cycle
        self.payload = payload

    def flits(self) -> Iterator[Flit]:
        """Segment the packet into its flit sequence (head..body..tail)."""
        n = self.size_flits
        for i in range(n):
            if n == 1:
                ftype = FlitType.HEAD_TAIL
            elif i == 0:
                ftype = FlitType.HEAD
            elif i == n - 1:
                ftype = FlitType.TAIL
            else:
                ftype = FlitType.BODY
            yield Flit(
                ftype,
                self.packet_id,
                self.src,
                self.dest,
                vnet=self.vnet,
                flit_index=i,
                packet_len=n,
                payload=self.payload if i == 0 else None,
                creation_cycle=self.creation_cycle,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Packet(id={self.packet_id}, {self.src}->{self.dest}, "
            f"{self.size_flits} flits, vnet={self.vnet})"
        )
