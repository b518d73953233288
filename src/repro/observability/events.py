"""Flit-lifecycle event tracer with bounded ring-buffer storage.

Every stage of a flit's life through the RC/VA/SA/XB pipeline emits one
event on the object engine when a simulator is handed a tracer, and
every delivered packet one ``packet`` event on either engine under any
trace:

========== ===========================================================
kind       emitted when
========== ===========================================================
inject     a flit leaves the NIC source queue onto the local input port
rc         routing computation resolves a head flit's output port
va_grant   VC allocation succeeds (``borrowed`` set on lent arbiters)
va_retry   a stage-2 VA arbiter fault forces a retry (+1 cycle)
sa_grant   switch allocation succeeds (``secondary`` marks the
           crossbar secondary path, the paper's FSP)
sa_bypass  the SA stage-1 bypass granted the rotating default winner
xb         a flit traverses the crossbar (primary or secondary mux)
link       a flit leaves a router onto an inter-router link
eject      a flit is consumed by the destination NIC
packet     a packet's tail is consumed: its record (node = destination,
           cycle = ejection), the one kind both engines produce
========== ===========================================================

The per-kind payload fields are pinned by :data:`EVENT_SCHEMA` (and a
golden test).  Storage is a ``deque(maxlen=capacity)`` ring: the latest
``capacity`` events are retained, older ones are dropped and counted, so
tracing a long run is memory-bounded by construction.

Emission sites live behind ``tracer is not None`` attribute checks in the
router/NIC/simulator hot paths — with tracing disabled the only cost is
that check.  The lane engine keeps no per-stage state to emit from: a
retiring lane builds its ``packet`` events in bulk from its packet table
(:func:`packet_events`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["EVENT_SCHEMA", "EventTracer", "TraceEvent", "packet_event", "packet_events"]

#: event kind -> sorted tuple of payload field names (the pinned schema)
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    "inject": ("dest", "flit", "packet", "src", "vc", "vnet"),
    "rc": ("in_port", "out_port", "packet"),
    "va_grant": ("borrowed", "in_port", "in_slot", "out_port", "out_vc", "packet"),
    "va_retry": ("out_port", "out_vc", "packet"),
    "sa_grant": ("in_port", "out_port", "packet", "secondary"),
    "sa_bypass": ("packet", "port", "slot"),
    "xb": ("flit", "in_port", "out_port", "out_vc", "packet", "secondary"),
    "link": ("flit", "out_port", "out_vc", "packet"),
    "eject": ("dest", "flit", "packet", "src", "vc"),
    "packet": ("creation", "dest", "hops", "inject", "packet", "size", "src", "vnet"),
}

#: one stored event: (cycle, kind, node, payload)
TraceEvent = Tuple[int, str, int, dict]

DEFAULT_CAPACITY = 16384


class EventTracer:
    """Bounded ring buffer of flit-lifecycle events."""

    __slots__ = ("capacity", "emitted", "_buf")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = capacity
        self.emitted = 0
        self._buf: Deque[TraceEvent] = deque(maxlen=capacity)

    # ------------------------------------------------------------------
    def emit(self, cycle: int, kind: str, node: int, **payload: object) -> None:
        """Record one event; oldest events fall off a full ring."""
        self.emitted += 1
        self._buf.append((cycle, kind, node, payload))

    def extend(self, events: List[TraceEvent], emitted: int) -> None:
        """Record the last ``len(events)`` of ``emitted`` events built in
        bulk; the rest count as dropped, as if they fell off the ring."""
        self.emitted += emitted
        self._buf.extend(events)

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events lost to the ring bound."""
        return self.emitted - len(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def events(self) -> list:
        """Retained events, oldest first."""
        return list(self._buf)

    def snapshot(self) -> dict:
        """Picklable export: ring contents plus accounting."""
        return {
            "capacity": self.capacity,
            "emitted": self.emitted,
            "dropped": self.dropped,
            "events": self.events(),
        }


def packet_event(
    pid: int, src: int, dest: int, vnet: int, size: int,
    creation: int, inject: int, ejection: int, hops: int,
) -> TraceEvent:
    """One delivered packet's ``packet`` event, from its
    :class:`~repro.network.stats.LatencySample` fields in field order."""
    return (ejection, "packet", dest, {
        "packet": pid, "src": src, "dest": dest, "vnet": vnet, "size": size,
        "creation": creation, "inject": inject, "hops": hops,
    })


def packet_events(columns: Sequence[np.ndarray], keep: int) -> List[TraceEvent]:
    """The ``packet`` events of the last ``keep`` rows of ``columns``, one
    array per ``LatencySample`` field in field order and rows in ejection
    order: a retiring lane's packets, built in one pass."""
    return list(map(packet_event, *(c[-keep:].tolist() for c in columns)))


def validate_event(event: TraceEvent) -> None:
    """Assert ``event`` conforms to :data:`EVENT_SCHEMA` (test helper)."""
    cycle, kind, node, payload = event
    if kind not in EVENT_SCHEMA:
        raise ValueError(f"unknown event kind {kind!r}")
    expected = EVENT_SCHEMA[kind]
    got = tuple(sorted(payload))
    if got != expected:
        raise ValueError(
            f"{kind} payload fields {got} != schema {expected}"
        )
    if cycle < 0 or node < 0:
        raise ValueError(f"negative cycle/node in {event!r}")
