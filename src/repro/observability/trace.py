"""Chrome ``trace_event`` export for the flit-lifecycle tracer.

Produces the JSON object format understood by ``chrome://tracing`` and
Perfetto (https://ui.perfetto.dev): ``{"traceEvents": [...]}`` where each
simulated router becomes one *process* and each pipeline stage one
*thread* inside it, so a loaded trace shows per-router swim lanes with
RC/VA/SA/XB/link/NIC activity over cycles.  A ``packet`` event is one
slice from the packet's injection to its ejection on its source router's
``packet`` row.  Timestamps are simulation cycles interpreted as
microseconds (1 cycle == 1 us).

Multiple simulations (e.g. the points of a ``fig7`` sweep) can share one
file: each point's routers get their own pid block, labelled
``<point label> / router <n>`` via ``process_name`` metadata events.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, Sequence, Tuple

from .events import TraceEvent

__all__ = ["chrome_trace", "write_chrome_trace", "STAGE_LANES"]

#: event kind -> (tid, lane name): one thread row per pipeline stage
STAGE_LANES: Dict[str, Tuple[int, str]] = {
    "inject": (0, "nic"),
    "eject": (0, "nic"),
    "rc": (1, "rc"),
    "va_grant": (2, "va"),
    "va_retry": (2, "va"),
    "sa_grant": (3, "sa"),
    "sa_bypass": (3, "sa"),
    "xb": (4, "xb"),
    "link": (5, "link"),
    "packet": (6, "packet"),
}

#: pid stride per sweep point: room for a 64x64 mesh per point
_PID_STRIDE = 4096


def _event_name(kind: str, payload: dict) -> str:
    """Display name; splits primary/secondary XB crossings into two rows."""
    if kind == "xb":
        return "xb_secondary" if payload.get("secondary") else "xb_primary"
    return kind


def chrome_trace(
    points: Sequence[Tuple[str, Iterable[TraceEvent]]],
) -> dict:
    """Build the trace-event JSON object for one or more traced runs.

    ``points`` is a sequence of ``(label, events)`` pairs — one pair per
    simulation.  Labels distinguish sweep points (app / fault state).
    """
    trace_events: list = []
    named_pids: set = set()
    named_tids: set = set()
    for point_idx, (label, events) in enumerate(points):
        base_pid = point_idx * _PID_STRIDE
        for cycle, kind, node, payload in events:
            start, dur = cycle, 1
            if kind == "packet":  # injection to ejection, on the source router
                node, start = payload["src"], payload["inject"]
                dur = cycle - start
            pid = base_pid + node
            tid, lane = STAGE_LANES.get(kind, (7, kind))
            if pid not in named_pids:
                named_pids.add(pid)
                prefix = f"{label} / " if label else ""
                trace_events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": f"{prefix}router {node}"},
                    }
                )
            if (pid, tid) not in named_tids:
                named_tids.add((pid, tid))
                trace_events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": lane},
                    }
                )
            trace_events.append(
                {
                    "name": _event_name(kind, payload),
                    "cat": "flit",
                    "ph": "X",
                    "ts": start,
                    "dur": dur,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(payload),
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.observability", "ts_unit": "cycle"},
    }


def write_chrome_trace(
    fp: IO[str],
    points: Sequence[Tuple[str, Iterable[TraceEvent]]],
) -> int:
    """Serialise :func:`chrome_trace` to ``fp``; returns #trace events."""
    doc = chrome_trace(points)
    json.dump(doc, fp, separators=(",", ":"))
    return len(doc["traceEvents"])
