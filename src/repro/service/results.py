"""JSON rendering of :class:`~repro.experiments.report.ExperimentResult`.

The HTTP service and the result cache speak JSON; experiment modules
return rich Python objects (rows with numpy scalars, ``extras`` holding
sweep reports, ASCII charts, raw row tuples).  :func:`render_result`
flattens them deterministically:

* rows keep their full paper-vs-measured structure;
* ``extras`` keeps every JSON-representable value (tuples become lists,
  numpy scalars become Python numbers) and silently drops live objects
  (the sweep report is summarized separately under ``"sweep"`` — its
  wall times are provenance, not part of the deterministic payload, so
  the cache stores them outside the hashed result; see
  :mod:`repro.service.cache`);
* the human-readable ``format()`` text rides along for CLI-less
  clients.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from ..experiments.parallel import SweepReport
from ..experiments.report import ExperimentResult

__all__ = ["render_result", "sweep_summary"]

_MISSING = object()


def _jsonable(value: Any) -> Any:
    """``value`` as JSON builtins, or ``_MISSING`` when unrepresentable."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return _jsonable(item())  # numpy scalar
    if isinstance(value, (list, tuple)):
        out = [_jsonable(v) for v in value]
        return _MISSING if any(v is _MISSING for v in out) else out
    if isinstance(value, dict):
        out_d: Dict[str, Any] = {}
        for k, v in value.items():
            jv = _jsonable(v)
            if jv is _MISSING or not isinstance(k, (str, int, float, bool)):
                return _MISSING
            out_d[str(k)] = jv
        return out_d
    return _MISSING


def sweep_summary(report: Any) -> Optional[Dict[str, Any]]:
    """Non-semantic provenance of a sweep: shape + timing, no values."""
    if not isinstance(report, SweepReport):
        return None
    return {
        "points": report.points,
        "jobs": report.jobs,
        "resumed": report.resumed,
        "retries": report.retries,
        "timeouts": report.timeouts,
        "cycles": report.cycles,
        "wall_s": round(report.wall_time, 6),
    }


def render_result(
    result: ExperimentResult,
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Split one experiment result into (deterministic payload, provenance).

    The first element is the cacheable result body — everything in it is
    a pure function of the request fingerprint.  The second is the sweep
    summary (wall-clock timings vary run to run) or ``None`` for
    analytic experiments.
    """
    rows = [
        {
            "label": row.label,
            "measured": _none_if_missing(_jsonable(row.measured)),
            "paper": _none_if_missing(_jsonable(row.paper)),
            "unit": row.unit,
            "note": row.note,
        }
        for row in result.rows
    ]
    extras: Dict[str, Any] = {}
    sweep = None
    for key, value in result.extras.items():
        if key == "sweep":
            sweep = sweep_summary(value)
            continue
        jv = _jsonable(value)
        if jv is not _MISSING:
            extras[key] = jv
    payload = {
        "experiment": result.experiment,
        "title": result.title,
        "rows": rows,
        "extras": extras,
        "text": result.format(),
    }
    return payload, sweep


def _none_if_missing(value: Any) -> Any:
    return None if value is _MISSING else value
