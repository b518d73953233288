"""In-memory span recorder and the wrappers the traced pass installs.

Spans are recorded from outside the program: :func:`install` patches the
public entry points of each layer (never a per-cycle function) with a
wrapper that opens a span, calls the original and closes the span.  A
span is ``{id, name, start, end, parent, run_id, attrs}``; ``parent`` is
the id of the span that was open when this one started (``None`` for a
root), so the spans of one pass form a forest.  Self time of a span is
its duration minus the durations of its direct children.

The resilient runtime executes sweep points in forked workers; spans
opened there die with the worker.  The traced pass therefore takes
engine spans from a second, in-process pass with no runtime (see
``layers.py``).
"""

from __future__ import annotations

import functools
import json
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Window = Tuple[float, float]


class Tracer:
    """Records spans in memory; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        #: identifier shared by every span of one pass / one request
        self.run_id = ""

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        sp: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "attrs": {},
        }
        self.spans.append(sp)
        self._open.append(sp["id"])
        sp["start"] = perf_counter()
        try:
            yield sp
        finally:
            sp["end"] = perf_counter()
            self._open.pop()

    # -- queries (a window is a pass's ``(start, end)`` on perf_counter) --
    def select(self, name: str, window: Optional[Window] = None) -> List[Dict[str, Any]]:
        lo, hi = window or (float("-inf"), float("inf"))
        return [
            s for s in self.spans if s["name"] == name and lo <= s["start"] <= hi
        ]

    def durations(self, name: str, window: Optional[Window] = None) -> List[float]:
        return [s["end"] - s["start"] for s in self.select(name, window)]

    def self_times(self, window: Window) -> Dict[str, float]:
        """Span name -> summed self time (duration minus direct children)."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: Dict[str, float] = {}
        for s in self.spans:
            if window[0] <= s["start"] <= window[1]:
                own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: str, **header: Any) -> None:
        with open(path, "w") as fp:
            json.dump({**header, "spans": self.spans}, fp, indent=1)


def _patch(
    stack: ExitStack,
    tracer: Tracer,
    owner: Any,
    attr: str,
    name: str,
    after: Optional[Callable[[Dict[str, Any], tuple, Any], None]] = None,
) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name) as sp:
            out = orig(*args, **kwargs)
            if after is not None:
                after(sp["attrs"], args, out)
            return out

    setattr(owner, attr, wrapper)
    stack.callback(setattr, owner, attr, orig)


def _engine_run_attrs(attrs: Dict[str, Any], args: tuple, out: Any) -> None:
    results = out if isinstance(out, list) else [out]
    attrs["cycles"] = sum(r.cycles for r in results)
    attrs["flit_hops"] = sum(r.router_stats.flits_traversed for r in results)
    occupancy = getattr(args[0], "lane_occupancy", None)
    if occupancy is not None:
        attrs["lane_occupancy"] = occupancy


@contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the public entry point(s) of every layer; restore on exit.

    Span names are ``<module>.<function>`` with the ``repro.`` prefix
    dropped, so the layer of a span is its name up to the last dot
    (class names are dropped too: ``network.batched.run``).
    """
    from repro.experiments import (
        fault_campaign, fault_sweep, fig7, fig8, parallel, resilient,
    )
    from repro.network import batched, simulator, stats, warm
    from repro.service import cache, fingerprint

    with ExitStack() as stack:
        for owner, attr, name, after in (
            (fig7, "run", "experiments.latency.fig7", None),
            (fig8, "run", "experiments.latency.fig8", None),
            (fault_campaign, "run", "experiments.fault_campaign.run", None),
            (fault_sweep, "run", "experiments.fault_sweep.run", None),
            (parallel, "run_lane_sweep", "experiments.parallel.run_lane_sweep", None),
            (parallel, "run_sweep", "experiments.parallel.run_sweep", None),
            (resilient.CheckpointStore, "append", "experiments.resilient.append", None),
            (batched.BatchedLaneEngine, "__init__", "network.batched.build", None),
            (batched.BatchedLaneEngine, "run", "network.batched.run", _engine_run_attrs),
            (simulator.NoCSimulator, "__init__", "network.simulator.build", None),
            (simulator.NoCSimulator, "run", "network.simulator.run", _engine_run_attrs),
            (warm, "acquire", "network.warm.acquire", None),
            (stats.NetworkStats, "summary", "network.stats.summary", None),
            (cache.ResultCache, "get", "service.cache.get", None),
            (cache.ResultCache, "put", "service.cache.put", None),
            (fingerprint, "build_config", "service.fingerprint.build_config", None),
            (fingerprint, "request_fingerprint", "service.fingerprint.request_fingerprint", None),
        ):
            _patch(stack, tracer, owner, attr, name, after)
        yield tracer
