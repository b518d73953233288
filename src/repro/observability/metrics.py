"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the quantitative half of :mod:`repro.observability`: it
captures *how often* things happened (stall causes, VA/SA retries,
fault-path activations, packet latencies) where the event tracer
captures *when*.  Three design rules keep it compatible with the
deterministic parallel sweep engine (:mod:`repro.experiments.parallel`):

* **Integer-first.**  Counters and histogram buckets are plain ints, so
  merging per-shard snapshots is exact — no float summation order
  effects.  ``--jobs 4`` therefore produces bit-identical metrics to
  ``--jobs 1`` (pinned by ``tests/test_observability.py``).
* **Snapshot = plain dicts.**  :meth:`MetricsRegistry.snapshot` returns
  JSON-ready builtins that pickle cheaply across process boundaries;
  :func:`merge_snapshots` folds any number of them in a caller-supplied
  (task-index) order.
* **Fixed bucket edges.**  Histograms never rebucket on observe, so two
  histograms of the same series always merge bucket-by-bucket.

Bucket semantics follow Prometheus ``le`` convention: bucket ``i`` counts
values ``v <= edges[i]`` (upper-inclusive), with one extra overflow
bucket for ``v > edges[-1]``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DEFAULT_EDGES",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
]

#: generic latency/size edges (cycles or flits): roughly geometric
DEFAULT_EDGES: Tuple[float, ...] = (
    0, 1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192,
    256, 384, 512, 768, 1024, 1536, 2048, 4096,
)


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical flat key: ``name{k1=v1,k2=v2}`` with sorted label keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Histogram:
    """Fixed-edge histogram with an overflow bucket.

    ``counts[i]`` counts observations ``v <= edges[i]``; ``counts[-1]``
    counts ``v > edges[-1]``.  ``total`` accumulates the raw sum so the
    mean survives bucketing.
    """

    __slots__ = ("edges", "counts", "count", "total")

    def __init__(self, edges: Sequence[float] = DEFAULT_EDGES) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be non-empty and sorted")
        self.edges: List[float] = list(edges)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value

    def observe_many(self, values: np.ndarray) -> None:
        """``observe`` every element of an integer array, in one pass."""
        buckets = np.searchsorted(self.edges, values, side="left")
        per_bucket = np.bincount(buckets, minlength=len(self.counts)).tolist()
        self.counts = [a + b for a, b in zip(self.counts, per_bucket)]
        self.count += len(values)
        self.total += float(values.sum())

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def bucket_of(self, value: float) -> int:
        """Index of the bucket an observation of ``value`` lands in."""
        return bisect_left(self.edges, value)

    def snapshot(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (edges must match)."""
        if other.edges != self.edges:
            raise ValueError("cannot merge histograms with different edges")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total


class MetricsRegistry:
    """Flat registry of named, labelled counters / gauges / histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1, **labels: object) -> None:
        """Add ``value`` to the counter ``name`` (created on first use)."""
        key = metric_key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + int(value)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge ``name`` to ``value`` (merge keeps the max)."""
        self.gauges[metric_key(name, labels)] = float(value)

    def adopt_histogram(
        self, name: str, hist: Histogram, **labels: object
    ) -> None:
        """Fold an externally built histogram into the histogram ``name``."""
        key = metric_key(name, labels)
        self.histograms.setdefault(key, Histogram(hist.edges)).merge(hist)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON/pickle-ready snapshot with deterministically sorted keys."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                k: self.histograms[k].snapshot()
                for k in sorted(self.histograms)
            },
        }


def merge_snapshots(snapshots: Iterable[Optional[dict]]) -> dict:
    """Fold metric snapshots (skipping ``None``) into one merged snapshot.

    Counters and histogram buckets sum; gauges keep the maximum.  All
    arithmetic is on ints except gauge max, so the result is independent
    of how the inputs were sharded across workers — callers should still
    pass snapshots in task-index order so float ``total`` fields
    accumulate identically every time.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    hists: Dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for k, v in snap.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, g in snap.get("gauges", {}).items():
            gauges[k] = max(gauges.get(k, g), g)
        for k, h in snap.get("histograms", {}).items():
            acc = hists.get(k)
            if acc is None:
                hists[k] = {
                    "edges": list(h["edges"]),
                    "counts": list(h["counts"]),
                    "count": h["count"],
                    "total": h["total"],
                }
                continue
            if acc["edges"] != h["edges"]:
                raise ValueError(f"histogram {k!r}: edges differ across shards")
            acc["counts"] = [
                a + b for a, b in zip(acc["counts"], h["counts"], strict=True)
            ]
            acc["count"] += h["count"]
            acc["total"] += h["total"]
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {k: hists[k] for k in sorted(hists)},
    }
