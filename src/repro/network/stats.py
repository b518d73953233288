"""Network-level statistics collection.

The paper's latency analysis (Section IX, Figures 7 and 8) reports average
NoC packet latency per application, fault-free vs. fault-injected.  This
module accumulates per-packet latencies inside a measurement window and
exposes the aggregates the experiment harness prints.

Latency definitions (standard, GARNET-compatible):

* *network latency* — head-flit injection (entering the source router's
  local input port) to tail-flit ejection at the destination NIC;
* *total latency* — packet creation (entering the NIC source queue) to
  tail ejection, i.e. network latency plus source queueing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..observability.metrics import Histogram

#: network-latency histogram bucket upper edges (cycles); fixed so that
#: per-shard histograms always merge bucket-by-bucket (upper-inclusive
#: ``le`` semantics, one extra overflow bucket past the last edge)
LATENCY_EDGES = (
    4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256,
    384, 512, 768, 1024, 1536, 2048,
)


@dataclass
class LatencySample:
    """One completed packet's timing record."""

    packet_id: int
    src: int
    dest: int
    vnet: int
    size_flits: int
    creation_cycle: int
    injection_cycle: int
    ejection_cycle: int
    hops: int

    @property
    def network_latency(self) -> int:
        return self.ejection_cycle - self.injection_cycle

    @property
    def total_latency(self) -> int:
        return self.ejection_cycle - self.creation_cycle


class NetworkStats:
    """Aggregates packet completions during the measurement window."""

    def __init__(self, keep_samples: bool = False) -> None:
        self.keep_samples = keep_samples
        self.samples: list[LatencySample] = []
        self.packets_created = 0
        self.packets_injected = 0
        self.packets_ejected = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        self.measured_packets = 0
        self._net_latency_sum = 0
        self._total_latency_sum = 0
        self._hops_sum = 0
        self._net_latency_max = 0
        #: always-on bounded histogram of measured network latencies —
        #: one bisect per completed packet, far off the per-cycle hot path
        self.latency_hist = Histogram(LATENCY_EDGES)
        #: per-virtual-network (count, network-latency sum) accumulators
        self._vnet_acc: dict[int, list[int]] = {}
        self.measure_start: Optional[int] = None
        self.measure_end: Optional[int] = None

    # ------------------------------------------------------------------
    def set_window(self, start: int, end: int) -> None:
        """Packets *created* in [start, end) count toward latency stats."""
        self.measure_start = start
        self.measure_end = end

    def in_window(self, creation_cycle: int) -> bool:
        if self.measure_start is None:
            return True
        assert self.measure_end is not None
        return self.measure_start <= creation_cycle < self.measure_end

    # ------------------------------------------------------------------
    def record_packet(self, sample: LatencySample) -> None:
        """Record a completed packet (tail ejected)."""
        self.packets_ejected += 1
        if not self.in_window(sample.creation_cycle):
            return
        self.measured_packets += 1
        self._net_latency_sum += sample.network_latency
        self._total_latency_sum += sample.total_latency
        self._hops_sum += sample.hops
        if sample.network_latency > self._net_latency_max:
            self._net_latency_max = sample.network_latency
        self.latency_hist.observe(sample.network_latency)
        acc = self._vnet_acc.setdefault(sample.vnet, [0, 0])
        acc[0] += 1
        acc[1] += sample.network_latency
        if self.keep_samples:
            self.samples.append(sample)

    def record_packets(self, columns: Sequence[np.ndarray]) -> None:
        """``record_packet`` for whole columns, rows in ejection order.

        ``columns`` holds one array per :class:`LatencySample` field, in
        field order.  The lane engine keeps packets as table columns and
        reduces a finished lane here in one pass; every aggregate ends up
        exactly what per-packet recording in row order would have left.
        """
        creation = columns[5]
        self.packets_ejected += len(creation)
        if self.measure_start is not None:
            measured = (creation >= self.measure_start) & (creation < self.measure_end)
            columns = [c[measured] for c in columns]
        _, _, _, vnet, _, creation, injection, ejection, hops = columns
        if len(vnet) == 0:
            return
        latency = ejection - injection
        self.measured_packets += len(latency)
        self._net_latency_sum += int(latency.sum())
        self._total_latency_sum += int((ejection - creation).sum())
        self._hops_sum += int(hops.sum())
        self._net_latency_max = max(self._net_latency_max, int(latency.max()))
        self.latency_hist.observe_many(latency)
        for v in dict.fromkeys(vnet.tolist()):  # first-ejection order
            of_vnet = latency[vnet == v]
            acc = self._vnet_acc.setdefault(v, [0, 0])
            acc[0] += len(of_vnet)
            acc[1] += int(of_vnet.sum())
        if self.keep_samples:
            self.samples.extend(
                LatencySample(*row) for row in zip(*(c.tolist() for c in columns))
            )

    # ------------------------------------------------------------------
    @property
    def avg_network_latency(self) -> float:
        """Mean injection→ejection latency of measured packets (cycles)."""
        if self.measured_packets == 0:
            return float("nan")
        return self._net_latency_sum / self.measured_packets

    @property
    def avg_total_latency(self) -> float:
        """Mean creation→ejection latency (includes source queueing)."""
        if self.measured_packets == 0:
            return float("nan")
        return self._total_latency_sum / self.measured_packets

    @property
    def avg_hops(self) -> float:
        if self.measured_packets == 0:
            return float("nan")
        return self._hops_sum / self.measured_packets

    @property
    def max_network_latency(self) -> int:
        return self._net_latency_max

    def throughput(self, cycles: int, nodes: int) -> float:
        """Accepted traffic in flits/node/cycle over ``cycles``."""
        if cycles <= 0 or nodes <= 0:
            raise ValueError("cycles and nodes must be positive")
        return self.flits_ejected / (cycles * nodes)

    def vnet_breakdown(self) -> dict[int, dict[str, float]]:
        """Per-virtual-network measured packets and mean network latency.

        Separates request-class from reply-class behaviour in coherence-
        style traffic (replies are longer packets and typically see
        higher serialisation latency).
        """
        return {
            vnet: {
                "packets": count,
                "avg_network_latency": lat_sum / count if count else float("nan"),
            }
            for vnet, (count, lat_sum) in sorted(self._vnet_acc.items())
        }

    def latency_percentile(self, q: float) -> float:
        """Percentile of network latency; requires ``keep_samples=True``."""
        if not self.samples:
            raise ValueError("no samples kept (construct with keep_samples=True)")
        lat = np.fromiter(
            (s.network_latency for s in self.samples), dtype=np.int64
        )
        return float(np.percentile(lat, q))

    def latency_histogram(self) -> dict:
        """Bucketed network-latency distribution (see ``LATENCY_EDGES``)."""
        return self.latency_hist.snapshot()

    def summary(self) -> dict:
        """Plain-dict summary used by the experiment reports."""
        return {
            "packets_created": self.packets_created,
            "packets_injected": self.packets_injected,
            "packets_ejected": self.packets_ejected,
            "measured_packets": self.measured_packets,
            "avg_network_latency": self.avg_network_latency,
            "avg_total_latency": self.avg_total_latency,
            "avg_hops": self.avg_hops,
            "max_network_latency": self.max_network_latency,
            "latency_histogram": self.latency_histogram(),
        }
