"""Traffic sources: temporal injection processes on top of spatial patterns.

Traffic here is open-loop — what a source emits never depends on fabric
state — so packets are *drawn ahead* of whoever reads them, into a
:class:`PacketTable` of column arrays, instead of one ``Packet`` object
per call.  :meth:`SyntheticTraffic._draw` is the one routine that calls
the NumPy ``Generator``, and it issues exactly the per-cycle call
sequence a naive implementation would (ON/OFF flip row, start row,
pattern draws, class draw — pinned against such a reference in
``tests/test_packet_table.py``), so how far ahead a reader asks never
shows in the stream.  Quiet stretches are scanned in bulk: a
``(cycles, n_nodes)`` block is drawn in one call — ``Generator.random``
fills C-order arrays row-major from the same bitstream as successive
per-cycle calls — and a cycle that does start packets rewinds the bit
generator and re-draws exactly the rows up to it, leaving the stream
where per-cycle code would be before that cycle's destination draws.

Three readers share the table: ``generate(cycle)`` (the object engine,
one cycle at a time), ``next_injection()`` (its skip-ahead lookahead — a
peek at the next unread row) and :func:`compile_table` (the lane engine,
a whole injection window at once).

* :class:`SyntheticTraffic` — Bernoulli (or bursty ON/OFF Markov) injection
  at a given rate in flits/node/cycle, with a configurable packet-size mix
  (e.g. coherence-style 1-flit control + 5-flit data packets on separate
  virtual networks).
* :class:`TraceTraffic` — replays an explicit packet trace
  (see :mod:`repro.traffic.trace`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..config import NetworkConfig
from ..router.flit import Packet
from .patterns import TrafficPattern, UniformRandom
from .trace import bucket_by_cycle

#: a stretch this many cycles quiet is scanned in bulk from then on (one
#: RNG call for as many cycles as the streak is long, so blocks double);
#: shorter streaks mostly end in a rewind, dearer than the calls it saves
_BULK_AFTER_QUIET = 8

#: longest bulk scan, in cycles per RNG call
_MAX_SCAN_CYCLES = 1024

#: how far ``generate`` draws past the cycle it was asked for: amortises
#: the per-block bookkeeping, wastes little past the injection window, and
#: is odd so that block draws never fall in step with the stage profiler,
#: which times every 16th cycle and would book a whole block on each
_READ_AHEAD_CYCLES = 17


@dataclass(frozen=True)
class PacketClass:
    """One packet species in the traffic mix.

    ``weight`` is the relative probability of this class; ``size_flits``
    its length; ``vnet`` the virtual network it travels on (request/reply
    separation for coherence-style traffic).
    """

    size_flits: int
    vnet: int = 0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.size_flits < 1:
            raise ValueError("packets need at least one flit")
        if self.weight <= 0:
            raise ValueError("class weight must be positive")


#: GEM5 MOESI-style mix: 1-flit requests/control, 5-flit data replies.
COHERENCE_MIX = (
    PacketClass(size_flits=1, vnet=0, weight=0.6),
    PacketClass(size_flits=5, vnet=1, weight=0.4),
)

#: Single-class mix used by simple synthetic experiments.
SINGLE_FLIT_MIX = (PacketClass(size_flits=1, vnet=0, weight=1.0),)


@dataclass
class PacketTable:
    """Packets as parallel column arrays, in the order a source yields them.

    ``cycle`` is the ``generate`` cycle that hands the packet to its NIC;
    ``creation`` the creation stamp the statistics use.  They are the
    same array for synthetic traffic and differ only for sources that
    replay late (a trace catching up) or stamp their own cycles.
    """

    cycle: np.ndarray
    src: np.ndarray
    dest: np.ndarray
    vnet: np.ndarray
    size: np.ndarray
    creation: np.ndarray

    def __len__(self) -> int:
        return len(self.cycle)

    def validate(self, config: NetworkConfig) -> None:
        """Reject what ``Packet`` and ``NetworkInterface.enqueue`` reject.

        One vectorised pass per compiled table, raising on the first
        offending packet of each kind.
        """

        def first(bad: np.ndarray) -> int:
            return int(np.flatnonzero(bad)[0])

        nodes = config.num_nodes
        bad = (self.src < 0) | (self.src >= nodes)
        if bad.any():
            raise ValueError(
                f"packet sourced at {self.src[first(bad)]}: no such NIC "
                f"in a {nodes}-node mesh"
            )
        bad = (self.dest < 0) | (self.dest >= nodes)
        if bad.any():
            raise ValueError(
                f"packet destination {self.dest[first(bad)]} outside the "
                f"{nodes}-node mesh"
            )
        if (self.src == self.dest).any():
            raise ValueError("source and destination must differ")
        if (self.size < 1).any():
            raise ValueError("packets contain at least one flit")
        bad = (self.vnet < 0) | (self.vnet >= config.router.num_vnets)
        if bad.any():
            raise ValueError(f"packet vnet {self.vnet[first(bad)]} out of range")


def compile_table(source: Any, until: int, config: NetworkConfig) -> PacketTable:
    """Everything ``source`` emits over cycles ``[0, until)``, validated.

    The lane engine's single traffic boundary.  A source that keeps a
    table (:meth:`SyntheticTraffic.packet_table`) hands it over as
    arrays; any other ``TrafficSource`` — a trace, a wrapper, a user
    class — is packed once through ``generate``.
    """
    draw = getattr(source, "packet_table", None)
    if draw is not None:
        table: PacketTable = draw(until)
    else:
        rows = [
            (c, p.src, p.dest, p.vnet, p.size_flits, p.creation_cycle)
            for c in range(until)
            for p in source.generate(c)
        ]
        cols = np.array(rows, dtype=np.int64).reshape(len(rows), 6).T
        table = PacketTable(*cols)
    table.validate(config)
    return table


class SyntheticTraffic:
    """Random traffic: spatial pattern x temporal process x packet mix.

    ``injection_rate`` is in *flits* per node per cycle (the standard NoC
    load metric); the per-cycle packet-start probability is derived from
    the mix's mean packet length.

    With ``burstiness`` > 0 the source follows a two-state ON/OFF Markov
    process with the same average rate but bursty arrivals (real
    application traffic — SPLASH-2/PARSEC — is bursty; the app surrogates
    in :mod:`repro.traffic.apps` build on this).

    The source's clock starts at cycle 0 and readers move forward only:
    a cycle already read, or skipped over, yields nothing.
    """

    def __init__(
        self,
        config: NetworkConfig,
        injection_rate: float,
        pattern: Optional[TrafficPattern] = None,
        mix: Sequence[PacketClass] = SINGLE_FLIT_MIX,
        rng: np.random.Generator | int | None = None,
        burstiness: float = 0.0,
        nodes: Optional[Sequence[int]] = None,
    ) -> None:
        if injection_rate < 0:
            raise ValueError("injection rate must be >= 0")
        if not mix:
            raise ValueError("need at least one packet class")
        if not 0.0 <= burstiness < 1.0:
            raise ValueError("burstiness must be in [0, 1)")
        self.config = config
        self.injection_rate = injection_rate
        self.pattern = pattern or UniformRandom(config)
        self.mix = tuple(mix)
        self.rng = np.random.default_rng(rng)
        self.burstiness = burstiness

        weights = np.array([c.weight for c in self.mix], dtype=float)
        class_prob = weights / weights.sum()
        mean_len = float(
            sum(c.size_flits * p for c, p in zip(self.mix, class_prob))
        )
        #: probability a node starts a packet in a cycle
        self.packet_rate = injection_rate / mean_len
        if self.packet_rate > 1.0:
            raise ValueError(
                f"injection rate {injection_rate} flits/node/cycle exceeds "
                f"1 packet/node/cycle for mean length {mean_len}"
            )
        # the class draw is ``Generator.choice(len(mix), size=k, p=...)``
        # spelled out (its CDF, searched with k uniforms), minus the
        # per-call validation of ``p``
        self._class_cdf = class_prob.cumsum()
        self._class_cdf /= self._class_cdf[-1]
        self._class_size = np.array([c.size_flits for c in self.mix])
        self._class_vnet = np.array([c.vnet for c in self.mix])
        self._nodes = np.asarray(
            nodes if nodes is not None else np.arange(config.num_nodes)
        )
        # ON/OFF process: mean burst length grows with burstiness; duty
        # cycle 50 %, so the ON-state rate is doubled to keep the average
        self._p_exit = (1.0 - burstiness) * 0.1
        self._start_prob = (
            min(2.0 * self.packet_rate, 1.0) if burstiness > 0.0
            else self.packet_rate
        )
        #: per-node ON flags; a bursty source's are its stream's first draw
        self._on: Optional[np.ndarray] = (
            None if burstiness > 0.0 else np.ones(len(self._nodes), dtype=bool)
        )
        # ---- the table: drawn ahead by _draw, consumed by the readers ----
        #: cycles below this are drawn
        self._drawn = 0
        #: length of the quiet streak ending at ``_drawn`` (see _draw)
        self._quiet = 0
        #: drawn, unread packets as (cycle, src, dest, vnet, size) rows
        self._rows: list[tuple[int, int, int, int, int]] = []
        self._pos = 0

    @property
    def offered_load(self) -> float:
        """Declared load, in flits per cycle over the whole fabric."""
        return self.injection_rate * len(self._nodes)

    # ------------------------------------------------------------------
    def _draw(self, until: int) -> PacketTable:
        """Draw cycles ``[self._drawn, until)``: the only RNG consumer.

        Per cycle, in stream order: the ON/OFF flip row (bursty only), the
        start row, and — when any node starts — the pattern's destination
        draws and one uniform per packet for its class.  After
        ``_BULK_AFTER_QUIET`` quiet cycles in a row the next stretch (as
        long as the streak so far) is drawn as one block; a block with a
        start in it is rewound to the saved state and re-drawn up to that
        cycle (row-major fill makes the redraw bit-identical), so the
        stream is always exactly where per-cycle draws would leave it and
        block boundaries — including ``until`` — never show in the packets.
        """
        rng = self.rng
        random = rng.random
        bit_generator = rng.bit_generator
        destinations = self.pattern.destinations
        class_cdf = self._class_cdf
        nodes = self._nodes
        n = len(nodes)
        bursty = self.burstiness > 0.0
        rows_per_cycle = 2 if bursty else 1
        start_prob = self._start_prob
        p_exit = self._p_exit
        on = self._on
        if on is None:
            on = random(n) < 0.5
        quiet = self._quiet
        hit_cycles: list[int] = []
        sources: list[np.ndarray] = []
        dests: list[np.ndarray] = []
        classes: list[np.ndarray] = []

        c = self._drawn
        while c < until:
            if quiet < _BULK_AFTER_QUIET or until - c == 1:
                if bursty:
                    on = on ^ (random(n) < p_exit)
                    starts = (random(n) < start_prob) & on
                else:
                    starts = random(n) < start_prob
            else:
                span = min(quiet, _MAX_SCAN_CYCLES, until - c)
                state = bit_generator.state
                block = random((span * rows_per_cycle, n))
                if bursty:
                    ons = np.logical_xor.accumulate(block[0::2] < p_exit, axis=0)
                    ons ^= on
                    grid = (block[1::2] < start_prob) & ons
                else:
                    grid = block < start_prob
                busy = grid.any(axis=1)
                first = int(busy.argmax())
                if busy[first]:
                    bit_generator.state = state
                    random(((first + 1) * rows_per_cycle, n))
                else:
                    first = span - 1
                starts = grid[first]
                if bursty:
                    on = ons[first]
                c += first
                quiet += first
            started = starts.nonzero()[0]
            if len(started):
                src = nodes[started]
                hit_cycles.append(c)
                sources.append(src)
                dests.append(destinations(src, rng))
                classes.append(class_cdf.searchsorted(random(len(src)), side="right"))
                quiet = 0
            else:
                quiet += 1
            c += 1

        self._on = on
        self._quiet = quiet
        self._drawn = max(until, self._drawn)
        if not hit_cycles:
            empty = np.empty(0, dtype=np.int64)
            return PacketTable(empty, empty, empty, empty, empty, empty)
        cycle = np.repeat(hit_cycles, [len(s) for s in sources])
        cls = np.concatenate(classes)
        return PacketTable(
            cycle,
            np.concatenate(sources),
            np.concatenate(dests),
            self._class_vnet[cls],
            self._class_size[cls],
            cycle,
        )

    def _extend(self, until: int) -> None:
        """Draw through ``until`` and append the rows behind the cursor."""
        t = self._draw(until)
        fresh = zip(
            t.cycle.tolist(), t.src.tolist(), t.dest.tolist(),
            t.vnet.tolist(), t.size.tolist(),
        )
        self._rows = self._rows[self._pos:] + list(fresh)
        self._pos = 0

    def packet_table(self, until: int) -> PacketTable:
        """Every unread packet created before ``until``, as arrays."""
        fresh = self._draw(until)
        held = self._rows[self._pos:]
        cut = bisect_left(held, until, key=lambda row: row[0])
        self._rows, self._pos = held[cut:], 0
        if not cut:
            return fresh
        # rows a per-cycle reader drew ahead and never read come first
        cols = np.array(held[:cut], dtype=np.int64).T
        old = PacketTable(*cols, cols[0])
        return PacketTable(
            *(
                np.concatenate([getattr(old, f), getattr(fresh, f)])
                for f in PacketTable.__dataclass_fields__
            )
        )

    def next_injection(self, cycle: int, horizon: int) -> Optional[int]:
        """Earliest cycle in ``[cycle, horizon)`` that starts a packet.

        Lookahead for the event-driven engine: a peek at the next unread
        table row, drawing further ahead (in growing steps, never past
        ``horizon``) while the table holds none.  Returns ``None`` when
        the whole window is quiet.
        """
        step = _READ_AHEAD_CYCLES
        while True:
            rows = self._rows
            pos = self._pos
            while pos < len(rows) and rows[pos][0] < cycle:
                pos += 1
            self._pos = pos
            if pos < len(rows):
                nxt = rows[pos][0]
                return nxt if nxt < horizon else None
            if self._drawn >= horizon:
                return None
            self._extend(min(horizon, max(cycle, self._drawn) + step))
            step = min(2 * step, _MAX_SCAN_CYCLES)

    def generate(self, cycle: int) -> list[Packet]:
        """Packets created at ``cycle`` (TrafficSource protocol)."""
        if cycle >= self._drawn:
            self._extend(cycle + _READ_AHEAD_CYCLES)
        rows = self._rows
        pos = self._pos
        out = []
        while pos < len(rows):
            at, src, dest, vnet, size = rows[pos]
            if at > cycle:
                break
            pos += 1
            if at == cycle:
                out.append(Packet(src, dest, size, vnet, cycle))
        self._pos = pos
        return out


class TraceTraffic:
    """Replays packets bucketed by creation cycle.

    ``generate(cycle)`` yields every not-yet-replayed packet created at
    or before ``cycle`` (catch-up semantics: a replay that starts late or
    skips cycles still delivers everything, in creation order).  Packets
    are grouped once up front (:func:`repro.traffic.trace.bucket_by_cycle`)
    so a full replay is O(cycles + packets); the common mid-replay call
    with nothing due is a single integer comparison.
    """

    def __init__(self, packets: Iterable[Packet]) -> None:
        self._cycles, self._buckets = bucket_by_cycle(packets)
        self._ci = 0
        self._remaining = sum(len(b) for b in self._buckets.values())

    def generate(self, cycle: int) -> Iterator[Packet]:
        cycles = self._cycles
        ci = self._ci
        if ci >= len(cycles) or cycles[ci] > cycle:
            return
        while ci < len(cycles) and cycles[ci] <= cycle:
            bucket = self._buckets[cycles[ci]]
            ci += 1
            self._ci = ci
            for p in bucket:
                self._remaining -= 1
                yield p

    def next_injection(self, cycle: int, horizon: int) -> Optional[int]:
        """Earliest cycle in ``[cycle, horizon)`` with packets to replay.

        Overdue buckets (catch-up) are due immediately at ``cycle``; the
        replay state is read-only here, so this is pure lookahead.
        """
        cycles = self._cycles
        ci = self._ci
        if ci >= len(cycles):
            return None
        nxt = max(int(cycles[ci]), cycle)
        return nxt if nxt < horizon else None

    @property
    def remaining(self) -> int:
        return self._remaining


class NullTraffic:
    """No traffic at all (used by fault-behaviour unit tests)."""

    def generate(self, cycle: int) -> Iterator[Packet]:
        return iter(())

    def next_injection(self, cycle: int, horizon: int) -> Optional[int]:
        return None
