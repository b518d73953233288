"""Traffic sources: temporal injection processes on top of spatial patterns.

Traffic here is open-loop — what a source emits never depends on fabric
state — so packets are *drawn ahead* of whoever reads them, into a
:class:`PacketTable` of column arrays, instead of one ``Packet`` object
per call.  :meth:`SyntheticTraffic._draw` is the one routine that reads
the source's PCG64 stream, and it reads it as raw 64-bit words
(``bit_generator.random_raw``), parsed exactly as the naive per-cycle
``Generator`` calls would consume them — ON/OFF flip row, start row,
pattern draws, class draw, pinned against such a reference in
``tests/test_packet_table.py`` — so neither how far ahead a reader asks
nor where a block of words ends shows in the stream.  The parse replays
three NumPy behaviours:

* ``Generator.random()`` is ``(word >> 11) * 2**-53``, so "below ``p``"
  is an integer compare on the word (:func:`_word_threshold`);
* ``Generator.integers(0, m)`` is 32-bit Lemire: a draw ``x`` yields
  ``x * m >> 32`` and is rejected while ``x * m mod 2**32 < (2**32 - m)
  mod m``; a 32-bit draw takes the low half of a fresh word and PCG64
  holds the high half (``has_uint32`` / ``uinteger``) for the next one,
  across calls and across ``random()`` calls; ``integers(0, 1)`` draws
  nothing;
* ``Generator.choice(k, p=...)`` is ``cdf.searchsorted(u, side="right")``.

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

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..config import NetworkConfig
from ..router.flit import Packet
from .patterns import Hotspot, TrafficPattern, UniformRandom, _PermutationPattern
from .trace import bucket_by_cycle

#: how far ``generate`` draws past the cycle it was asked for: amortises
#: a draw's fixed cost (the generator state read and written back, one
#: gather) over many cycles, wastes little past the injection window, and
#: is odd so that block draws never fall in step with the stage profiler,
#: which times every 16th cycle and would book a whole block on each
_READ_AHEAD_CYCLES = 65

#: raw words per read; a draw gathers and drops what it consumed every
#: block, so it holds about two blocks (128 KiB) at most, however long the
#: window
_BLOCK_WORDS = 1 << 13

_MASK32 = 0xFFFFFFFF

#: ends every list of hit positions, past any position a draw reaches
_END = 1 << 62

# a destination's 32-bit draw is named by its slot, ``2 * word + half``
# (half 0 the low 32 bits, 1 the high; ``word`` counted from the first
# word held); besides those:
#: the half the generator held when the draw began (or at the last flush)
_HELD = -1
#: no draw: the destination is the pattern's table entry, a hotspot pick,
#: or the one other node of a 2-node mesh (``integers(0, 1)`` draws nothing)
_FIXED = -2


def _word_threshold(p: float) -> int:
    """``word < _word_threshold(p)`` iff ``Generator.random()`` made of
    ``word`` is ``< p``: the double is ``(word >> 11) * 2**-53``, exact,
    so the test is ``word >> 11 < ceil(p * 2**53)``; ``2**64`` for p = 1."""
    return math.ceil(p * 2.0**53) << 11


def _hits(words: np.ndarray, threshold: int, offset: int) -> list[int]:
    """Positions (plus ``offset``) of the words below ``threshold``."""
    if threshold >= 1 << 64:
        return list(range(offset, offset + len(words)))
    hits = (words < threshold).nonzero()[0]
    return (hits + offset).tolist() if len(hits) else []


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

    ``rng`` seeds (or is) a PCG64 ``Generator``, and ``pattern`` is a
    :class:`UniformRandom`, a :class:`Hotspot` or a permutation pattern:
    those are the streams and shapes :meth:`_draw` parses.

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
        if not math.isfinite(injection_rate) or injection_rate < 0:
            raise ValueError(
                f"injection rate must be a finite number >= 0, not {injection_rate}"
            )
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
        if not isinstance(self.rng.bit_generator, np.random.PCG64):
            raise ValueError(
                "traffic is parsed from a PCG64 stream, not "
                f"{type(self.rng.bit_generator).__name__}"
            )
        num_nodes = config.num_nodes
        if nodes is None:
            self._nodes = np.arange(num_nodes)
        else:
            self._nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
            if not len(self._nodes):
                raise ValueError("nodes must name at least one node")
            bad = (self._nodes < 0) | (self._nodes >= num_nodes)
            if bad.any():
                raise ValueError(
                    f"node {self._nodes[bad][0]} outside the {num_nodes}-node mesh"
                )
            if len(np.unique(self._nodes)) < len(self._nodes):
                raise ValueError("nodes must not repeat a node")
        if num_nodes < 2 and injection_rate > 0:
            raise ValueError("traffic needs at least two nodes")

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
        # spelled out: its CDF, searched with k uniforms
        self._class_cdf = class_prob.cumsum()
        self._class_cdf /= self._class_cdf[-1]
        self._class_size = np.array([c.size_flits for c in self.mix])
        self._class_vnet = np.array([c.vnet for c in self.mix])
        # ON/OFF process: mean burst length grows with burstiness; duty
        # cycle 50 %, so the ON-state rate is doubled to keep the average
        self._p_exit = (1.0 - burstiness) * 0.1
        self._start_prob = (
            min(2.0 * self.packet_rate, 1.0) if burstiness > 0.0
            else self.packet_rate
        )
        #: per-node ON flags as a bitmask (bit i: ``nodes[i]``); every node
        #: of a smooth source is ON, a bursty source's flags are its
        #: stream's first draw
        self._on: Optional[int] = None if burstiness > 0.0 else -1

        # ---- what the parse reads of the pattern ----
        p = self.pattern
        #: permutation patterns: destination per node; the others: None
        self._table: Optional[np.ndarray] = None
        #: per node of ``nodes``: its table entry is itself (redrawn)
        self._selfed: list[bool] = []
        #: Hotspot: (hotspot nodes, word threshold of ``fraction``)
        self._hot: Optional[tuple[list[int], int]] = None
        if isinstance(p, Hotspot):
            self._hot = (list(p.hotspots), _word_threshold(p.fraction))
        elif isinstance(p, _PermutationPattern):
            self._table = p.table
            self._selfed = (p.table[self._nodes] == self._nodes).tolist()
        elif not isinstance(p, UniformRandom):
            raise ValueError(
                f"pattern {type(p).__name__} is none of UniformRandom, Hotspot "
                "or a permutation: the draw has no parse for it"
            )
        if num_nodes == 2:
            # ``integers(0, 1)`` draws nothing: a uniform destination (or
            # a redrawn self-target) is the other node, read off a table
            other = np.array([1, 0])
            t = self._table
            self._table = other if t is None else np.where(t == [0, 1], other, t)
            self._selfed = [False] * len(self._nodes)
        self._node_ids: list[int] = self._nodes.tolist()
        self._start_word = _word_threshold(self._start_prob)
        self._flip_word = _word_threshold(self._p_exit)
        # raw words to read per cycle left: a quiet cycle's rows plus about
        # twice what its packets draw on average, so that one read mostly
        # covers a window and a sparse window reads no word it does not use
        n = len(self._nodes)
        per_packet = 3.0 if self._hot else 1.5
        self._words_per_cycle = (2 if burstiness > 0.0 else 1) * n + (
            2.0 * n * self.packet_rate * per_packet
        )

        # ---- the table: drawn ahead by _draw, consumed by the readers ----
        #: cycles below this are drawn
        self._drawn = 0
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

        Per cycle, in stream order, the naive source draws the ON/OFF flip
        row (bursty only), the start row, and — when any node starts —
        the pattern's destinations and one uniform per packet for its
        class.  Here the stream is read as raw words in blocks: one
        vectorised pass per block lists the words that pass the start test
        (and the flip and hotspot tests), and a scalar loop walks those
        hits.  A quiet
        cycle consumes a fixed number of words, so a quiet stretch is a
        jump to the next hit; a busy cycle turns its starts into
        consumption counts (destination slots, hotspot tests and picks,
        self-target redraws, class uniforms), and every value is gathered
        in one vectorised pass per block.  Destination draws are taken as
        accepted and checked at the gather; a Lemire rejection (about one
        draw in 10**8) re-parses from the last gather with every draw
        checked as it is made.  At the end the generator is left exactly
        where the per-cycle calls leave it, held half included: words
        read past the window are rewound.
        """
        c = self._drawn
        if until <= c:
            empty = np.empty(0, dtype=np.int64)
            return PacketTable(empty, empty, empty, empty, empty, empty)
        bit_generator = self.rng.bit_generator
        nodes, node_ids = self._nodes, self._node_ids
        n = len(node_ids)
        bursty = self.burstiness > 0.0
        on = self._on
        if on is None:
            on = sum(1 << int(i) for i in np.flatnonzero(self.rng.random(n) < 0.5))
        stride = 2 * n if bursty else n  # words of a quiet cycle
        start_row = stride - n  # where its start row begins
        start_word, flip_word = self._start_word, self._flip_word
        table, selfed = self._table, self._selfed
        hot = self._hot
        hot_nodes, hot_word = hot if hot else ([], 0)
        n_hot = len(hot_nodes)
        hot_reject = (1 << 32) % n_hot if n_hot else 0
        m = self.config.num_nodes - 1  # a uniform draw picks among the others
        reject = (1 << 32) % m if m else 0
        classes = len(self.mix) > 1
        per_cycle = self._words_per_cycle

        begin = bit_generator.state
        h = begin["has_uint32"]  # the generator holds a 32-bit half ...
        held = begin["uinteger"]  # ... this one, or last did
        bslot = _HELD  # slot of the last half held
        words = np.empty(0, dtype=np.uint64)  # stream words [base, nread)
        base = nread = 0
        pos = 0  # next unconsumed word
        # positions of the words that pass a test, each list ending in _END
        starts = [_END]  # the start test
        flips = [_END]  # the ON/OFF flip test (bursty)
        hots = [_END]  # the hotspot test (Hotspot)
        si = fi = hi = 0
        tests = [(starts, start_word)]
        if bursty:
            tests.append((flips, flip_word))
        if hot:
            tests.append((hots, hot_word))
        # what busy cycles drew since the last gather — per cycle its number
        # and packet count; per packet its node's offset, its destination
        # slot, a fixed destination (a hotspot pick) and its class uniform's
        # word — and the gathered column chunks
        cyc: list[int] = []
        count: list[int] = []
        offs: list[int] = []
        dslot: list[int] = []
        fix_i: list[int] = []
        fix_v: list[int] = []
        cpos: list[int] = []
        chunks: list[tuple[np.ndarray, ...]] = []
        snap = (c, pos, h, held, on)
        exact = False  # check every destination draw as it is made

        def read(q: int) -> None:
            """Read words so that ``[base, q)`` is there, sized to about
            the rest of the window, bounded by a block."""
            nonlocal words, nread
            want = pos + int((until - c) * per_cycle)
            size = max(q - nread, min(want - nread, _BLOCK_WORDS))
            new = bit_generator.random_raw(size)
            for hits, threshold in tests:
                hits[-1:] = _hits(new, threshold, nread)
                hits.append(_END)
            words = np.concatenate((words, new)) if len(words) else new
            nread += size

        def value(slot: int) -> int:
            if slot == _HELD:
                return held
            return (int(words[slot >> 1]) >> (32 * (slot & 1))) & _MASK32

        def draw32(span: int, threshold: int) -> tuple[int, int]:
            """One accepted ``integers(0, span)`` draw (Lemire threshold
            ``threshold``): its slot and its value."""
            nonlocal pos, h, bslot
            while True:
                if h:
                    h = 0
                    s = bslot
                else:
                    if pos >= nread:
                        read(pos + 1)
                    s = 2 * (pos - base)
                    h, bslot = 1, s + 1
                    pos += 1
                x = value(s) * span
                if x & _MASK32 >= threshold:
                    return s, x >> 32

        def uniform(d: int) -> list[int]:
            """The slots of ``integers(0, m, size=d)``, taken as accepted."""
            nonlocal pos, h, bslot
            if m == 1:
                return [_FIXED] * d
            if exact:
                return [draw32(m, reject)[0] for _ in range(d)]
            slots = []
            if h and d:
                slots.append(bslot)
                h = 0
                d -= 1
            if d:
                first = 2 * (pos - base)
                slots.extend(range(first, first + d))
                pos += (d + 1) >> 1
                # the last word's high half: held if d is odd, else taken
                h, bslot = d & 1, first + ((d - 1) | 1)
                if pos > nread:
                    read(pos)
            return slots

        def gather() -> bool:
            """Turn the recorded draws into columns; False on a rejection."""
            if not cyc:
                return True
            src = nodes[offs]
            slots = np.array(dslot, dtype=np.int64)
            dest = table[src] if table is not None else np.empty(len(src), np.int64)
            drawn = (slots != _FIXED).nonzero()[0]
            s = slots[drawn]
            # as little-endian uint32s, word i is halves 2i (low) and 2i + 1
            halves = words.astype("<u8", copy=False).view("<u4")
            x = halves[np.maximum(s, 0)].astype(np.uint64)
            x[s == _HELD] = held
            x *= np.uint64(m)
            if reject and ((x & np.uint64(_MASK32)) < reject).any():
                return False
            u = (x >> np.uint64(32)).astype(np.int64)
            dest[drawn] = u + (u >= src[drawn])
            if fix_i:
                dest[fix_i] = fix_v
            if classes:
                w = words[cpos] >> np.uint64(11)
                cls = self._class_cdf.searchsorted(w * 2.0**-53, side="right")
                vnet, size = self._class_vnet[cls], self._class_size[cls]
            else:
                vnet = np.full(len(src), self.mix[0].vnet)
                size = np.full(len(src), self.mix[0].size_flits)
            cycle = np.repeat(np.array(cyc, dtype=np.int64), count)
            chunks.append((cycle, src, dest, vnet, size))
            forget()
            return True

        def forget() -> None:
            for record in (cyc, count, offs, dslot, fix_i, fix_v, cpos):
                record.clear()

        def restart() -> None:
            """Re-parse from the last flush, checking each draw as it is made."""
            nonlocal c, pos, h, held, on, bslot, exact, si, fi, hi
            c, pos, h, held, on = snap
            bslot, exact = _HELD, True
            si, fi, hi = (bisect_left(hits, pos) for hits in (starts, flips, hots))
            forget()

        def flush() -> None:
            """Gather, then hold only the words not yet consumed."""
            nonlocal held, bslot, words, base, si, fi, hi, snap, exact
            if not gather():
                restart()
                return
            if bslot != _HELD:
                held, bslot = value(bslot), _HELD
            words, base = words[pos - base:], pos
            for hits in (starts, flips, hots):
                del hits[: bisect_left(hits, pos)]
            si = fi = hi = 0
            snap = (c, pos, h, held, on)
            exact = False

        while True:
            while c < until:
                if pos - base >= _BLOCK_WORDS:
                    flush()
                    continue
                s = starts[si]
                while s < pos:
                    si += 1
                    s = starts[si]
                # the next start row with a hit in it, or as far as is read
                row = -1
                if s >= nread:  # no start hit in [pos, nread): all quiet
                    j = min((nread - pos) // stride, until - c)
                    limit = pos + j * stride
                else:
                    j, off = divmod(s - pos, stride)
                    if c + j >= until:
                        j = until - c
                        limit = pos + j * stride
                    elif off < start_row:  # a hit in a flip row is no start
                        si += 1
                        continue
                    else:
                        row = limit = s - off + start_row
                        if row + n > nread:
                            read(row + n)
                            continue
                if bursty:  # the flip rows before ``limit``, aligned at pos
                    f = flips[fi]
                    while f < limit:
                        fi += 1
                        f -= pos
                        if f >= 0 and f % stride < n:
                            on ^= 1 << f % stride
                        f = flips[fi]
                c += j
                if row < 0:  # quiet up to ``limit``
                    pos = limit
                    if c < until:
                        read(pos + stride)
                    continue
                started = []
                end = row + n
                while s < end:
                    if on >> (s - row) & 1:
                        started.append(s - row)
                    si += 1
                    s = starts[si]
                pos = end
                if not started:
                    c += 1
                    continue
                # a busy cycle: the destination draws, then the classes
                k = len(started)
                cyc.append(c)
                count.append(k)
                offs.extend(started)
                if hot:
                    slots = uniform(k)
                    first = pos
                    pos += k
                    if pos > nread:
                        read(pos)
                    hi = bisect_left(hots, first, hi)
                    picked = []
                    while hots[hi] < first + k:
                        picked.append(hots[hi] - first)
                        hi += 1
                    redraw = []
                    for j in picked:
                        pick = hot_nodes[draw32(n_hot, hot_reject)[1] if n_hot > 1 else 0]
                        if pick == node_ids[started[j]]:
                            redraw.append(j)
                        else:
                            slots[j] = _FIXED
                            fix_i.append(len(dslot) + j)
                            fix_v.append(pick)
                    for j, slot in zip(redraw, uniform(len(redraw))):
                        slots[j] = slot
                    dslot.extend(slots)
                elif table is not None:
                    for o in started:
                        dslot.append(uniform(1)[0] if selfed[o] else _FIXED)
                else:
                    dslot.extend(uniform(k))
                if classes:
                    cpos.extend(range(pos - base, pos - base + k))
                pos += k
                if pos > nread:
                    read(pos)
                c += 1
            if gather():
                break
            restart()

        rewound = nread > pos
        if rewound:  # read past the window: step back (PCG64's period is 2**128)
            bit_generator.advance(pos - nread)
        last = value(bslot)
        # advance() drops the held half: put it back, as any change to it
        if rewound or (h, last) != (begin["has_uint32"], begin["uinteger"]):
            state = dict(bit_generator.state)
            state["has_uint32"], state["uinteger"] = h, last
            bit_generator.state = state
        self._on = on
        self._drawn = until
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return PacketTable(empty, empty, empty, empty, empty, empty)
        cols = chunks[0] if len(chunks) == 1 else [np.concatenate(c) for c in zip(*chunks)]
        return PacketTable(*cols, cols[0])

    def _extend(self, until: int) -> None:
        """Draw through ``until`` and append the rows behind the cursor."""
        t = self._draw(until)
        fresh = zip(
            t.cycle.tolist(), t.src.tolist(), t.dest.tolist(),
            t.vnet.tolist(), t.size.tolist(),
        )
        self._rows = self._rows[self._pos:]
        self._rows += fresh
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
        table row, drawing further ahead (in doubling steps, never past
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
            step *= 2

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
