"""Traffic sources: temporal injection processes on top of spatial patterns.

Traffic here is open-loop — what a source emits never depends on fabric
state — so packets are *drawn ahead* of whoever reads them, into a
:class:`PacketTable` of column arrays, instead of one ``Packet`` object
per call.  :meth:`SyntheticTraffic._draw` is the one routine that reads
the source's PCG64 stream, and it reads it as raw 64-bit words
(``bit_generator.random_raw``); :func:`_parse`, a pure function of those
words, consumes them exactly as the naive per-cycle ``Generator`` calls
would — ON/OFF flip row, start row, pattern draws, class draw, pinned
against such a reference in ``tests/test_packet_table.py`` and
``tests/test_traffic_parse.py`` — so neither how far ahead a reader asks
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
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Sequence

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

#: raw words per read; each read is parsed and dropped before the next,
#: so a draw holds about one block (64 KiB), however long the window
_BLOCK_WORDS = 1 << 13

_MASK32 = 0xFFFFFFFF

#: ends every list of positions, past any position a parse reaches
_END = 1 << 62

# a destination's 32-bit draw is named by its slot, ``2 * word + half``
# (half 0 the low 32 bits, 1 the high, of a word of the parsed array);
# besides those:
#: the half the generator held when the parse began
_HELD = -1
#: no draw: the destination is the pattern's table entry, or the one other
#: node of a 2-node mesh (``integers(0, 1)`` draws nothing)
_FIXED = -2
#: this and below: no draw, the destination is the hotspot ``_PICK - slot``
_PICK = -3


def _word_threshold(p: float) -> int:
    """``word < _word_threshold(p)`` iff ``Generator.random()`` made of
    ``word`` is ``< p``: the double is ``(word >> 11) * 2**-53``, exact,
    so the test is ``word >> 11 < ceil(p * 2**53)``; ``2**64`` for p = 1."""
    return math.ceil(p * 2.0**53) << 11


def _hits(words: np.ndarray, threshold: int) -> list[int]:
    """Positions of the words below ``threshold``, then ``_END``."""
    if threshold >= 1 << 64:
        return [*range(len(words)), _END]
    return [*(words < threshold).nonzero()[0].tolist(), _END]


class _Constants(NamedTuple):
    """What the parse reads of a source, fixed at its construction."""

    #: the nodes that inject; bit i of the ON mask is ``node_ids[i]``
    nodes: np.ndarray
    node_ids: list[int]
    bursty: bool
    #: word thresholds of the start and the ON/OFF flip probabilities
    start_word: int
    flip_word: int
    #: a uniform destination is one of the ``m`` other nodes
    m: int
    #: permutation patterns (and any pattern on a 2-node mesh): the
    #: destination per node; per node of ``nodes``, whether it is itself
    table: Optional[np.ndarray]
    selfed: list[bool]
    #: Hotspot: its hotspots and the word threshold of its fraction
    hot_nodes: list[int]
    hot_word: int
    #: ``Generator.choice``'s CDF over the classes, and their columns
    class_cdf: np.ndarray
    class_vnet: np.ndarray
    class_size: np.ndarray


class _State(NamedTuple):
    """Where a parse stands: the next cycle, the generator's held half
    (``has_uint32`` / ``uinteger``) and the ON mask (-1: every node)."""

    cycle: int
    has_uint32: int
    uinteger: int
    on: int


class _Short(Exception):
    """A cycle draws past the end of the words at hand."""


_Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _parse(
    words: np.ndarray, state: _State, until: int, const: _Constants
) -> tuple[Optional[_Columns], int, _State]:
    """Parse the cycles ``[state.cycle, until)`` that ``words`` holds whole.

    ``words`` are the next raw words of the stream, and ``state`` is
    where the stream and the source stood before them.  Returns the
    ``(cycle, src, dest, vnet, size)`` columns of the packets parsed
    (None: no packet), how many words were consumed, and the state
    after them.  The parse stops at ``until`` or before the first cycle
    that would draw past the end of ``words``.

    Per cycle, in stream order, the naive source draws the ON/OFF flip
    row (bursty only), the start row, and — when any node starts — the
    pattern's destinations and one uniform per packet for its class.
    One vectorised pass lists the words that pass the start test (and
    the flip and hotspot tests), and a scalar loop walks those hits: a
    quiet stretch is a jump to the next hit, and a busy cycle turns its
    starts into consumption counts (destination slots, hotspot tests
    and picks, self-target redraws, class uniforms).  Every Lemire draw
    is checked before its slot is handed out — at most ``m`` in 2**32 is
    rejected — and every value is gathered in one vectorised pass.
    """
    c, h, held, on = state
    nodes, node_ids, bursty = const.nodes, const.node_ids, const.bursty
    n = len(node_ids)
    stride = 2 * n if bursty else n  # words of a quiet cycle
    start_row = stride - n  # where its start row begins
    table, selfed, m = const.table, const.selfed, const.m
    reject = (1 << 32) % m if m else 0
    hot_nodes, n_hot = const.hot_nodes, len(const.hot_nodes)
    hot_reject = (1 << 32) % n_hot if n_hot else 0
    classes = len(const.class_cdf) > 1
    end = len(words)
    end2 = 2 * end
    # as little-endian uint32s, word i is the halves (slots) 2i and 2i + 1
    halves = words.astype("<u8", copy=False).view("<u4")
    starts = _hits(words, const.start_word)
    flips = _hits(words, const.flip_word) if bursty else [_END]
    hots = _hits(words, const.hot_word) if n_hot else [_END]
    # the slots Lemire rejects for ``m``, listed by the first destination
    # draw (no 32-bit draw precedes it): the held half the parse began
    # with, then every half from its first fresh one on; only those a
    # draw hands out are read
    rejects: Optional[list[int]] = None if reject else [_END]
    pos = 0  # next unconsumed word
    bslot = _HELD  # slot of the last half held
    si = fi = hi = ri = 0
    on0 = on  # the ON mask before the cycle being parsed
    # per busy cycle its number and packet count; per packet its node's
    # offset, its destination slot and its class uniform's word
    cyc: list[int] = []
    count: list[int] = []
    offs: list[int] = []
    dslot: list[int] = []
    cpos: list[int] = []

    def draw32(span: int, threshold: int) -> tuple[int, int]:
        """One accepted ``integers(0, span)`` draw (Lemire threshold
        ``threshold``), checked as it is made: its slot and its value."""
        nonlocal pos, h, bslot
        while True:
            if h:
                h, s = 0, bslot
            else:
                if pos == end:
                    raise _Short
                s = 2 * pos
                h, bslot = 1, s + 1
                pos += 1
            x = (held if s == _HELD else int(halves[s])) * span
            if x & _MASK32 >= threshold:
                return s, x >> 32

    def uniform(d: int) -> list[int]:
        """The slots of ``integers(0, m, size=d)`` (``d >= 1``), each
        checked before it is handed out."""
        nonlocal pos, h, bslot, rejects, ri
        if m == 1:
            return [_FIXED] * d
        first = 2 * pos  # the first fresh half
        top = first + d - h  # one past the last half handed out
        if top > end2:
            raise _Short
        if rejects is None:  # x * m mod 2**32 below 2**32 mod m: rejected
            bad = (halves[first:] * np.uint32(m) < reject).nonzero()[0]
            rejects = [*(bad + first).tolist(), _END]
            if h and held * m & _MASK32 < reject:
                rejects.insert(0, _HELD)
        while rejects[ri] < top:
            if rejects[ri] >= (bslot if h else first):  # a slot handed out
                return [draw32(m, reject)[0] for _ in range(d)]
            ri += 1
        slots = [bslot] if h else []
        if top > first:
            slots += range(first, top)
            # the last word's high half: held if top is odd, else taken
            pos, bslot = (top + 1) >> 1, (top - 1) | 1
        h = top & 1
        return slots

    while c < until:
        s = starts[si]
        while s < pos:
            si += 1
            s = starts[si]
        if s < end:
            j, off = divmod(s - pos, stride)
            if off < start_row:  # a hit in a flip row is no start
                si += 1
                continue
            if c + j > until:
                j = until - c
        else:  # no start hit in [pos, end): quiet through the words at hand
            j = min((end - pos) // stride, until - c)
            if not j:
                break
        if not j and pos + stride > end:
            break
        # the flip rows up to the next busy cycle's start row, or its own
        limit = pos + j * stride if j else pos + start_row
        if bursty:
            on0 = on
            f = flips[fi]
            while f < limit:
                fi += 1
                f -= pos
                if f >= 0 and f % stride < n:
                    on ^= 1 << f % stride
                f = flips[fi]
        if j:
            c += j
            pos = limit
            continue
        started: list[int] = []
        row, pos = limit, limit + n
        while s < pos:
            if on >> (s - row) & 1:
                started.append(s - row)
            si += 1
            s = starts[si]
        if not started:
            c += 1
            continue
        # a busy cycle: the destination draws, then the classes; it is
        # recorded once it is parsed whole
        k = len(started)
        h0, bslot0 = h, bslot
        try:
            if n_hot:
                slots = uniform(k)
                first = pos
                pos += k
                if pos > end:
                    raise _Short
                hi = bisect_left(hots, first, hi)
                redraw: list[int] = []
                while hots[hi] < first + k:
                    j = hots[hi] - first
                    hi += 1
                    pick = hot_nodes[draw32(n_hot, hot_reject)[1] if n_hot > 1 else 0]
                    if pick == node_ids[started[j]]:
                        redraw.append(j)
                    else:
                        slots[j] = _PICK - pick
                if redraw:
                    for j, redrawn in zip(redraw, uniform(len(redraw))):
                        slots[j] = redrawn
            elif table is not None:
                slots = [uniform(1)[0] if selfed[o] else _FIXED for o in started]
            else:
                slots = uniform(k)
            if pos + k > end:
                raise _Short
        except _Short:
            pos, h, bslot, on = row - start_row, h0, bslot0, on0
            break
        cyc.append(c)
        count.append(k)
        offs += started
        dslot += slots
        if classes:
            cpos += range(pos, pos + k)
        pos += k
        c += 1

    cols: Optional[_Columns] = None
    if cyc:
        src = nodes[offs]
        dest = table[src] if table is not None else np.empty(len(src), np.int64)
        slot = np.array(dslot, dtype=np.int64)
        picked = slot <= _PICK
        dest[picked] = _PICK - slot[picked]
        drawn = (slot >= _HELD).nonzero()[0]
        slot = slot[drawn]
        x = halves[np.maximum(slot, 0)].astype(np.uint64)
        x[slot == _HELD] = held
        u = (x * np.uint64(m) >> np.uint64(32)).astype(np.int64)
        dest[drawn] = u + (u >= src[drawn])
        cls = np.zeros(len(src), np.intp)
        if classes:
            w = words[cpos] >> np.uint64(11)
            cls = const.class_cdf.searchsorted(w * 2.0**-53, side="right")
        vnet, size = const.class_vnet[cls], const.class_size[cls]
        cols = (np.repeat(np.array(cyc, dtype=np.int64), count), src, dest, vnet, size)
    if bslot != _HELD:
        held = int(halves[bslot])
    return cols, pos, _State(c, h, held, on)


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
    those are the streams and shapes :func:`_parse` reads.

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
        # ON/OFF process: mean burst length grows with burstiness; duty
        # cycle 50 %, so the ON-state rate is doubled to keep the average
        bursty = burstiness > 0.0
        self._start_prob = (
            min(2.0 * self.packet_rate, 1.0) if bursty else self.packet_rate
        )
        #: per-node ON flags as a bitmask (bit i: ``nodes[i]``); every node
        #: of a smooth source is ON, a bursty source's flags are its
        #: stream's first draw
        self._on: Optional[int] = None if bursty else -1

        # ---- what the parse reads of the pattern ----
        p = self.pattern
        table: Optional[np.ndarray] = None
        selfed: list[bool] = []
        hot_nodes: list[int] = []
        hot_word = 0
        if isinstance(p, Hotspot):
            hot_nodes, hot_word = list(p.hotspots), _word_threshold(p.fraction)
        elif isinstance(p, _PermutationPattern):
            table = p.table
            selfed = (table[self._nodes] == self._nodes).tolist()
        elif not isinstance(p, UniformRandom):
            raise ValueError(
                f"pattern {type(p).__name__} is none of UniformRandom, Hotspot "
                "or a permutation: the draw has no parse for it"
            )
        if num_nodes == 2:
            # ``integers(0, 1)`` draws nothing: a uniform destination (or
            # a redrawn self-target) is the other node, read off a table
            other = np.array([1, 0])
            table = other if table is None else np.where(table == [0, 1], other, table)
            selfed = [False] * len(self._nodes)
        # the class draw is ``Generator.choice(len(mix), size=k, p=...)``
        # spelled out: its CDF, searched with k uniforms
        class_cdf = class_prob.cumsum()
        class_cdf /= class_cdf[-1]
        self._const = _Constants(
            nodes=self._nodes, node_ids=self._nodes.tolist(), bursty=bursty,
            start_word=_word_threshold(self._start_prob),
            flip_word=_word_threshold((1.0 - burstiness) * 0.1),
            m=num_nodes - 1, table=table, selfed=selfed,
            hot_nodes=hot_nodes, hot_word=hot_word, class_cdf=class_cdf,
            class_vnet=np.array([c.vnet for c in self.mix]),
            class_size=np.array([c.size_flits for c in self.mix]),
        )
        # raw words to read per cycle left: a quiet cycle's rows plus about
        # twice what its packets draw on average, so that one read mostly
        # covers a window and a sparse window reads no word it does not use
        n = len(self._nodes)
        per_packet = 3.0 if hot_nodes else 1.5
        self._words_per_cycle = (2 if bursty else 1) * n + (
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

        The stream is read as raw words and parsed by :func:`_parse` after
        the words the last parse left.  A read is sized to about the rest
        of the window, bounded by a block, and at least as long as what was
        left, so that a cycle longer than a block still fits.  Every 32-bit
        destination draw is checked for a Lemire rejection (at most ``m``
        in 2**32 draws) before its slot is handed out, so one pass is the
        whole parse.  At the end the generator is left exactly where the
        per-cycle calls leave it, held half included: words read past the
        window are rewound.
        """
        c = self._drawn
        chunks: list[_Columns] = []
        if c < until:
            const = self._const
            bit_generator = self.rng.bit_generator
            on = self._on
            if on is None:
                first = self.rng.random(len(const.node_ids)) < 0.5
                on = sum(1 << int(i) for i in np.flatnonzero(first))
            begin = bit_generator.state
            state = _State(c, begin["has_uint32"], begin["uinteger"], on)
            words = np.empty(0, dtype=np.uint64)
            while state.cycle < until:
                have = len(words)
                want = int((until - state.cycle) * self._words_per_cycle)
                new = bit_generator.random_raw(max(min(want, _BLOCK_WORDS) - have, have))
                words = np.concatenate((words, new)) if have else new
                cols, used, state = _parse(words, state, until, const)
                if cols:
                    chunks.append(cols)
                words = words[used:]
            # read past the window: step back (PCG64's period is 2**128)
            if len(words):
                bit_generator.advance(-len(words))
            # advance() drops the held half: put it back, as any change to it
            held = state.has_uint32, state.uinteger
            if len(words) or held != (begin["has_uint32"], begin["uinteger"]):
                end = dict(bit_generator.state)
                end["has_uint32"], end["uinteger"] = held
                bit_generator.state = end
            self._on = state.on
            self._drawn = until
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return PacketTable(empty, empty, empty, empty, empty, empty)
        joined = chunks[0] if len(chunks) == 1 else [np.concatenate(c) for c in zip(*chunks)]
        return PacketTable(*joined, joined[0])

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
