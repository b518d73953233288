"""The traffic parse on synthetic words.

``SyntheticTraffic`` reads its PCG64 stream as raw words and hands them
to ``generator._parse``, a pure function of those words.  A real stream
almost never rejects a Lemire draw (at most ``m`` in 2**32 do) and seldom
makes start and hot hits dense, so here the words are built: a
Hypothesis strategy puts a rejected half in any slot — a destination
slot, one a hotspot pick overwrites, a redraw, the held half — and a
word that passes every test anywhere.

The oracle is :class:`Words`, NumPy's consumption of raw words spelled
out from its three rules (``random``, 32-bit Lemire with the held half,
``searchsorted`` for ``choice``), driven by :func:`consume`, the naive
per-cycle source.  It is pinned to ``conftest.reference_packets`` — the
plain ``Generator`` calls — on real PCG64 streams, so the rules it
spells out are NumPy's.
"""

from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_packets
from repro.config import NetworkConfig, RouterConfig
from repro.traffic import generator
from repro.traffic.generator import (
    COHERENCE_MIX,
    SINGLE_FLIT_MIX,
    PacketClass,
    SyntheticTraffic,
)
from repro.traffic.patterns import Hotspot, UniformRandom, available_patterns, make_pattern

MASK32 = 0xFFFFFFFF
NET = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4, num_vnets=2))
THREE_CLASS_MIX = (
    PacketClass(size_flits=1, vnet=0, weight=2.0),
    PacketClass(size_flits=3, vnet=1, weight=1.0),
    PacketClass(size_flits=5, vnet=1, weight=0.5),
)


class OutOfWords(Exception):
    pass


class Words:
    """NumPy's consumption of raw PCG64 words, by its three rules."""

    def __init__(self, words, has_uint32=0, uinteger=0):
        self.words = [int(w) for w in words]
        self.pos = 0
        self.has_uint32, self.uinteger = has_uint32, uinteger

    def next64(self):
        if self.pos == len(self.words):
            raise OutOfWords
        self.pos += 1
        return self.words[self.pos - 1]

    def random(self):
        """``Generator.random()``: the top 53 bits of a word."""
        return (self.next64() >> 11) * 2.0**-53

    def next32(self):
        """The held half, else the low half of a fresh word (its high
        half held)."""
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        word = self.next64()
        self.has_uint32, self.uinteger = 1, word >> 32
        return word & MASK32

    def integers(self, m):
        """``Generator.integers(0, m)``: 32-bit Lemire, redrawn while
        ``x * m mod 2**32 < (2**32 - m) mod m``; ``m = 1`` draws nothing."""
        if m == 1:
            return 0
        while True:
            x = self.next32() * m
            if x & MASK32 >= (2**32 - m) % m:
                return x >> 32

    def choice(self, cdf):
        """``Generator.choice(k, p=...)``, ``cdf`` its normalised cumsum."""
        return bisect_right(cdf, self.random())


def _cycle(words, source, on, cycle):
    """One cycle of the naive source: the ON mask after it, and its rows."""
    nodes = source._const.node_ids
    n = len(nodes)
    pattern = source.pattern
    others = source.config.num_nodes - 1
    if source.burstiness > 0.0:
        p_exit = (1.0 - source.burstiness) * 0.1
        for i in range(n):
            if words.random() < p_exit:
                on ^= 1 << i
        start_prob = min(2.0 * source.packet_rate, 1.0)
    else:
        start_prob = source.packet_rate
    started = [i for i in range(n) if words.random() < start_prob and on >> i & 1]
    sources = [nodes[i] for i in started]

    def uniform(src):
        d = words.integers(others)
        return d + (d >= src)

    if isinstance(pattern, Hotspot):
        dests = [uniform(s) for s in sources]
        hot = [words.random() < pattern.fraction for _ in sources]
        for i in range(len(sources)):
            if hot[i]:
                dests[i] = pattern.hotspots[words.integers(len(pattern.hotspots))]
    elif isinstance(pattern, UniformRandom):
        dests = [uniform(s) for s in sources]
    else:
        dests = [int(pattern.table[s]) for s in sources]
    dests = [uniform(s) if d == s else d for s, d in zip(sources, dests)]
    weights = np.array([c.weight for c in source.mix], dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    mix = [source.mix[words.choice(cdf.tolist())] for _ in sources]
    return on, [
        (cycle, s, d, c.vnet, c.size_flits) for s, d, c in zip(sources, dests, mix)
    ]


def consume(words, source, state, until):
    """The naive source over ``words`` from ``state``: its rows, the words
    consumed and the state, stopping at ``until`` or before the first
    cycle that runs out of words — what ``_parse`` must return."""
    cycle, has_uint32, uinteger, on = state
    stream = Words(words, has_uint32, uinteger)
    rows = []
    while cycle < until:
        mark = stream.pos, stream.has_uint32, stream.uinteger
        try:
            on, new = _cycle(stream, source, on, cycle)
        except OutOfWords:
            stream.pos, stream.has_uint32, stream.uinteger = mark
            break
        rows += new
        cycle += 1
    state = generator._State(cycle, stream.has_uint32, stream.uinteger, on)
    return rows, stream.pos, state


def _parsed(words, source, state, until):
    cols, used, after = generator._parse(
        np.array(words, dtype=np.uint64), state, until, source._const
    )
    rows = [] if cols is None else list(zip(*(c.tolist() for c in cols)))
    return rows, used, after


def _source(spec, net=NET):
    pattern = spec["pattern"]
    if isinstance(pattern, str):
        pattern = make_pattern(pattern, net)
    mix = spec["mix"]
    weights = np.array([c.weight for c in mix], dtype=float)
    mean_len = float(sum(c.size_flits * p for c, p in zip(mix, weights / weights.sum())))
    return SyntheticTraffic(
        net, spec["packet_rate"] * mean_len, pattern=pattern, mix=mix,
        rng=spec["seed"], burstiness=spec["burstiness"], nodes=spec["nodes"],
    )


MIXES = st.sampled_from([SINGLE_FLIT_MIX, COHERENCE_MIX, THREE_CLASS_MIX])
NODES = st.none() | st.lists(
    st.integers(0, NET.num_nodes - 1), min_size=1, max_size=8, unique=True
)


class TestTheConsumerIsNumPy:
    @given(st.fixed_dictionaries({
        "pattern": st.sampled_from(available_patterns()),
        "burstiness": st.sampled_from([0.0, 0.3, 0.8]),
        "mix": MIXES,
        "nodes": NODES,
        "packet_rate": st.sampled_from([0.0, 0.02, 0.3, 1.0]),
        "seed": st.integers(0, 2**32 - 1),
    }))
    @settings(max_examples=60, deadline=None)
    def test_consume_equals_the_generator_calls(self, spec):
        """On a real stream the consumer draws the reference's packets and
        stops on its word, held half included."""
        horizon = 60
        source = _source(spec)
        ref = np.random.default_rng(spec["seed"])
        want = reference_packets(
            NET, source.injection_rate, source.pattern, spec["mix"],
            spec["seed"], spec["burstiness"], spec["nodes"], horizon, rng=ref,
        )
        bit_generator = np.random.default_rng(spec["seed"]).bit_generator
        stream = bit_generator.random_raw(40_000)
        n = len(source._const.node_ids)
        on, skip = -1, 0
        if spec["burstiness"] > 0.0:  # the ON flags are the stream's first draw
            first = Words(stream[:n])
            on = sum(1 << i for i in range(n) if first.random() < 0.5)
            skip = n
        rows, used, after = consume(
            stream[skip:], source, generator._State(0, 0, 0, on), horizon
        )
        assert rows == want
        assert after.cycle == horizon
        # a generator that read exactly the consumed words and holds its half
        bit_generator.advance(-(len(stream) - skip - used))
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = after.has_uint32, after.uinteger
        assert state == ref.bit_generator.state


# ----------------------------------------------------------------------
# _parse against the consumer, on built words
# ----------------------------------------------------------------------
#: a half that is 0 is rejected by every Lemire range that rejects at all
#: (m not a power of two); as a word's high half, 0 passes every test
#: short of p = 0 and MASK32 fails every test short of p = 1, and the
#: others fall either side of the probabilities the sources test
HALVES = [0, 1, 0x2545F491, 0x9E3779B9, 0xC0000000, MASK32]
WORD = st.sampled_from([hi << 32 | lo for hi in HALVES for lo in HALVES])
#: any length up to a few busy cycles, not hypothesis' usual short lists
WORDS = st.integers(0, 200).flatmap(lambda k: st.lists(WORD, min_size=k, max_size=k))
SMALL = NetworkConfig(width=3, height=2, router=RouterConfig(num_vcs=2, num_vnets=2))
NINE = NetworkConfig(width=3, height=3, router=RouterConfig(num_vcs=2, num_vnets=2))


def _patterns(net):
    """Every pattern the mesh takes, and two more hotspot shapes: one
    hotspot (no pick drawn) and three (a pick of 0 is rejected; the
    default's four never are)."""
    shapes = [
        Hotspot(net, hotspots=[1], fraction=0.5),
        Hotspot(net, hotspots=[1, 2, 4], fraction=1.0),
    ]
    for name in available_patterns():
        try:
            shapes.append(make_pattern(name, net))
        except ValueError:  # transpose wants a square mesh, bit_reverse 2**k nodes
            pass
    return st.sampled_from(shapes)


@st.composite
def parse_cases(draw):
    """A source, built words, a start state and a window."""
    # m = 15 and m = 5 reject 0; m = 8 rejects nothing
    net = draw(st.sampled_from([NET, NET, SMALL, NINE]))
    nodes = draw(st.none() | st.lists(
        st.integers(0, net.num_nodes - 1), min_size=1, max_size=8, unique=True
    ))
    spec = {
        "pattern": draw(_patterns(net)),
        "burstiness": draw(st.sampled_from([0.0, 0.0, 0.4])),
        "mix": draw(MIXES),
        "nodes": nodes,
        "packet_rate": draw(st.sampled_from([0.01, 0.3, 1.0])),
        "seed": 0,
    }
    source = _source(spec, net)
    n = len(source._const.node_ids)
    on = draw(st.integers(0, 2**n - 1)) if spec["burstiness"] else -1
    state = generator._State(
        draw(st.integers(0, 3)), draw(st.integers(0, 1)), draw(st.sampled_from([0, *HALVES])), on
    )
    until = state.cycle + draw(st.integers(0, 30))
    return source, draw(WORDS), state, until


class TestParseOnSyntheticWords:
    @given(parse_cases())
    @settings(max_examples=400, deadline=None)
    def test_parse_equals_the_consumer(self, case):
        """Same packets, same words consumed, same state — and the parse
        stops where the consumer runs out of words, not before."""
        source, words, state, until = case
        assert _parsed(words, source, state, until) == consume(words, source, state, until)

    def test_a_rejected_half_in_every_role(self):
        """Hand-built: both packets of a cycle are hot-picked, so the
        held half — rejected — and the two destination halves after it are
        all overwritten; the first pick's first half is rejected too, and
        so is the held half a redraw then takes."""
        source = _source({
            "pattern": Hotspot(NET, hotspots=[1, 2, 4], fraction=1.0),
            "burstiness": 0.0, "mix": SINGLE_FLIT_MIX, "nodes": [1, 3],
            "packet_rate": 0.5, "seed": 0,
        })
        hit, quiet = 1, MASK32 << 32
        words = [
            hit, hit,  # cycle 0: both nodes start
            9 << 32 | 7,  # the destinations, after the held half 0
            hit, hit,  # both hot
            1 << 32,  # a pick: 0 is rejected, 1 picks node 1, node 1's own
            MASK32,  # a pick: node 4; its high half, 0, held
            3,  # node 1's redraw: the held 0 is rejected, 3 is node 0
            1 << 62, 1 << 63,  # the class uniforms
            quiet, quiet,  # cycle 1: no start; cycle 2 runs out of words
        ]
        state = generator._State(0, 1, 0, -1)
        got = _parsed(words, source, state, 5)
        assert got == consume(words, source, state, 5)
        assert got == (
            [(0, 1, 0, 0, 1), (0, 3, 4, 0, 1)], 12, generator._State(2, 1, 0, -1)
        )
