"""Packet tables: traffic drawn ahead, and the lane engine's array NIC.

Two contracts are pinned here.

* **The draw is the per-cycle stream.**  ``SyntheticTraffic`` fills its
  table ahead of every reader with one routine; what it draws must equal
  the naive per-cycle source the test suite writes out with the plain
  NumPy calls (``conftest.reference_packets``: ``rng.choice`` for
  hotspots and packet classes) — the production code parses the raw
  PCG64 words those calls consume, so a NumPy release that changes any
  of them fails here instead of silently forking every seeded result —
  and must leave the generator where they leave it, held 32-bit half
  included.  No reader — ``generate``, ``next_injection``,
  ``packet_table`` in any interleaving — may change the packets.
* **The lane boundary is the object NIC.**  Lanes inject from and eject
  into table columns; with ``keep_samples=True`` every lane must equal
  the full-scan reference stepper on ``summary()``, the router counters
  and every sample field (bar the packet id) *in ejection order*.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lane_schedules, reference_packets
from repro.config import NetworkConfig, RouterConfig, SimulationConfig
from repro.core.protected_router import protected_router_factory
from repro.faults import FaultSite, FaultTimeline, FaultUnit, TimelineEvent
from repro.network.batched import LaneSpec, run_lanes
from repro.network.simulator import NoCSimulator, baseline_router_factory
from repro.router.flit import Packet
from repro.traffic.generator import (
    COHERENCE_MIX,
    SINGLE_FLIT_MIX,
    NullTraffic,
    PacketClass,
    SyntheticTraffic,
    TraceTraffic,
    compile_table,
)
from repro.traffic import generator
from repro.traffic.patterns import (
    BitComplement,
    Hotspot,
    Neighbor,
    Tornado,
    UniformRandom,
    available_patterns,
    make_pattern,
)

NET = NetworkConfig(width=4, height=4, router=RouterConfig(num_vcs=4, num_vnets=2))
THREE_CLASS_MIX = (
    PacketClass(size_flits=1, vnet=0, weight=2.0),
    PacketClass(size_flits=3, vnet=1, weight=1.0),
    PacketClass(size_flits=5, vnet=1, weight=0.5),
)


def _rows(packets):
    return [
        (p.creation_cycle, p.src, p.dest, p.vnet, p.size_flits) for p in packets
    ]


def _table_rows(table):
    assert table.creation is table.cycle or (table.creation == table.cycle).all()
    return list(zip(*(
        col.tolist()
        for col in (table.cycle, table.src, table.dest, table.vnet, table.size)
    )))


def _mean_len(mix):
    # the source's own arithmetic, so that 1 packet/node/cycle is exact
    weights = np.array([c.weight for c in mix], dtype=float)
    return float(sum(c.size_flits * p for c, p in zip(mix, weights / weights.sum())))


SOURCES = st.fixed_dictionaries({
    "pattern": st.sampled_from(available_patterns()),
    "burstiness": st.sampled_from([0.0, 0.0, 0.3, 0.8]),
    "mix": st.sampled_from([SINGLE_FLIT_MIX, COHERENCE_MIX, THREE_CLASS_MIX]),
    "nodes": st.none() | st.lists(
        st.integers(0, NET.num_nodes - 1), min_size=1, max_size=8, unique=True
    ),
    # packets per node per cycle: silent, sparse (quiet jumps), busy, saturated
    "packet_rate": st.sampled_from([0.0, 0.002, 0.02, 0.3, 1.0]),
    "seed": st.integers(0, 2**32 - 1),
})


def _make(spec):
    kwargs = dict(
        pattern=make_pattern(spec["pattern"], NET),
        mix=spec["mix"],
        burstiness=spec["burstiness"],
        nodes=spec["nodes"],
    )
    rate = spec["packet_rate"] * _mean_len(spec["mix"])
    source = SyntheticTraffic(NET, rate, rng=spec["seed"], **kwargs)
    kwargs["rate"] = rate
    kwargs["seed"] = spec["seed"]
    return source, kwargs


def _assert_same_stream(rng, ref):
    """``rng`` sits where ``ref`` does: no word read past the draw, and
    the held 32-bit half (which ``random()`` never sees) the same."""
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()
    assert rng.integers(0, 7) == ref.integers(0, 7)


class TestDrawEqualsPerCycleReference:
    HORIZON = 160

    @given(SOURCES)
    @settings(max_examples=120, deadline=None)
    def test_table_equals_naive_reference(self, spec):
        source, ref = _make(spec)
        ref_rng = np.random.default_rng(spec["seed"])
        want = reference_packets(NET, horizon=self.HORIZON, rng=ref_rng, **ref)
        assert _table_rows(compile_table(source, self.HORIZON, NET)) == want
        _assert_same_stream(source.rng, ref_rng)
        source, _ = _make(spec)
        got = [r for c in range(self.HORIZON) for r in _rows(source.generate(c))]
        assert got == want

    @given(
        SOURCES,
        st.lists(st.tuples(st.sampled_from("gnt"), st.integers(1, 40)), max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_reader_interleaving_reads_the_same_packets(self, spec, program):
        """``g``: step ``generate`` for k cycles; ``n``: one lookahead over
        a k-cycle window and a jump to the hit (or past the window);
        ``t``: take the next k cycles as a table."""
        source, ref = _make(spec)
        want = reference_packets(NET, horizon=self.HORIZON, **ref)
        got, cycle = [], 0
        for op, k in program + [("g", self.HORIZON)]:
            stop = min(self.HORIZON, cycle + k)
            if op == "g":
                for c in range(cycle, stop):
                    got += _rows(source.generate(c))
                cycle = stop
            elif op == "t":
                got += _table_rows(source.packet_table(stop))
                cycle = stop
            else:
                hit = source.next_injection(cycle, stop)
                if hit is None:
                    cycle = stop
                    continue
                assert cycle <= hit < stop
                # asking again (a jump clamped short by a fault wake)
                # must re-confirm the same cycle
                assert source.next_injection(cycle, stop) == hit
                packets = source.generate(hit)
                assert packets, f"lookahead promised packets at {hit}"
                got += _rows(packets)
                cycle = hit + 1
        assert got == want
        # the readers drew ahead to ``_drawn``; the stream sits there
        ref_rng = np.random.default_rng(spec["seed"])
        reference_packets(NET, horizon=source._drawn, rng=ref_rng, **ref)
        _assert_same_stream(source.rng, ref_rng)

    def test_draw_never_reads_past_what_was_asked(self):
        """After a table through cycle H the stream sits exactly where
        per-cycle draws through H - 1 leave it: block boundaries, the
        last one included, do not show."""
        for burstiness in (0.0, 0.5):
            for rate in (0.0, 0.004, 0.2):
                source = SyntheticTraffic(NET, rate, rng=9, burstiness=burstiness)
                compile_table(source, 333, NET)
                ref = np.random.default_rng(9)
                n = NET.num_nodes
                on = ref.random(n) < 0.5 if burstiness else np.ones(n, dtype=bool)
                for _ in range(333):
                    if burstiness:
                        on ^= ref.random(n) < (1.0 - burstiness) * 0.1
                    starts = (ref.random(n) < source._start_prob) & on
                    k = int(starts.sum())
                    if k:
                        ref.integers(0, n - 1, size=k)
                        ref.random(k)
                assert source.rng.random() == ref.random(), (burstiness, rate)
                assert source.rng.integers(0, 7) == ref.integers(0, 7)


def _planted(seed, has_uint32, uinteger):
    """A generator seeded ``seed`` that holds (or not) a 32-bit half."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    rng.bit_generator.state = state
    return rng


class TestParseCorners:
    """What the random specs above rarely or never reach: a half held
    before the draw, a Lemire rejection, ranges that draw nothing, and
    one window parsed in many pieces."""

    HORIZON = 200

    def _check(self, net, pattern, rate, *, held=None, seed=5, mix=COHERENCE_MIX,
               burstiness=0.0, nodes=None, horizon=HORIZON):
        source = SyntheticTraffic(
            net, rate, pattern=pattern, mix=mix, rng=seed,
            burstiness=burstiness, nodes=nodes,
        )
        ref_rng = np.random.default_rng(seed)
        if held is not None:
            source.rng = _planted(seed, *held)
            ref_rng = _planted(seed, *held)
        want = reference_packets(
            net, rate, pattern, mix, seed, burstiness, nodes, horizon, rng=ref_rng
        )
        assert want, "a corner case that draws no packet checks nothing"
        assert _table_rows(compile_table(source, horizon, net)) == want
        _assert_same_stream(source.rng, ref_rng)

    @pytest.mark.parametrize("pattern", available_patterns())
    @pytest.mark.parametrize("uinteger", [0x9E3779B9, 0])
    def test_a_half_held_before_the_draw(self, pattern, uinteger):
        """The first 32-bit draw takes the held half, not a fresh word;
        ``uinteger = 0`` is also a rejection wherever ``m`` is no power of
        two (15 for uniform destinations on 4x4)."""
        self._check(NET, make_pattern(pattern, NET), 0.3, held=(1, uinteger))

    def test_the_planted_half_is_a_rejection(self):
        rng = _planted(5, 1, 0)
        rng.integers(0, NET.num_nodes - 1)
        # a rejected held half: the accepted draw took a fresh word and
        # holds its high half; an accepted one would have held nothing
        assert rng.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("burstiness", [0.0, 0.5])
    def test_a_rejection_with_flushes_inside_the_window(self, monkeypatch, burstiness):
        """Blocks of 40 words: one window is parsed in many pieces, a busy
        cycle cut by a piece's end waits whole for the next, and the
        planted rejection is caught before the first slot is handed out."""
        monkeypatch.setattr(generator, "_BLOCK_WORDS", 40)
        for pattern in (UniformRandom(NET), Hotspot(NET, fraction=1.0), Tornado(NET)):
            self._check(NET, pattern, 0.4, held=(1, 0), burstiness=burstiness)
            self._check(NET, pattern, 0.4, burstiness=burstiness, nodes=[9, 2, 14])

    @pytest.mark.parametrize("case", ["every node", "cold nodes", "40-word blocks"])
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_a_rejection_in_a_slot_a_hot_pick_overwrites(self, monkeypatch, case, seed):
        """Every packet is hot-picked, so its first destination draw is
        overwritten — by the pick, or by a redraw when it picks its own
        node — and the planted rejection sits in such a slot: NumPy
        still consumed it, so the parse must still see it.  From nodes
        that are no hotspot no pick is ever redrawn."""
        pattern = Hotspot(NET, fraction=1.0)
        nodes = None
        if case == "cold nodes":
            nodes = [i for i in range(NET.num_nodes) if i not in pattern.hotspots]
        elif case == "40-word blocks":
            monkeypatch.setattr(generator, "_BLOCK_WORDS", 40)
        self._check(NET, pattern, 0.3, held=(1, 0), seed=seed, nodes=nodes)

    @pytest.mark.parametrize(
        "pattern",
        ["uniform", "neighbor", "tornado", "bit_complement", "hotspot_one", "hotspot_both"],
    )
    def test_a_two_node_mesh_draws_no_destination(self, pattern):
        """``integers(0, 1)`` draws nothing: a uniform destination (and a
        redrawn self-target: tornado maps both nodes to themselves) is the
        other node, with no word consumed."""
        net = NetworkConfig(width=2, height=1, router=RouterConfig(num_vcs=4, num_vnets=2))
        make = {
            "uniform": lambda: UniformRandom(net),
            "neighbor": lambda: Neighbor(net),
            "tornado": lambda: Tornado(net),
            "bit_complement": lambda: BitComplement(net),
            "hotspot_one": lambda: Hotspot(net, hotspots=[0], fraction=0.5),
            "hotspot_both": lambda: Hotspot(net, hotspots=[0, 1], fraction=0.5),
        }[pattern]
        self._check(net, make(), 0.5, held=(1, 0))
        self._check(net, make(), 0.5, burstiness=0.4)

    def test_a_one_node_hotspot_draws_no_pick(self):
        """``choice`` of one hotspot is ``integers(0, 1)``: no draw, and a
        packet from the hotspot itself redraws uniformly."""
        pattern = Hotspot(NET, hotspots=[5], fraction=0.6)
        self._check(NET, pattern, 0.4)
        self._check(NET, pattern, 0.4, nodes=[5, 6], held=(1, 7))


class TestCompileTable:
    """The lane engine's one traffic boundary: pack anything, check once."""

    def test_trace_and_wrapper_sources_pack_through_generate(self):
        packets = [
            Packet(src=0, dest=5, size_flits=2, vnet=1, creation_cycle=c)
            for c in (3, 3, 40, 900)
        ]
        table = compile_table(TraceTraffic(packets), 100, NET)
        assert table.cycle.tolist() == [3, 3, 40]  # 900 is past the window
        assert table.size.tolist() == [2, 2, 2]
        assert len(compile_table(NullTraffic(), 100, NET)) == 0

    def test_late_replay_keeps_the_creation_stamp(self):
        """A source may hand a packet over later than it was created;
        the table keeps both cycles, as ``enqueue`` + ``Packet`` do."""

        class Late:
            def generate(self, cycle):
                if cycle == 7:
                    yield Packet(src=1, dest=2, size_flits=1, creation_cycle=4)

        table = compile_table(Late(), 20, NET)
        assert (table.cycle.tolist(), table.creation.tolist()) == ([7], [4])

    @staticmethod
    def _yields(**fields):
        packet = Packet(src=1, dest=2, size_flits=1)
        for name, value in fields.items():
            setattr(packet, name, value)

        class Source:
            def generate(self, cycle):
                return [packet] if cycle == 0 else []

        return Source()

    @pytest.mark.parametrize("vnet", [-1, 2])
    def test_rejects_vnet_out_of_range(self, vnet):
        with pytest.raises(ValueError, match=f"packet vnet {vnet} out of range"):
            compile_table(self._yields(vnet=vnet), 5, NET)

    @pytest.mark.parametrize("src", [-1, 16])
    def test_rejects_src_outside_the_mesh(self, src):
        with pytest.raises(ValueError, match=f"sourced at {src}"):
            compile_table(self._yields(src=src), 5, NET)

    def test_rejects_dest_outside_the_mesh(self):
        with pytest.raises(ValueError, match="destination 16 outside"):
            compile_table(self._yields(dest=16), 5, NET)

    def test_rejects_self_addressed_packet(self):
        with pytest.raises(ValueError, match="source and destination must differ"):
            compile_table(self._yields(dest=1), 5, NET)

    def test_rejects_empty_packet(self):
        with pytest.raises(ValueError, match="at least one flit"):
            compile_table(self._yields(size_flits=0), 5, NET)

    def test_lane_engine_rejects_at_the_boundary(self):
        """What used to be an ``IndexError`` deep in the lane engine (or
        a flit queued at the wrong NIC) is the object NIC's ``ValueError``."""
        sim_cfg = SimulationConfig(warmup_cycles=5, measure_cycles=5, drain_cycles=50)
        with pytest.raises(ValueError, match="vnet 7 out of range"):
            run_lanes(NET, sim_cfg, [LaneSpec(self._yields(vnet=7))])
        with pytest.raises(ValueError, match="sourced at 99"):
            run_lanes(NET, sim_cfg, [LaneSpec(self._yields(src=99))])


# ----------------------------------------------------------------------
# lanes vs the reference stepper, samples in ejection order
# ----------------------------------------------------------------------
def _sample_key(sample):
    fields = dataclasses.asdict(sample)
    del fields["packet_id"]  # allocation-order artefact
    return fields


def _assert_lanes_equal_reference(net, sim_cfg, make_specs, kind, width=None):
    factory = {
        "baseline": baseline_router_factory,
        "protected": protected_router_factory,
    }[kind](net)
    lanes = run_lanes(
        net, sim_cfg, make_specs(), router_factory=factory,
        keep_samples=True, width=width,
    )
    for i, (spec, lane) in enumerate(zip(make_specs(), lanes)):
        ref = NoCSimulator(
            net, sim_cfg, spec.traffic, router_factory=factory,
            fault_schedule=spec.fault_schedule, keep_samples=True,
            use_reference_stepper=True,
        ).run()
        where = f"point {i}"
        assert (lane.cycles, lane.blocked, lane.drained, lane.faults_injected) == (
            ref.cycles, ref.blocked, ref.drained, ref.faults_injected
        ), where
        # by repr: an empty lane's averages are NaN, which never equals itself
        assert repr(lane.stats.summary()) == repr(ref.stats.summary()), where
        assert lane.stats.vnet_breakdown() == ref.stats.vnet_breakdown(), where
        assert (lane.stats.flits_injected, lane.stats.flits_ejected) == (
            ref.stats.flits_injected, ref.stats.flits_ejected
        ), where
        assert lane.router_stats == ref.router_stats, where
        assert [_sample_key(s) for s in lane.stats.samples] == [
            _sample_key(s) for s in ref.stats.samples
        ], where
    return lanes


def _sim(measure=250, drain=1500, watchdog=6000):
    return SimulationConfig(
        warmup_cycles=50, measure_cycles=measure, drain_cycles=drain,
        seed=5, watchdog_cycles=watchdog,
    )


class TestLaneBoundaryEqualsReferenceStepper:
    def test_refilled_and_faulted_lanes(self):
        """Seven points through three slots: every refilled slot starts
        from a fresh table, cursors and NIC arrays."""

        def specs():
            schedules = lane_schedules(
                NET, 7, 123, mean_interval=30.0,
                num_faults=6, first_fault_at=40, avoid_failure=True,
            )
            return [
                LaneSpec(
                    SyntheticTraffic(
                        NET, 0.04 + 0.03 * (i % 4), mix=COHERENCE_MIX,
                        rng=200 + i, burstiness=0.3 * (i % 2),
                    ),
                    schedules[i] if i % 2 else None,
                )
                for i in range(7)
            ]

        lanes = _assert_lanes_equal_reference(
            NET, _sim(), specs, "protected", width=3
        )
        assert all(lane.stats.samples for lane in lanes)

    def test_saturated_nics_and_single_vnet(self):
        """Source queues back up behind zero-credit stalls; one vnet, so
        the round-robin pass has a single offset."""
        net = NetworkConfig(width=3, height=3, router=RouterConfig(num_vcs=2, num_vnets=1))

        def specs():
            mix = (PacketClass(1, weight=1.0), PacketClass(6, weight=1.0))
            return [
                LaneSpec(SyntheticTraffic(net, rate, mix=mix, rng=40 + i))
                for i, rate in enumerate((0.3, 0.6, 0.9))
            ]

        lanes = _assert_lanes_equal_reference(net, _sim(measure=150), specs, "baseline")
        assert lanes[-1].stats.avg_total_latency > lanes[-1].stats.avg_network_latency

    def test_watchdog_blocked_lane_retires_mid_injection(self):
        """Every RC unit of a baseline mesh dies at cycle 80: the fabric
        stalls with flits inside, the watchdog fires long before the
        inject window ends, and ``packets_created`` must be what a
        per-cycle run had drawn by then — not the whole table.  The
        freed slot is refilled."""
        net = NetworkConfig(width=3, height=3, router=RouterConfig(num_vcs=2, num_vnets=1))
        sim_cfg = _sim(measure=600, watchdog=70)

        def specs():
            kill = FaultTimeline(
                TimelineEvent(80, FaultSite(node, FaultUnit.RC_PRIMARY, port))
                for node in range(net.num_nodes)
                for port in range(net.router.num_ports)
            )
            return [
                LaneSpec(SyntheticTraffic(net, 0.2, rng=7), kill),
                LaneSpec(SyntheticTraffic(net, 0.1, rng=8)),
                LaneSpec(SyntheticTraffic(net, 0.15, rng=9)),
            ]

        lanes = _assert_lanes_equal_reference(net, sim_cfg, specs, "baseline", width=2)
        blocked = lanes[0]
        assert blocked.blocked and not blocked.drained
        assert blocked.cycles < sim_cfg.warmup_cycles + sim_cfg.measure_cycles
        table = compile_table(SyntheticTraffic(net, 0.2, rng=7), 650, net)
        assert blocked.stats.packets_created < len(table)
        assert lanes[1].drained and lanes[2].drained

    @pytest.mark.parametrize("link,credit", [(2, 1), (1, 3), (3, 2)])
    def test_multi_cycle_links_and_credits(self, link, credit):
        net = NetworkConfig(
            width=4, height=3, link_latency=link, credit_latency=credit,
            router=RouterConfig(num_vcs=4, num_vnets=2),
        )

        def specs():
            return [
                LaneSpec(SyntheticTraffic(net, r, mix=COHERENCE_MIX, rng=60 + i))
                for i, r in enumerate((0.05, 0.2))
            ]

        _assert_lanes_equal_reference(net, _sim(measure=150), specs, "protected")

    def test_trace_lane_and_zero_rate_lane(self):
        """A lane packed through ``generate`` (a trace with two packets
        queued behind each other at one NIC), an empty lane and a
        synthetic lane share one engine."""

        def specs():
            trace = [
                Packet(src=s, dest=d, size_flits=n, vnet=v, creation_cycle=c)
                for c, s, d, n, v in [
                    (0, 0, 15, 5, 1), (0, 0, 3, 1, 0), (0, 0, 12, 5, 1),
                    (60, 5, 6, 1, 0), (61, 5, 6, 5, 1), (299, 15, 0, 5, 1),
                    (5000, 1, 2, 1, 0),
                ]
            ]
            return [
                LaneSpec(TraceTraffic(trace)),
                LaneSpec(SyntheticTraffic(NET, 0.0, rng=1)),
                LaneSpec(SyntheticTraffic(NET, 0.1, mix=COHERENCE_MIX, rng=2)),
            ]

        lanes = _assert_lanes_equal_reference(NET, _sim(), specs, "protected")
        assert lanes[0].stats.packets_created == 6
        assert lanes[1].stats.packets_created == 0 and lanes[1].drained
