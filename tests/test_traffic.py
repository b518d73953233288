"""Tests for traffic patterns, generators, app surrogates, and traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, RouterConfig
from repro.router.flit import Packet
from repro.traffic.apps import (
    PARSEC_PROFILES,
    SPLASH2_PROFILES,
    AppProfile,
    app_profile,
    directory_home_nodes,
    make_app_traffic,
    suite_profiles,
)
from conftest import reference_packets
from repro.traffic.generator import (
    COHERENCE_MIX,
    SINGLE_FLIT_MIX,
    NullTraffic,
    PacketClass,
    SyntheticTraffic,
    TraceTraffic,
    compile_table,
)
from repro.traffic.patterns import (
    BitComplement,
    BitReverse,
    Hotspot,
    Neighbor,
    Tornado,
    TrafficPattern,
    Transpose,
    UniformRandom,
    available_patterns,
    make_pattern,
)
from repro.traffic.trace import (
    bucket_by_cycle,
    load_trace,
    record_source,
    record_to_packet,
    save_trace,
)


@pytest.fixture
def net():
    return NetworkConfig(width=4, height=4)


def _drawn(net, pattern, rate=0.5, seed=7, horizon=400, nodes=None):
    """A source's (src, dest) columns over ``horizon`` cycles."""
    t = compile_table(
        SyntheticTraffic(net, rate, pattern=pattern, rng=seed, nodes=nodes),
        horizon, net,
    )
    return t.src, t.dest


class TestPatterns:
    def test_uniform_never_self(self, net):
        src, dst = _drawn(net, UniformRandom(net))
        assert len(src) > 1000
        assert np.all(dst != src)
        assert np.all((0 <= dst) & (dst < 16))

    def test_uniform_covers_all_destinations(self, net):
        src, dst = _drawn(net, UniformRandom(net), nodes=[0], rate=1.0, horizon=2000)
        assert set(src.tolist()) == {0}
        assert set(dst.tolist()) == set(range(1, 16))

    def test_transpose(self, net):
        # (1,0)=1 -> (0,1)=4
        assert Transpose(net).table[1] == 4

    def test_transpose_requires_square(self):
        with pytest.raises(ValueError):
            Transpose(NetworkConfig(width=4, height=2))

    def test_bit_complement(self, net):
        p = BitComplement(net)
        assert p.table[0] == 15
        assert p.table[3] == 12

    def test_bit_reverse_power_of_two_only(self):
        with pytest.raises(ValueError):
            BitReverse(NetworkConfig(width=3, height=3))

    def test_bit_reverse_mapping(self, net):
        p = BitReverse(net)
        # 16 nodes, 4 bits: 1 (0001) -> 8 (1000)
        assert p.table[1] == 8

    def test_tornado_half_width(self, net):
        p = Tornado(net)
        # (0,0) -> (x + ceil(4/2)-1) mod 4 = (0+1)%4 = 1
        assert p.table[0] == 1

    def test_neighbor(self, net):
        p = Neighbor(net)
        assert p.table[0] == 1
        assert p.table[3] == 0  # wraps row

    def test_hotspot_bias(self, net):
        p = Hotspot(net, hotspots=[5], fraction=0.5)
        src, dst = _drawn(net, p, nodes=[2], rate=1.0, horizon=4000)
        frac5 = np.mean(dst == 5)
        assert 0.4 < frac5 < 0.6
        assert np.all(dst != src)

    def test_hotspot_validation(self, net):
        with pytest.raises(ValueError):
            Hotspot(net, hotspots=[99])
        with pytest.raises(ValueError):
            Hotspot(net, fraction=1.5)
        with pytest.raises(ValueError):
            Hotspot(net, hotspots=[])

    def test_factory(self, net):
        assert available_patterns()
        for name in available_patterns():
            if name == "bit_reverse" and net.num_nodes & (net.num_nodes - 1):
                continue
            pat = make_pattern(name, net)
            assert pat.name == name
        with pytest.raises(ValueError):
            make_pattern("zigzag", net)

    @given(st.sampled_from(["uniform_random", "transpose", "bit_complement",
                            "tornado", "neighbor", "hotspot"]))
    @settings(max_examples=20, deadline=None)
    def test_patterns_never_self_target(self, name):
        net = NetworkConfig(width=4, height=4)
        pat = make_pattern(name, net)
        for seed in range(3):
            src, dst = _drawn(net, pat, rate=1.0, seed=seed, horizon=20)
            assert len(src) == 16 * 20
            assert np.all(dst != src)


class TestSyntheticTraffic:
    def test_rate_is_respected(self, net):
        t = SyntheticTraffic(net, injection_rate=0.1, rng=1)
        total = sum(len(list(t.generate(c))) for c in range(3000))
        expected = 0.1 * 16 * 3000  # 1-flit packets
        assert total == pytest.approx(expected, rel=0.1)

    def test_mix_rates_account_for_length(self, net):
        t = SyntheticTraffic(net, injection_rate=0.2, mix=COHERENCE_MIX, rng=1)
        flits = sum(
            p.size_flits for c in range(3000) for p in t.generate(c)
        )
        assert flits == pytest.approx(0.2 * 16 * 3000, rel=0.1)

    def test_vnet_assignment_follows_class(self, net):
        t = SyntheticTraffic(net, injection_rate=0.2, mix=COHERENCE_MIX, rng=1)
        pkts = [p for c in range(500) for p in t.generate(c)]
        for p in pkts:
            if p.size_flits == 1:
                assert p.vnet == 0
            else:
                assert p.vnet == 1

    def test_burstiness_preserves_average(self, net):
        smooth = SyntheticTraffic(net, injection_rate=0.1, rng=1)
        bursty = SyntheticTraffic(net, injection_rate=0.1, rng=1, burstiness=0.6)
        n_s = sum(len(list(smooth.generate(c))) for c in range(6000))
        n_b = sum(len(list(bursty.generate(c))) for c in range(6000))
        assert n_b == pytest.approx(n_s, rel=0.25)

    def test_deterministic_with_seed(self, net):
        a = SyntheticTraffic(net, injection_rate=0.1, rng=5)
        b = SyntheticTraffic(net, injection_rate=0.1, rng=5)
        pa = [(p.src, p.dest) for c in range(200) for p in a.generate(c)]
        pb = [(p.src, p.dest) for c in range(200) for p in b.generate(c)]
        assert pa == pb

    def test_rejects_bad_rates(self, net):
        with pytest.raises(ValueError):
            SyntheticTraffic(net, injection_rate=-0.1)
        with pytest.raises(ValueError):
            SyntheticTraffic(net, injection_rate=2.0)  # >1 pkt/node/cycle
        with pytest.raises(ValueError):
            SyntheticTraffic(net, injection_rate=0.1, mix=())

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_rate(self, net, rate):
        """A NaN rate used to be accepted and run: 0 packets created and
        a NaN average latency."""
        with pytest.raises(ValueError, match="finite"):
            SyntheticTraffic(net, injection_rate=rate, rng=1)

    @pytest.mark.parametrize(
        "nodes, match",
        [([], "at least one node"), ([3, 3], "repeat"), ([99], "node 99 outside")],
        ids=["empty", "duplicate", "outside-the-mesh"],
    )
    def test_rejects_bad_nodes(self, net, nodes, match):
        """Empty drew nothing, a repeat silently doubled a node's rate, and
        a node outside the mesh failed only when a packet reached a NIC."""
        with pytest.raises(ValueError, match=match):
            SyntheticTraffic(net, injection_rate=0.1, rng=1, nodes=nodes)

    def test_rejects_a_stream_it_cannot_parse(self, net):
        with pytest.raises(ValueError, match="PCG64"):
            SyntheticTraffic(
                net, 0.1, rng=np.random.Generator(np.random.MT19937(1))
            )

    def test_rejects_a_pattern_it_cannot_parse(self, net):
        class Custom(TrafficPattern):
            name = "custom"

        with pytest.raises(ValueError, match="no parse"):
            SyntheticTraffic(net, 0.1, pattern=Custom(net), rng=1)

    def test_packet_class_validation(self):
        with pytest.raises(ValueError):
            PacketClass(size_flits=0)
        with pytest.raises(ValueError):
            PacketClass(size_flits=1, weight=0)

    def test_null_traffic(self):
        assert list(NullTraffic().generate(0)) == []


def _reference(net, rate, horizon, mix=SINGLE_FLIT_MIX, seed=0, burstiness=0.0):
    """The naive per-cycle source's packets, grouped by cycle."""
    out = {}
    for cycle, *row in reference_packets(
        net, rate, UniformRandom(net), mix, seed, burstiness, None, horizon
    ):
        out.setdefault(cycle, []).append(tuple(row))
    return out


def _row(p):
    assert isinstance(p.src, int) and isinstance(p.dest, int)
    return (p.src, p.dest, p.vnet, p.size_flits)


class TestChunkedDraws:
    """Reading the stream in blocks of raw words, and jumping quiet
    stretches, must be invisible in the packet stream: same packets, same
    destinations, same classes as the naive per-cycle source
    (``conftest.reference_packets``) from the same seed."""

    def test_chunked_identical_to_per_cycle(self, net):
        for rate in (0.0, 0.01, 0.05, 0.2):
            for burst in (0.0, 0.6):
                for mix in (SINGLE_FLIT_MIX, COHERENCE_MIX):
                    fast = SyntheticTraffic(
                        net, rate, mix=mix, rng=11, burstiness=burst
                    )
                    got = {}
                    for c in range(1500):
                        pkts = fast.generate(c)
                        assert all(p.creation_cycle == c for p in pkts)
                        if pkts:
                            got[c] = [_row(p) for p in pkts]
                    want = _reference(net, rate, 1500, mix, 11, burst)
                    assert got == want, (rate, burst, len(mix))

    def test_silent_and_sparse_streams_equal_the_reference(self, net):
        silent = SyntheticTraffic(net, injection_rate=0.0, rng=1)
        for c in range(10_000):
            assert not silent.generate(c)
        assert len(compile_table(silent, 20_000, net)) == 0

        busy = SyntheticTraffic(net, injection_rate=0.02, rng=1)
        table = compile_table(busy, 4000, net)
        assert len(table) > 100
        want = _reference(net, 0.02, 4000, seed=1)
        got = {}
        for c, *row in zip(*(col.tolist() for col in (
            table.cycle, table.src, table.dest, table.vnet, table.size
        ))):
            got.setdefault(c, []).append(tuple(row))
        assert got == want

    def test_saturated_stream_equals_the_reference(self, net):
        t = SyntheticTraffic(net, injection_rate=1.0, rng=2)
        got = {}
        for c in range(50):
            pkts = t.generate(c)
            assert len(pkts) == net.num_nodes
            got[c] = [_row(p) for p in pkts]
        assert got == _reference(net, 1.0, 50, seed=2)


class TestNextInjectionLookahead:
    """``next_injection`` (the event-driven engine's skip-ahead hook) must
    read the same table per-cycle ``generate`` calls read: same hit
    cycles, same packets, regardless of how lookahead calls and
    per-cycle steps interleave."""

    HORIZON = 1500

    @staticmethod
    def _skipping(traffic, horizon):
        """Engine drive: jump straight between next_injection hits."""
        out = {}
        c = 0
        while c < horizon:
            nxt = traffic.next_injection(c, horizon)
            if nxt is None:
                break
            assert c <= nxt < horizon
            pkts = [_row(p) for p in traffic.generate(nxt)]
            assert pkts, f"lookahead promised a hit at {nxt}"
            out[nxt] = pkts
            c = nxt + 1
        return out

    def test_flat_lookahead_matches_per_cycle(self, net):
        for rate in (0.0, 0.002, 0.02, 0.2):
            for mix in (SINGLE_FLIT_MIX, COHERENCE_MIX):
                fast = SyntheticTraffic(net, rate, mix=mix, rng=23)
                want = _reference(net, rate, self.HORIZON, mix, 23)
                got = self._skipping(fast, self.HORIZON)
                assert got == want, (rate, len(mix))

    def test_bursty_lookahead_matches_per_cycle(self, net):
        for burst in (0.3, 0.8):
            fast = SyntheticTraffic(net, 0.01, rng=29, burstiness=burst)
            want = _reference(net, 0.01, self.HORIZON, seed=29, burstiness=burst)
            got = self._skipping(fast, self.HORIZON)
            assert got == want, burst

    def test_interleaved_lookahead_and_generate(self, net):
        """The engine may clamp a jump short of the promised hit (fault
        wakes) and then step per-cycle; cycles the lookahead found quiet
        must stay quiet, and the promised packets must land intact."""
        fast = SyntheticTraffic(net, 0.01, rng=31)
        want = _reference(net, 0.01, self.HORIZON, seed=31)
        got = {}
        c = 0
        while c < self.HORIZON:
            nxt = fast.next_injection(c, self.HORIZON)
            if nxt is None:
                # proven quiet: stepping through must yield nothing
                for w in range(c, self.HORIZON):
                    assert not list(fast.generate(w))
                break
            # step per cycle part of the way (as if a wake interrupted),
            # then let a second lookahead re-confirm the hit
            mid = c + (nxt - c) // 2
            for w in range(c, mid):
                assert not list(fast.generate(w))
            assert fast.next_injection(mid, self.HORIZON) == nxt
            for w in range(mid, nxt):
                assert not list(fast.generate(w))
            pkts = [_row(p) for p in fast.generate(nxt)]
            assert pkts
            got[nxt] = pkts
            c = nxt + 1
        assert got == want

    def test_trace_traffic_lookahead(self):
        pkts = [
            Packet(src=0, dest=5, size_flits=1, vnet=0, creation_cycle=c)
            for c in (3, 3, 40)
        ]
        t = TraceTraffic(pkts)
        assert t.next_injection(0, 100) == 3
        assert len(list(t.generate(3))) == 2
        assert t.next_injection(4, 100) == 40
        # beyond the horizon: invisible to this window
        assert t.next_injection(4, 30) is None
        # catch-up: an overdue bucket is due immediately
        assert t.next_injection(50, 100) == 50
        assert len(list(t.generate(50))) == 1
        assert t.next_injection(51, 100) is None

    def test_null_traffic_lookahead(self):
        assert NullTraffic().next_injection(0, 10_000) is None


class TestBucketByCycle:
    def test_buckets_sorted_and_stable(self):
        pkts = [
            Packet(src=s, dest=(s + 1) % 16, size_flits=1, creation_cycle=c)
            for s, c in [(0, 7), (1, 2), (2, 7), (3, 2), (4, 0)]
        ]
        cycles, buckets = bucket_by_cycle(pkts)
        assert cycles == [0, 2, 7]
        assert [p.src for p in buckets[2]] == [1, 3]  # trace order kept
        assert [p.src for p in buckets[7]] == [0, 2]

    def test_empty_trace(self):
        cycles, buckets = bucket_by_cycle([])
        assert cycles == [] and buckets == {}
        t = TraceTraffic([])
        assert list(t.generate(0)) == []
        assert t.remaining == 0


class TestTraceTraffic:
    def test_replay_in_order(self):
        pkts = [
            Packet(src=0, dest=1, size_flits=1, creation_cycle=c)
            for c in (5, 2, 9)
        ]
        t = TraceTraffic(pkts)
        assert [p.creation_cycle for p in t.generate(2)] == [2]
        assert [p.creation_cycle for p in t.generate(7)] == [5]
        assert t.remaining == 1

    def test_trace_file_roundtrip(self, tmp_path):
        pkts = [
            Packet(src=0, dest=5, size_flits=5, vnet=1, creation_cycle=10),
            Packet(src=3, dest=1, size_flits=1, creation_cycle=2),
        ]
        path = tmp_path / "t.jsonl"
        assert save_trace(pkts, path) == 2
        loaded = load_trace(path)
        assert [(p.src, p.dest, p.size_flits, p.vnet, p.creation_cycle)
                for p in loaded] == [
            (3, 1, 1, 0, 2),
            (0, 5, 5, 1, 10),
        ]

    def test_bad_record_rejected(self):
        with pytest.raises(ValueError):
            record_to_packet({"cycle": 0, "src": 1})

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"cycle": 0, "src": 0, "dest": 1, "size": 1, "vnet": 0}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace(path)

    def test_record_source(self, net):
        src = SyntheticTraffic(net, injection_rate=0.2, rng=1)
        pkts = record_source(src, 100)
        assert pkts
        assert all(0 <= p.creation_cycle < 100 for p in pkts)


class TestAppSurrogates:
    def test_suite_membership(self):
        assert len(SPLASH2_PROFILES) == 8
        assert len(PARSEC_PROFILES) == 9
        assert all(p.suite == "splash2" for p in SPLASH2_PROFILES)
        assert all(p.suite == "parsec" for p in PARSEC_PROFILES)

    def test_lookup(self):
        assert app_profile("ocean").suite == "splash2"
        assert app_profile("canneal").suite == "parsec"
        with pytest.raises(ValueError):
            app_profile("doom")

    def test_suites(self):
        assert suite_profiles("splash2") == SPLASH2_PROFILES
        assert suite_profiles("parsec") == PARSEC_PROFILES
        with pytest.raises(ValueError):
            suite_profiles("spec")

    def test_parsec_loads_heavier_on_average(self):
        """The paper's 13 % > 10 % ordering rests on this."""
        s = np.mean([p.injection_rate for p in SPLASH2_PROFILES])
        p = np.mean([p.injection_rate for p in PARSEC_PROFILES])
        assert p > s

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            AppProfile("x", "s", injection_rate=0.0, burstiness=0.1,
                       hotspot_fraction=0.1)
        with pytest.raises(ValueError):
            AppProfile("x", "s", injection_rate=0.1, burstiness=1.0,
                       hotspot_fraction=0.1)

    def test_directory_homes_on_edges(self):
        net = NetworkConfig(width=8, height=8)
        homes = directory_home_nodes(net)
        assert homes
        for h in homes:
            _, y = net.coords(h)
            assert y in (0, net.height - 1)

    def test_make_app_traffic_two_vnets(self):
        net = NetworkConfig(
            width=4, height=4, router=RouterConfig(num_vcs=4, num_vnets=2)
        )
        t = make_app_traffic(net, "ocean", rng=1)
        pkts = [p for c in range(300) for p in t.generate(c)]
        assert pkts
        assert {p.vnet for p in pkts} <= {0, 1}

    def test_make_app_traffic_single_vnet(self):
        net = NetworkConfig(width=4, height=4)
        t = make_app_traffic(net, "fft", rng=1)
        pkts = [p for c in range(300) for p in t.generate(c)]
        assert all(p.vnet == 0 for p in pkts)

    def test_rate_scale(self):
        net = NetworkConfig(width=4, height=4)
        lo = make_app_traffic(net, "lu", rng=1, rate_scale=0.5)
        hi = make_app_traffic(net, "lu", rng=1, rate_scale=2.0)
        n_lo = sum(len(list(lo.generate(c))) for c in range(2000))
        n_hi = sum(len(list(hi.generate(c))) for c in range(2000))
        assert n_hi > 2.5 * n_lo
        with pytest.raises(ValueError):
            make_app_traffic(net, "lu", rate_scale=0)
