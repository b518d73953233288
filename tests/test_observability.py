"""Tests for :mod:`repro.observability`: golden event schema, bounded
ring tracing, Chrome trace export, the metrics registry and its
deterministic cross-shard merge (``--jobs 1`` == ``--jobs 4``), the
profiler, the zero-cost-when-disabled guarantee, and the CLI flags."""

import json

import pytest
from conftest import make_network_config, make_sim, unstepped

import repro.observability as observability
from repro.config import SimulationConfig, replace
from repro.core.protected_router import protected_router_factory
from repro.experiments.latency import QUICK_CONFIG
from repro.faults.injector import RandomFaultSchedule
from repro.network.simulator import NoCSimulator
from repro.observability import (
    EVENT_SCHEMA,
    EventTracer,
    Histogram,
    MetricsRegistry,
    Observability,
    ObservabilityConfig,
    merge_exports,
    merge_snapshots,
)
from repro.observability.events import validate_event
from repro.observability.profiler import STAGE_NAMES, StageProfiler, merge_profiles
from repro.observability.report import render_json, render_text
from repro.observability.trace import chrome_trace
from repro.traffic.apps import app_profile, make_app_traffic


def _small_cfg():
    """A faulty-but-tolerable 4x4 configuration sized for unit tests."""
    return replace(
        QUICK_CONFIG,
        warmup_cycles=200,
        measure_cycles=600,
        drain_cycles=2000,
        num_faults=8,
    )


def _traced_run(**obs_kwargs):
    """One small faulty protected-router run with explicit observability."""
    obs = Observability(ObservabilityConfig(**obs_kwargs))
    cfg = _small_cfg()
    net = cfg.network()
    traffic = make_app_traffic(net, app_profile("ocean"), rng=cfg.seed)
    schedule = RandomFaultSchedule(
        net.router,
        net.num_nodes,
        mean_interval=10.0,
        num_faults=cfg.num_faults,
        rng=cfg.seed + 7919,
        first_fault_at=0,
        avoid_failure=True,
    )
    sim = NoCSimulator(
        net,
        cfg.simulation(),
        traffic,
        router_factory=protected_router_factory(net),
        fault_schedule=schedule,
        observability=obs,
    )
    return sim.run(), obs


# ----------------------------------------------------------------------
# golden event schema
# ----------------------------------------------------------------------
class TestEventSchema:
    #: the pinned schema — changing an event's payload is a contract
    #: change and must update this table *and* docs/observability.md
    GOLDEN = {
        "inject": ("dest", "flit", "packet", "src", "vc", "vnet"),
        "rc": ("in_port", "out_port", "packet"),
        "va_grant": (
            "borrowed", "in_port", "in_slot", "out_port", "out_vc", "packet",
        ),
        "va_retry": ("out_port", "out_vc", "packet"),
        "sa_grant": ("in_port", "out_port", "packet", "secondary"),
        "sa_bypass": ("packet", "port", "slot"),
        "xb": ("flit", "in_port", "out_port", "out_vc", "packet", "secondary"),
        "link": ("flit", "out_port", "out_vc", "packet"),
        "eject": ("dest", "flit", "packet", "src", "vc"),
        "packet": (
            "creation", "dest", "hops", "inject", "packet", "size", "src", "vnet",
        ),
    }

    def test_schema_is_pinned(self):
        assert EVENT_SCHEMA == self.GOLDEN

    def test_faulty_run_emits_only_conforming_events(self):
        result, obs = _traced_run(trace=True, trace_capacity=500_000)
        events = obs.tracer.events()
        assert events, "traced run emitted nothing"
        assert obs.tracer.dropped == 0  # capacity chosen to keep everything
        for ev in events:
            validate_event(ev)
        kinds = {kind for _, kind, _, _ in events}
        # a full lifecycle must appear in any healthy run
        assert {"inject", "rc", "va_grant", "sa_grant", "xb", "link",
                "eject", "packet"} <= kinds

    def test_validate_event_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            validate_event((0, "nonsense", 0, {}))
        with pytest.raises(ValueError):
            validate_event((0, "rc", 0, {"wrong": 1}))


class TestTracerRing:
    def test_ring_bound_and_dropped_accounting(self):
        tr = EventTracer(capacity=8)
        for c in range(20):
            tr.emit(c, "rc", 0, in_port=1, out_port=2, packet=c)
        assert len(tr) == 8
        assert tr.emitted == 20
        assert tr.dropped == 12
        # the ring keeps the *latest* events
        assert [e[0] for e in tr.events()] == list(range(12, 20))
        snap = tr.snapshot()
        assert snap["capacity"] == 8 and snap["dropped"] == 12
        # events built in bulk: those not built count as dropped
        tr.extend([(30, "rc", 0, {})] * 3, emitted=5)
        assert (tr.emitted, tr.dropped, len(tr)) == (25, 17, 8)
        assert [e[0] for e in tr.events()] == [15, 16, 17, 18, 19, 30, 30, 30]

    def test_an_empty_trace_is_exported(self):
        """A run that delivers nothing exports an empty trace, as a lane
        that retires with no packet does, not ``None``."""
        obs = Observability(ObservabilityConfig(trace=True, trace_capacity=8))
        assert obs.export()["trace"] == EventTracer(8).snapshot()

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)


class TestChromeExport:
    def test_trace_event_json_structure(self):
        result, obs = _traced_run(trace=True)
        doc = chrome_trace([("ocean@8faults", obs.tracer.events())])
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert metadata and spans and len(metadata) + len(spans) == len(events)
        names = {e["args"]["name"] for e in metadata if e["name"] == "process_name"}
        assert any(n.startswith("ocean@8faults / router ") for n in names)
        for e in spans:
            # a packet spans injection to ejection, a stage event one cycle
            dur = 1 if e["name"] != "packet" else e["dur"]
            assert e["ts"] >= 0 and e["dur"] == dur >= 1
            assert set(e) == {"name", "cat", "ph", "ts", "dur", "pid",
                              "tid", "args"}
        assert {"xb_primary", "packet"} <= {e["name"] for e in spans}

    def test_a_packet_is_one_slice_on_its_source_router(self):
        payload = {"packet": 9, "src": 2, "dest": 7, "vnet": 0, "size": 5,
                   "creation": 10, "inject": 12, "hops": 4}
        doc = chrome_trace([("a", [(40, "packet", 7, payload)])])
        (span,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert (span["name"], span["ts"], span["dur"], span["pid"]) == (
            "packet", 12, 28, 2,
        )
        json.dumps(doc)  # must be serialisable as-is

    def test_points_get_disjoint_pid_ranges(self):
        ev = [(0, "rc", 3, {"in_port": 0, "out_port": 1, "packet": 9})]
        doc = chrome_trace([("a", ev), ("b", ev)])
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(pids) == 2


# ----------------------------------------------------------------------
# zero-cost-when-disabled
# ----------------------------------------------------------------------
class TestDisabledPath:
    def test_default_sim_has_no_observability(self):
        sim = make_sim(make_network_config(), warmup=50, measure=150,
                       drain=800)
        assert sim.obs is None
        assert all(r.tracer is None for r in sim.routers)
        assert all(nic.tracer is None for nic in sim.nics)
        assert sim.scheduler.tracer is None
        result = sim.run()
        assert result.observability is None

    def test_configure_enables_and_reset_disables(self):
        observability.configure(metrics=True)
        assert observability.maybe_create() is not None
        sim = make_sim(make_network_config())
        assert sim.obs is not None and sim.obs.metrics is not None
        assert sim.obs.tracer is None  # only metrics were requested
        observability.reset()
        assert observability.maybe_create() is None

    def test_env_mirror_round_trip(self):
        import os

        observability.configure(trace=True, profile=True, trace_capacity=123)
        assert os.environ[observability.ENV_VAR] == "trace,profile"
        assert os.environ[observability.ENV_CAPACITY_VAR] == "123"
        observability.reset()
        assert observability.ENV_VAR not in os.environ


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_and_labels(self):
        m = MetricsRegistry()
        m.inc("hits", router=3)
        m.inc("hits", 4, router=3)
        m.inc("hits", router=5)
        snap = m.snapshot()
        assert snap["counters"] == {"hits{router=3}": 5, "hits{router=5}": 1}

    def test_gauge_merge_keeps_max(self):
        a = MetricsRegistry()
        a.set_gauge("peak", 7.0)
        b = MetricsRegistry()
        b.set_gauge("peak", 11.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["gauges"]["peak"] == 11.0

    def test_histogram_merge_rejects_mismatched_edges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, edges in ((a, (1, 2, 4)), (b, (1, 2, 8))):
            hist = Histogram(edges)
            hist.observe(3)
            registry.adopt_histogram("lat", hist)
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_merge_is_order_independent(self):
        snaps = []
        for k in range(4):
            m = MetricsRegistry()
            m.inc("n", k + 1, shard=0)
            hist = Histogram((0, 1, 2, 4))
            hist.observe(k)
            m.adopt_histogram("h", hist)
            snaps.append(m.snapshot())
        fwd = merge_snapshots(snaps)
        rev = merge_snapshots(list(reversed(snaps)))
        assert fwd["counters"] == rev["counters"]
        assert fwd["histograms"]["h"]["counts"] == rev["histograms"]["h"]["counts"]

    def test_merge_skips_none(self):
        m = MetricsRegistry()
        m.inc("x")
        merged = merge_snapshots([None, m.snapshot(), None])
        assert merged["counters"] == {"x": 1}


class TestHarvestedMetrics:
    def test_run_metrics_cover_stages_and_fault_paths(self):
        result, obs = _traced_run(metrics=True)
        snap = result.observability["metrics"]
        counters = snap["counters"]
        base_names = {k.split("{")[0] for k in counters}
        assert {"router.flits_traversed", "router.va_grants",
                "router.sa_grants", "network.packets_ejected",
                "sim.cycles", "sim.faults_injected"} <= base_names
        # the 8 tolerated faults must have activated at least one
        # fault-handling path somewhere in the fabric
        fault_paths = {"router.sa_bypass_grants",
                       "router.secondary_path_grants",
                       "router.va_borrowed_grants",
                       "router.va_stage2_fault_retries",
                       "router.vc_transfers"}
        assert base_names & fault_paths
        # the adopted latency histogram is the only one: every other
        # metric is a count the engines keep
        assert list(snap["histograms"]) == ["network.latency_cycles"]


def _one_record_points(routing):
    """Baseline, protected and roco lanes on one 4x4 structural key, the
    last under a healing ``FaultTimeline`` with a recovery log."""
    from repro.experiments.fault_campaign import campaign_schedule
    from repro.experiments.load_latency import _make_schedule, _make_traffic
    from repro.experiments.parallel import LanePoint
    from repro.faults import TimelineSpec

    net = make_network_config(4, 4, num_vcs=4, num_vnets=2)
    sim_cfg = SimulationConfig(
        warmup_cycles=50, measure_cycles=300, drain_cycles=1500, seed=5,
        watchdog_cycles=4000,
    )
    healing = TimelineSpec(
        events=8, mean_interval=30.0, transient_fraction=0.5,
        transient_duration=40, seed=3, first_event_at=40,
    )
    runs = [
        ("baseline", None, ()),
        ("protected", _make_schedule, (net, 6, 7)),
        ("roco", _make_schedule, (net, 6, 8)),
        ("protected", campaign_schedule, (net, healing)),
    ]
    return [
        LanePoint(
            net, sim_cfg, _make_traffic, (net, 0.1, 7 + i), make_schedule,
            args, kind, routing, f"{kind}{i}",
        )
        for i, (kind, make_schedule, args) in enumerate(runs)
    ]


class TestOneHarvest:
    """Both engines export through ``harvest``, over counts both keep, so
    a point's metrics do not depend on which engine ran it."""

    @pytest.mark.parametrize("routing", ["xy", "west_first"])
    def test_lane_sweep_metrics_equal_the_object_engines(self, routing):
        from conftest import stepped_point
        from repro.experiments.parallel import run_lane_sweep

        points = _one_record_points(routing)
        observability.configure(metrics=True)
        with unstepped():
            lanes, report = run_lane_sweep(points)
        stepped = [stepped_point(p) for p in points]
        assert stepped[3].recovery["healed"] > 0
        assert lanes[3].recovery == stepped[3].recovery

        def dump(metrics):
            return json.dumps(metrics, sort_keys=True)

        assert dump(report.observability["metrics"]) == dump(merge_exports(
            [(p.label, res.observability) for p, res in zip(points, stepped)]
        )["metrics"])
        for lane, ref in zip(lanes, stepped):
            assert lane.observability == ref.observability
        counters = report.observability["metrics"]["counters"]
        assert any(k.startswith("router.va_borrowed_grants") for k in counters)


class TestOneTrace:
    """A delivered packet is one ``packet`` event on both engines, so a
    traced lane sweep stays on lanes and its trace is the packet stream
    the object engine emits, event for event and in the same order."""

    @staticmethod
    def _packets(trace):
        """The ``packet`` events in stream order, without the packet id
        (an allocation-order artefact of each engine)."""
        return [
            (cycle, node, {k: v for k, v in payload.items() if k != "packet"})
            for cycle, kind, node, payload in trace["events"]
            if kind == "packet"
        ]

    @pytest.mark.parametrize("routing", ["xy", "west_first"])
    def test_lane_sweep_packets_equal_the_object_engines(self, routing):
        from conftest import stepped_point
        from repro.experiments.parallel import run_lane_sweep

        points = _one_record_points(routing)
        observability.configure(trace=True, trace_capacity=1_000_000)
        with unstepped():
            lanes, report = run_lane_sweep(points)
        stepped = [stepped_point(p) for p in points]
        assert stepped[3].recovery["healed"] > 0
        assert [label for label, _ in report.observability["traces"]] == [
            p.label for p in points
        ]
        for (label, trace), lane, ref in zip(
            report.observability["traces"], lanes, stepped
        ):
            ref_trace = ref.observability["trace"]
            assert ref_trace["dropped"] == 0, label
            assert trace == lane.observability["trace"], label
            # a lane's trace is its packet record and nothing else
            assert {kind for _, kind, _, _ in trace["events"]} == {"packet"}, label
            assert trace["emitted"] == len(trace["events"]) == lane.stats.packets_ejected
            assert trace["dropped"] == 0, label
            for event in trace["events"]:
                validate_event(event)
            assert self._packets(trace) == self._packets(ref_trace), label
            # and it is the record the run's latency is reduced from
            sc = points[0].sim_config
            window = range(sc.warmup_cycles, sc.warmup_cycles + sc.measure_cycles)
            latency = [
                cycle - p["inject"] for cycle, _, p in self._packets(trace)
                if p["creation"] in window
            ]
            assert sum(latency) / len(latency) == lane.stats.avg_network_latency

    def test_a_packet_event_is_its_latency_sample(self):
        from dataclasses import astuple

        from repro.network.stats import LatencySample
        from repro.observability.events import packet_event

        sample = LatencySample(9, 2, 7, 1, 5, 10, 12, 40, 4)
        assert packet_event(*astuple(sample)) == (40, "packet", 7, {
            "packet": 9, "src": 2, "dest": 7, "vnet": 1, "size": 5,
            "creation": 10, "inject": 12, "hops": 4,
        })

    def test_a_handed_tracer_takes_the_events(self):
        """A one-lane engine handed an ``Observability`` puts its packet
        events into that run's tracer, as a handed registry takes the
        harvest."""
        from repro.experiments.parallel import _lane_batched_chunk
        from repro.network.batched import BatchedLaneEngine, LaneSpec

        point = _one_record_points("xy")[1]
        observability.configure(trace=True, trace_capacity=1_000_000)
        (sweep,) = _lane_batched_chunk((point,), 1)
        observability.reset()
        obs = Observability(ObservabilityConfig(trace=True, trace_capacity=1_000_000))
        lane = LaneSpec(
            point.make_traffic(*point.traffic_args),
            point.make_schedule(*point.schedule_args),
            point.router_kind,
        )
        (result,) = BatchedLaneEngine(
            point.config, point.sim_config, [lane], observability=obs
        ).run()
        assert obs.tracer.snapshot() == result.observability["trace"]
        assert obs.tracer.events() == sweep.observability["trace"]["events"]
        assert obs.tracer.emitted == result.stats.packets_ejected > 0

    def test_the_ring_keeps_the_last_packets(self):
        """Past ``trace_capacity`` a lane keeps the latest packets and counts
        the rest as dropped, as the object engine's ring does."""
        from repro.experiments.parallel import run_lane_sweep

        points = _one_record_points("xy")[:2]
        observability.configure(trace=True, trace_capacity=1_000_000)
        full, _ = run_lane_sweep(points)
        observability.configure(trace_capacity=50)
        bounded, _ = run_lane_sweep(points)
        for whole, ring in zip(full, bounded):
            whole, ring = whole.observability["trace"], ring.observability["trace"]
            assert ring["events"] == whole["events"][-50:]
            assert ring["emitted"] == whole["emitted"]
            assert ring["dropped"] == whole["emitted"] - 50 > 0

    def test_a_stepped_point_of_a_traced_sweep_is_its_packet_record(self):
        """A process-wide trace gives a point the object engine steps (a
        group of one, below the break-even load) the record a lane point
        has: its ``packet`` events and nothing else.  Only a tracer handed
        to a simulator takes the per-stage events."""
        from repro.experiments.parallel import run_lane_sweep

        points = _one_record_points("xy")[:2] + _one_record_points("west_first")[:1]
        observability.configure(trace=True, trace_capacity=1_000_000)
        run_stepped, stepped = NoCSimulator._run_stepped, []

        def spy(sim):
            stepped.append(sim)
            return run_stepped(sim)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(NoCSimulator, "_run_stepped", spy)
            results, report = run_lane_sweep(points)
        assert len(stepped) == 1  # the group of one
        traces = report.observability["traces"]
        assert [label for label, _ in traces] == [p.label for p in points]
        for (label, trace), result in zip(traces, results):
            assert {kind for _, kind, _, _ in trace["events"]} == {"packet"}, label
            assert trace["emitted"] == len(trace["events"]) == result.stats.packets_ejected > 0


# ----------------------------------------------------------------------
# determinism across shardings (the headline guarantee)
# ----------------------------------------------------------------------
class TestShardingDeterminism:
    def test_metrics_bit_identical_jobs_1_vs_4(self):
        from repro.experiments import fault_sweep

        observability.configure(metrics=True)
        cfg = fault_sweep.FaultSweepConfig(
            fault_counts=(0, 8), latency=_small_cfg()
        )
        # metrics keep the sweep on lanes, in the workers too
        with unstepped():
            serial = fault_sweep.run(cfg, jobs=1)
            parallel = fault_sweep.run(cfg, jobs=4)
        m1 = serial.extras["sweep"].observability["metrics"]
        m4 = parallel.extras["sweep"].observability["metrics"]
        assert m1["counters"], "sweep collected no metrics"
        assert json.dumps(m1, sort_keys=True) == json.dumps(m4, sort_keys=True)

    def test_merge_exports_keeps_point_labels(self):
        ex = {
            "metrics": MetricsRegistry().snapshot(),
            "trace": EventTracer(4).snapshot(),
            "profile": None,
        }
        merged = merge_exports([("p0", ex), ("p1", None)])
        assert [label for label, _ in merged["traces"]] == ["p0"]

    def test_merge_exports_all_empty_is_none(self):
        assert merge_exports([("a", None), ("b", None)]) is None


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_stage_shares_sum_to_one(self):
        result, obs = _traced_run(profile=True)
        snap = result.observability["profile"]
        assert snap["samples"] > 0
        assert set(snap["stages"]) == set(STAGE_NAMES)
        total_share = sum(r["share"] for r in snap["stages"].values())
        assert total_share == pytest.approx(1.0)

    def test_merge_profiles(self):
        p = StageProfiler(sample_every=1)
        p.record("rc", 0.5)
        p.cycle_done()
        merged = merge_profiles([p.snapshot(), None, p.snapshot()])
        assert merged["samples"] == 2
        assert merged["stages"]["rc"]["time_s"] == pytest.approx(1.0)
        assert merge_profiles([None, None]) is None

    def test_sampling_stride(self):
        p = StageProfiler(sample_every=4)
        assert [c for c in range(8) if p.should_sample(c)] == [0, 4]


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
class TestReport:
    def test_text_report_sections(self):
        result, obs = _traced_run(trace=True, metrics=True, profile=True)
        text = render_text(result.observability)
        assert "observability summary" in text
        assert "pipeline:" in text
        assert "profile (" in text
        assert "trace:" in text
        assert "latency histogram:" in text

    def test_json_report_is_deterministic(self):
        result, _ = _traced_run(metrics=True)
        a = render_json(result.observability)
        b = render_json(result.observability)
        assert a == b
        assert json.loads(a)["metrics"]["counters"]

    def test_disabled_report(self):
        assert "disabled" in render_text(None)


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestCLI:
    def test_metrics_and_trace_out(self, tmp_path, capsys):
        from repro.experiments.runner import main

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        rc = main([
            "fault_sweep", "--quick", "--jobs", "2",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ])
        assert rc == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        out = capsys.readouterr().out
        assert "observability summary" in out

    def test_a_trace_stays_on_the_lanes(self, tmp_path, capsys):
        """No observability flag moves a point off the lanes or prints a
        sweep line without ``--jobs``: a trace holds one ``packet`` slice
        per delivered packet of each of the three points."""
        from repro.experiments.runner import main

        assert main([
            "fault_sweep", "--quick", "--profile",
            "--metrics-out", str(tmp_path / "metrics.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "profile (" in out and "fallback" not in out
        observability.reset()
        trace_path = tmp_path / "t.json"
        assert main(["fault_sweep", "--quick", "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "fallback" not in out and "0 dropped" in out
        spans = json.loads(trace_path.read_text())["traceEvents"]
        packets = [e for e in spans if e["ph"] == "X" and e["name"] == "packet"]
        assert {e["pid"] // 4096 for e in packets} == {0, 1, 2}
        assert all(e["name"] == "packet" for e in spans if e["ph"] == "X")

    def test_trace_capacity_validation(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["table1", "--trace-capacity", "0"])
