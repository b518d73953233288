"""Online fault-injection campaigns (:mod:`repro.experiments.fault_campaign`).

Covers the tentpole contract: timelines as lanes of the batched engine
under the resilient runtime (checkpointed and resumable at chunk
granularity — truncated-checkpoint and SIGKILL flavours), recovery
metrics measured per router kind, every kind's points as lanes, and the
degradation-over-lifetime report joining the FIT model with measured
recovery.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import stepped_point, sweep_files, unstepped
from repro.config import NetworkConfig, RouterConfig, SimulationConfig, replace
from repro.core.protected_router import protected_router_factory
from repro.experiments import fault_campaign, parallel
from repro.experiments.fault_campaign import CampaignConfig, campaign_schedule
from repro.experiments.latency import LatencyConfig
from repro.faults import TimelineSpec
from repro.network.batched import router_factory
from repro.network.simulator import NoCSimulator
from repro.router.flit import reset_packet_ids
from repro.traffic.generator import SyntheticTraffic

QUICK_LATENCY = LatencyConfig(
    width=4, height=4,
    warmup_cycles=200, measure_cycles=800, drain_cycles=2000, seed=5,
)

QUICK_CAMPAIGN = CampaignConfig(
    timelines=2,
    router_kinds=("baseline", "protected"),
    timeline=TimelineSpec(events=3, mean_interval=150.0),
    latency=QUICK_LATENCY,
    app="lu",
)


def _run(config=QUICK_CAMPAIGN, **kw):
    return fault_campaign.run(config, jobs=kw.pop("jobs", 1), **kw)


class TestCampaignRun:
    @pytest.fixture(scope="class")
    def result(self):
        return _run()

    def test_recovery_metrics_measured(self, result):
        rows = {r["kind"]: r for r in result.extras["rows"]}
        assert set(rows) == {"baseline", "protected"}
        for row in rows.values():
            assert row["runs"] == 2
            assert row["events"] > 0
            assert 0.0 <= row["recovered_frac"] <= 1.0
            assert row["exposed_flits"] >= 0

    def test_roco_adds_no_fallbacks(self, result):
        """Every kind runs as lanes, references included: roco's points,
        declined until roco had an array model, fall back no more."""
        with unstepped():
            with_roco = _run(
                replace(QUICK_CAMPAIGN, router_kinds=("baseline", "protected", "roco"))
            )
        assert with_roco.extras["rows"][:2] == result.extras["rows"]
        assert with_roco.extras["rows"][2]["kind"] == "roco"

    def test_degradation_report_joins_fit_model(self, result):
        deg = result.extras["degradation"]
        for row in deg["simulated"]:
            assert row["fit_per_router"] > 0
            assert row["network_mtbf_hours"] > 0
            assert row["events_per_year"] == pytest.approx(
                8760.0 / row["network_mtbf_hours"]
            )
        kinds = {r["kind"] for r in deg["analytic"]}
        assert kinds == {"bulletproof", "vicis"}
        for row in deg["analytic"]:
            assert row["analytic"] is True
            assert row["mean_faults_to_failure"] > 1.0
            assert row["expected_years_to_failure"] > 0

    def test_structural_checks_pass(self, result):
        by_label = {r.label: r.measured for r in result.rows}
        assert by_label["fault-free references carry no recovery log"] is True
        assert by_label["every timeline produced a recovery log"] is True
        assert by_label["campaign delivered fault events"] is True

    def test_serial_equals_parallel(self, result):
        parallel = _run(jobs=2)
        assert parallel.extras["rows"] == result.extras["rows"]


MIXED_CAMPAIGN = CampaignConfig(
    timelines=3,
    router_kinds=("baseline", "protected", "roco"),
    timeline=TimelineSpec(events=5, mean_interval=100.0, transient_fraction=0.5),
    # a drain too short for a wedged baseline mesh: flits are left stranded
    latency=LatencyConfig(
        width=4, height=4,
        warmup_cycles=150, measure_cycles=450, drain_cycles=300, seed=7,
    ),
    app="ocean",
)


def _point_key(res):
    """Every field the ledger reads back, plus the whole recovery dict
    (records, ``healed_at``, ``stranded_flits``); NaN-safe."""
    return json.dumps(
        (
            res.cycles, res.drained, res.blocked, res.faults_injected,
            res.stats.summary(), dataclasses.asdict(res.router_stats),
            res.recovery,
        ),
        sort_keys=True, default=str,
    )


class TestCampaignLanes:
    """A campaign's points as lanes: 3 kinds x (reference + 3 timelines),
    half of the events transient, all twelve in one engine."""

    @pytest.fixture(scope="class")
    def campaign(self):
        """``(points, lane results)`` of the one lane sweep behind a run."""
        calls = []
        run_lane_sweep = parallel.run_lane_sweep

        def hook(points, **kwargs):
            points = list(points)
            results, report = run_lane_sweep(points, **kwargs)
            calls.append((points, results, report))
            return results, report

        with pytest.MonkeyPatch.context() as patch, unstepped():
            patch.setattr(parallel, "run_lane_sweep", hook)
            _run(MIXED_CAMPAIGN)
        (points, results, _), = calls
        return points, results

    def test_every_lane_equals_both_object_steppers(self, campaign):
        records = []
        for point, lane in zip(*campaign):
            assert _point_key(lane) == _point_key(stepped_point(point)), point.label
            reference = NoCSimulator(
                point.config, point.sim_config,
                point.make_traffic(*point.traffic_args),
                router_factory=router_factory(point.router_kind, point.config),
                fault_schedule=(
                    point.make_schedule(*point.schedule_args)
                    if point.make_schedule else None
                ),
                use_reference_stepper=True,
            ).run()
            assert _point_key(lane) == _point_key(reference), point.label
            if point.make_schedule is None:
                assert lane.recovery is None
            else:
                records += lane.recovery["records"]
        # the scenario reaches the heal seam and both ends of a watch
        assert any(r["healed_at"] is not None for r in records)
        assert any(r["recovered_at"] is not None for r in records)
        assert any(r["stranded_flits"] for r in records)

    def test_width_and_kind_grouping_invariance(self, campaign):
        """One mixed engine, one engine per kind, and width 1 — where a
        monitored lane is installed into the slot a monitored lane left."""
        points, mixed = campaign
        expected = [_point_key(lane) for lane in mixed]

        def chunk(idxs, width):
            out = parallel._lane_batched_chunk(tuple(points[i] for i in idxs), width)
            return dict(zip(idxs, map(_point_key, out)))

        per_kind = {}
        for kind in MIXED_CAMPAIGN.router_kinds:
            per_kind.update(chunk(
                [i for i, p in enumerate(points) if p.router_kind == kind],
                parallel.DEFAULT_LANE_WIDTH,
            ))
        serial = chunk(range(len(points)), 1)
        for i, key in enumerate(expected):
            assert per_kind[i] == key, points[i].label
            assert serial[i] == key, points[i].label


class TestCampaignConfigValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="timelines"):
            _run(CampaignConfig(timelines=0, latency=QUICK_LATENCY))
        with pytest.raises(ValueError, match="router_kinds"):
            _run(
                CampaignConfig(router_kinds=(), latency=QUICK_LATENCY)
            )


class TestRecoveryDeterminism:
    """A timeline run is a pure function of its spec + traffic seed."""

    def _one(self):
        net = NetworkConfig(width=4, height=4)
        spec = TimelineSpec(events=3, mean_interval=120.0, seed=17)
        schedule = campaign_schedule(net, spec)
        reset_packet_ids()
        sim = NoCSimulator(
            net,
            SimulationConfig(
                warmup_cycles=150, measure_cycles=500, drain_cycles=1500,
                seed=11, watchdog_cycles=5000,
            ),
            SyntheticTraffic(net, injection_rate=0.05, rng=11),
            router_factory=protected_router_factory(net),
            fault_schedule=schedule,
        )
        return sim.run()

    def test_recovery_log_bit_identical(self):
        a, b = self._one(), self._one()
        assert a.recovery is not None
        assert a.recovery == b.recovery
        assert a.recovery["events"] == 3
        assert a.stats.summary() == b.stats.summary()

    def test_fault_free_summary_untouched(self):
        net = NetworkConfig(width=3, height=3)
        reset_packet_ids()
        sim = NoCSimulator(
            net,
            SimulationConfig(
                warmup_cycles=50, measure_cycles=200, drain_cycles=800,
                seed=2, watchdog_cycles=3000,
            ),
            SyntheticTraffic(net, injection_rate=0.05, rng=2),
        )
        res = sim.run()
        assert res.recovery is None
        assert "recovery" not in res.stats.summary()


class TestCampaignResumeGolden:
    """Resume splices checkpointed lane points bit-identically."""

    def test_truncated_checkpoint_resume_matches(self, tmp_path):
        # a record is a point: the 2 kinds x (1 reference + 2 timelines)
        # are two chunks of three at two jobs, six records
        full = _run(jobs=2, out_dir=tmp_path / "run")
        (jsonl,) = sweep_files(tmp_path / "run")
        lines = jsonl.read_text().splitlines()
        assert len(lines) == 6
        jsonl.write_text("".join(line + "\n" for line in lines[:4]))

        resumed = _run(jobs=2, resume=tmp_path / "run")
        assert resumed.rows == full.rows
        assert resumed.extras["rows"] == full.extras["rows"]
        assert resumed.extras["sweep"].resumed == 4


#: subprocess driver: SIGKILL the whole process group mid-campaign, then
#: resume from the same run directory.  Two jobs, so the campaign is two
#: lane chunks of three points, six checkpoint records: the protected
#: reference and timelines, then roco's.  In ``kill`` mode the roco chunk
#: holds once it has handed over its first point, so the kill always
#: lands inside it, with four records.  The chunk function is wrapped in
#: every mode, so the killed and the resumed run pickle the same tasks
#: and share one sweep key; it logs the lanes of every chunk it builds
_DRIVER = """\
import json, sys, threading

from repro.experiments import parallel
from repro.experiments.fault_campaign import CampaignConfig, run
from repro.experiments.latency import LatencyConfig
from repro.faults import TimelineSpec

mode, run_dir, out_json = sys.argv[1:4]
lane_chunk = parallel._lane_batched_chunk


def held_chunk(points, width, emit=None):
    with open(out_json + ".lanes", "a") as fp:
        fp.write(f"{len(points)}\\n")
    held = mode == "kill" and any(p.router_kind == "roco" for p in points)

    def hand_over(k, result):
        emit(k, result)
        if held:
            threading.Event().wait()

    return lane_chunk(points, width, hand_over)


parallel._lane_batched_chunk = held_chunk
config = CampaignConfig(
    timelines=2,
    router_kinds=("protected", "roco"),
    timeline=TimelineSpec(events=3, mean_interval=150.0),
    latency=LatencyConfig(
        width=4, height=4, warmup_cycles=200,
        measure_cycles=800, drain_cycles=2000, seed=5,
    ),
    app="lu",
)
kw = {"resume": run_dir} if mode == "resume" else {"out_dir": run_dir}
res = run(config, jobs=2, **kw)
with open(out_json, "w") as fp:
    json.dump(
        {
            "rows": res.extras["rows"],
            "resumed": res.extras["sweep"].resumed,
        },
        fp,
    )
"""


def _spawn(script, mode, run_dir, out_json):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, str(script), mode, str(run_dir), str(out_json)],
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestKillMidCampaign:
    def test_sigkill_resume_bit_identical(self, tmp_path):
        """The kill lands inside the roco chunk, after its first point:
        the resume runs its other two points alone."""
        script = tmp_path / "driver.py"
        script.write_text(_DRIVER)

        ref_json = tmp_path / "ref.json"
        proc = _spawn(script, "run", tmp_path / "ref-run", ref_json)
        assert proc.wait(timeout=300) == 0
        reference = json.loads(ref_json.read_text())

        run_dir = tmp_path / "killed-run"
        kill_json = tmp_path / "kill.json"
        proc = _spawn(script, "kill", run_dir, kill_json)
        deadline = time.time() + 120
        while time.time() < deadline:
            files = sweep_files(run_dir)
            if files and files[0].exists() and files[0].read_text().count("\n") == 4:
                (jsonl,) = files
                break
            if proc.poll() is not None:
                pytest.fail("driver exited before it could be killed")
            time.sleep(0.02)
        else:
            pytest.fail("the held chunk's first point was not recorded within 120s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert not kill_json.exists()
        # the protected chunk's three points and the held chunk's first
        labels = [json.loads(line)["label"] for line in jsonl.read_text().splitlines()]
        assert sum("roco" in label for label in labels) == 1, labels

        resume_json = tmp_path / "resume.json"
        proc = _spawn(script, "resume", run_dir, resume_json)
        assert proc.wait(timeout=300) == 0
        resumed = json.loads(resume_json.read_text())
        assert resumed["rows"] == reference["rows"]
        assert resumed["resumed"] == 4
        # only the roco chunk's two unrecorded points ran, as two lanes
        lanes = Path(str(resume_json) + ".lanes").read_text().split()
        assert lanes == ["2"]
