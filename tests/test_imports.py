"""A cold start imports what it runs.

Every package face is lazy (``repro._lazy``) and the experiment registry
imports an experiment when it is named, so a simulation loads no analysis
model, a sweep no experiment, and the results server no experiment until
a request names one.  Each check runs in a fresh interpreter: the test
process has long since imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: the sweep machinery every experiment runs on; any other
#: ``repro.experiments`` module is an experiment (or one's helper)
INFRASTRUCTURE = {
    "repro.experiments",
    "repro.experiments.parallel",
    "repro.experiments.report",
    "repro.experiments.resilient",
    "repro.experiments.runner",
}

_PRELUDE = """\
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))

"""


def fresh(code, *args):
    """Run ``code`` in a new interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(code), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def experiments(modules):
    return {m for m in modules if m.startswith("repro.experiments")} - INFRASTRUCTURE


def test_faces_import_no_submodule():
    modules = fresh("""
        import repro, repro.core, repro.router, repro.network, repro.faults
        import repro.traffic, repro.reliability, repro.synthesis
        import repro.comparison, repro.experiments, repro.service
        print(json.dumps(loaded()))
    """)
    assert set(modules) == {
        "repro", "repro._lazy", "repro.config", "repro.core", "repro.router",
        "repro.network", "repro.faults", "repro.traffic", "repro.reliability",
        "repro.synthesis", "repro.comparison", "repro.experiments",
        "repro.service",
    }


@pytest.mark.parametrize("rate", [0.05, 0.3], ids=["object", "lane"])
def test_a_run_loads_no_analysis_model_and_no_experiment(rate):
    """Either engine: the Section VI-VIII models and the competitors'
    analytic models stay out of a simulation."""
    modules = fresh("""
        import repro.network
        from repro.config import NetworkConfig, SimulationConfig
        from repro.traffic.generator import SyntheticTraffic

        net = NetworkConfig(width=4, height=4)
        sim = repro.network.NoCSimulator(
            net,
            SimulationConfig(warmup_cycles=50, measure_cycles=150, drain_cycles=300),
            SyntheticTraffic(net, injection_rate=float(sys.argv[1]), rng=1),
        )
        assert sim.run().stats.packets_ejected > 0
        print(json.dumps(loaded()))
    """, rate)
    unwanted = [
        m for m in modules
        if m.startswith(("repro.synthesis", "repro.reliability", "repro.experiments"))
        or m in {
            f"repro.comparison.{name}"
            for name in ("bulletproof", "ecc_sim", "roco", "spf_table", "vicis")
        }
    ]
    assert unwanted == []
    assert "repro.network.simulator" in modules


def test_a_lane_sweep_loads_only_the_sweep_machinery():
    modules = fresh("""
        from repro.config import NetworkConfig, SimulationConfig
        from repro.experiments.parallel import LanePoint, run_lane_sweep
        from repro.network.simulator import NoCSimulator
        from repro.traffic.generator import SINGLE_FLIT_MIX, SyntheticTraffic

        def stepped(sim):
            raise AssertionError("a point ran on the object engine's own loop")

        NoCSimulator._run_stepped = stepped
        net = NetworkConfig(width=4, height=4)
        sim = SimulationConfig(warmup_cycles=50, measure_cycles=150, drain_cycles=300)
        points = [
            LanePoint(
                net, sim, SyntheticTraffic, (net, rate, None, SINGLE_FLIT_MIX, 1),
                router_kind="protected",
            )
            for rate in (0.1, 0.2)
        ]
        results, report = run_lane_sweep(points, jobs=1)
        assert report.points == 2
        print(json.dumps(loaded()))
    """)
    assert experiments(modules) == set()
    assert {"repro.experiments.parallel", "repro.experiments.resilient"} <= set(modules)


def test_the_server_imports_an_experiment_when_a_request_names_it():
    out = fresh("""
        import repro.service.server
        from repro.experiments.runner import EXPERIMENTS
        from repro.service.fingerprint import CONFIG_TYPES, RequestError, build_config

        steps = {"import": loaded()}
        assert sorted(CONFIG_TYPES) == sorted(EXPERIMENTS) and "fig7" in CONFIG_TYPES
        try:
            build_config("fig9000", None)
        except RequestError as exc:
            assert "available: " in str(exc)
        steps["names"] = loaded()
        assert CONFIG_TYPES["table3"].__name__ == "Table3Config"
        steps["table3"] = loaded()
        print(json.dumps(steps))
    """)
    assert experiments(out["import"]) == set()
    assert experiments(out["names"]) == set()
    assert experiments(out["table3"]) == {"repro.experiments.table3"}


@pytest.mark.parametrize("name", ["fig7", "fault_campaign"])
def test_a_forked_worker_imports_nothing_new(name, tmp_path):
    """Each ``run()`` of the fig suites and of a campaign forks a fresh
    worker: a module it had to import would cost every timed call."""
    reports = tmp_path / "new-modules.jsonl"
    fresh("""
        import os
        from repro.experiments import fault_campaign, fig7, parallel
        from repro.experiments.latency import LatencyConfig
        from repro.experiments.resilient import sweep_runtime

        name, run_dir, reports = sys.argv[1:4]
        at_fork = set()
        os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))
        lane_chunk, lone_point = parallel._lane_batched_chunk, parallel.run_point

        def report(out):
            with open(reports, "a") as fp:
                fp.write(json.dumps(sorted(set(loaded()) - at_fork)) + "\\n")
            return out

        # module-level: the forked worker unpickles the tasks by reference
        def chunk(*args, **kwargs):
            return report(lane_chunk(*args, **kwargs))

        def single(point):
            return report(lone_point(point))

        parallel._lane_batched_chunk, parallel.run_point = chunk, single
        small = LatencyConfig(
            width=4, height=4, warmup_cycles=50, measure_cycles=150,
            drain_cycles=300, num_faults=8,
        )
        if name == "fig7":
            module, config = fig7, fig7.SuiteRunConfig(small, apps=("lu", "fft"))
        else:
            module, config = fault_campaign, fault_campaign.CampaignConfig(
                timelines=2, router_kinds=("baseline", "protected"),
                timeline=fault_campaign.TimelineSpec(events=3, mean_interval=40.0),
                latency=small, app="lu",
            )
        with sweep_runtime(out_dir=run_dir):
            module.run(config, jobs=1, seed=1)
        print(json.dumps(None))
    """, name, tmp_path / "run", reports)
    new = [json.loads(line) for line in reports.read_text().splitlines()]
    assert new, "no task ran in a worker"
    assert all(modules == [] for modules in new), new
