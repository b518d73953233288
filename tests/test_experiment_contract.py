"""The experiment contract (:func:`repro.experiments.report.experiment`).

Every module's ``run()`` is built from its config class: it resolves the
request exactly as the service fingerprints it, and a sweep experiment
makes one ``run_lane_sweep`` call — the seam the ledger's
``capture_lane_sweeps`` and a cross-experiment lane packing rely on.
"""

import pytest

from repro.experiments import EXPERIMENTS, parallel
from repro.experiments.design_space import DesignSpaceConfig
from repro.experiments.detection_latency import DetectionLatencyConfig
from repro.experiments.energy import EnergyConfig
from repro.experiments.fault_campaign import CampaignConfig
from repro.experiments.fault_sweep import FaultSweepConfig
from repro.experiments.latency import QUICK_CONFIG, LatencyConfig, SuiteRunConfig
from repro.experiments.load_latency import LoadLatencyConfig
from repro.experiments.report import ExperimentResult
from repro.faults import TimelineSpec
from repro.service.fingerprint import effective_config

TINY_LATENCY = LatencyConfig(
    width=4, height=4, warmup_cycles=50, measure_cycles=150, drain_cycles=400,
    num_faults=4,
)

#: the sweep experiments, each at a config that runs in well under a second
TINY_SWEEPS = {
    "fig7": SuiteRunConfig(TINY_LATENCY, apps=("lu",)),
    "fig8": SuiteRunConfig(TINY_LATENCY, apps=("canneal",)),
    "fault_sweep": FaultSweepConfig(fault_counts=(0, 2), latency=TINY_LATENCY),
    "load_latency": LoadLatencyConfig(rates=(0.04,), num_faults=4, measure=150),
    "design_space": DesignSpaceConfig(vc_counts=(2,), buffer_depths=(2, 4), measure=150),
    "fault_campaign": CampaignConfig(
        timelines=1,
        router_kinds=("baseline", "protected"),
        timeline=TimelineSpec(events=2, mean_interval=60.0),
        latency=TINY_LATENCY,
        app="lu",
    ),
    "energy": EnergyConfig(app="lu", latency=TINY_LATENCY),
    "detection_latency": DetectionLatencyConfig(num_faults=4, measure_cycles=150),
}


def test_the_sweep_experiments_are_the_ones_that_hand_over_points():
    sweeps = {n for n, e in EXPERIMENTS.items() if hasattr(e.module, "points")}
    assert sweeps == set(TINY_SWEEPS)
    for name, entry in EXPERIMENTS.items():
        assert hasattr(entry.module, "report") == (name in sweeps), name
        assert hasattr(entry.module, "body") != (name in sweeps), name


@pytest.mark.parametrize("name", sorted(TINY_SWEEPS))
def test_a_sweep_experiment_makes_one_lane_sweep(name, monkeypatch):
    calls = []
    real = parallel.run_lane_sweep

    def recording(points, **kwargs):
        points = list(points)
        calls.append(points)
        return real(points, **kwargs)

    monkeypatch.setattr(parallel, "run_lane_sweep", recording)
    module = EXPERIMENTS[name].module
    res = module.run(TINY_SWEEPS[name], seed=3)
    assert len(calls) == 1
    config, _ = effective_config(name, TINY_SWEEPS[name], seed=3)
    assert calls[0] == module.points(config)
    assert res.extras["sweep"].points == len(calls[0])


class _Stop(Exception):
    pass


def _cases():
    for name, entry in sorted(EXPERIMENTS.items()):
        yield name, entry.cli_config(True)
    yield "fig7", QUICK_CONFIG  # a bare LatencyConfig, as the ledger passes


@pytest.mark.parametrize(
    "name, config", list(_cases()),
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
@pytest.mark.parametrize("seed", [None, 7])
def test_run_computes_with_the_effective_config(name, config, seed, monkeypatch):
    """What the service fingerprints is what ``run()`` computes with."""
    module = EXPERIMENTS[name].module
    seen = []
    if hasattr(module, "body"):

        def body(cfg, jobs):
            seen.append(cfg)
            return ExperimentResult(name, "stub")

        monkeypatch.setattr(module, "body", body)
        module.run(config, seed=seed)
    else:

        def points(cfg):
            seen.append(cfg)
            raise _Stop

        monkeypatch.setattr(module, "points", points)
        with pytest.raises(_Stop):
            module.run(config, seed=seed)
    expected, _ = effective_config(name, config, seed=seed)
    assert seen == [expected]
    assert type(expected) is EXPERIMENTS[name].config_type
