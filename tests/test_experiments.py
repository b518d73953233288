"""Tests for the experiment harness (reports, runner, analytic experiments,
and quick-config latency experiments)."""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.latency import (
    LatencyConfig,
    QUICK_CONFIG,
    SuiteRunConfig,
    overall_overhead,
    run_app_pair,
)
from repro.experiments.report import ExperimentResult, Row
from repro.experiments import area_power, critical_path, fig7, mttf, spf_sweep, table1, table2, table3
from repro.traffic.apps import app_profile


class TestReport:
    def test_relative_error(self):
        assert Row("x", 11.0, 10.0).relative_error() == pytest.approx(0.1)
        assert Row("x", 11.0, None).relative_error() is None
        assert Row("x", True, True).relative_error() == 0.0
        assert Row("x", "text", 3).relative_error() is None

    def test_result_lookup_and_format(self):
        res = ExperimentResult("t", "title")
        res.add("alpha", 1.0, 2.0, unit="h", note="why")
        assert res.row("alpha").measured == 1.0
        with pytest.raises(KeyError):
            res.row("beta")
        text = res.format()
        assert "alpha" in text and "title" in text and "why" in text

    def test_max_relative_error(self):
        res = ExperimentResult("t", "title")
        res.add("a", 11.0, 10.0)
        res.add("b", 10.0, 10.0)
        assert res.max_relative_error() == pytest.approx(0.1)


class TestAnalyticExperiments:
    def test_table1_close_to_paper(self):
        res = table1.run()
        # everything within 1 % of the printed table
        assert res.max_relative_error() < 0.01

    def test_table2_exact(self):
        res = table2.run()
        assert res.max_relative_error() < 1e-9

    def test_mttf_headline(self):
        res = mttf.run()
        assert res.row("MTTF protected (paper Eq.5)").relative_error() < 0.01
        assert res.row("reliability improvement (paper)").measured == pytest.approx(
            6.18, abs=0.05
        )

    def test_table3_ordering(self):
        res = table3.run()
        assert res.row("proposed router has highest SPF").measured is True
        assert res.row("proposed: exact mean faults to failure").measured == 9.29
        assert res.row("proposed: exact max faults").measured == 34

    def test_table3_one_mean_whatever_the_flags(self, capsys):
        from repro.experiments.runner import main

        means = set()
        for flags in ([], ["--quick"], ["--seed", "5"], ["--jobs", "2"]):
            assert main(["table3", *flags]) == 0
            out = capsys.readouterr().out
            means |= {ln for ln in out.splitlines() if "exact mean" in ln}
        assert len(means) == 1

    def test_spf_sweep_shape(self):
        res = spf_sweep.run()
        assert res.row("SPF monotonically increases with VCs").measured is True

    def test_area_power_bands(self):
        res = area_power.run()
        assert 0.2 < res.row("area overhead (with detection)").measured < 0.4
        assert 0.2 < res.row("power overhead (with detection)").measured < 0.4

    def test_critical_path_ordering(self):
        res = critical_path.run()
        rep = res.extras["report"]
        assert rep.overhead("XB") > rep.overhead("SA")


class TestRunner:
    def test_registry_covers_all_artifacts(self):
        paper_artifacts = {
            "table1",
            "table2",
            "mttf",
            "table3",
            "spf_sweep",
            "area_power",
            "critical_path",
            "fig7",
            "fig8",
        }
        extensions = {
            "load_latency",
            "network_reliability",
            "reliability_curves",
            "energy",
            "detection_latency",
            "fault_sweep",
            "design_space",
            "mttf_sensitivity",
            "fault_campaign",
        }
        assert set(EXPERIMENTS) == paper_artifacts | extensions

    def test_run_experiment_dispatch(self):
        res = run_experiment("table2")
        assert res.experiment == "table2"

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig9")

    def test_cli_main(self, capsys):
        from repro.experiments.runner import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "correction" in out

    def test_cli_jobs_on_an_experiment_without_a_sweep(self, capsys):
        """``extras["sweep"]`` is a SweepReport or absent: ``--jobs``
        prints it after every experiment of ``all``."""
        from repro.experiments.runner import main

        assert main(["spf_sweep", "--jobs", "2"]) == 0
        assert "SPF monotonically increases" in capsys.readouterr().out


class TestLatencyHarness:
    def test_quick_config_app_pair(self):
        r = run_app_pair(app_profile("water-nsq"), QUICK_CONFIG)
        assert r.fault_free > 0
        assert r.faulty >= r.fault_free * 0.95
        assert r.fault_free_result.drained

    def test_run_suite_subset(self):
        res = fig7.run(SuiteRunConfig(QUICK_CONFIG, apps=("lu",))).extras["results"]
        assert len(res) == 1 and res[0].app == "lu"

    def test_run_suite_unknown_app(self):
        with pytest.raises(ValueError):
            SuiteRunConfig(QUICK_CONFIG, apps=("doom",))  # in no suite
        with pytest.raises(ValueError, match="unknown apps for splash2"):
            fig7.run(SuiteRunConfig(QUICK_CONFIG, apps=("canneal",)))

    def test_overall_overhead_requires_results(self):
        with pytest.raises(ValueError):
            overall_overhead([])

    def test_faulty_run_injects_requested_faults(self):
        from repro.experiments.latency import run_app

        res = run_app(app_profile("lu"), QUICK_CONFIG, faulty=True)
        assert res.faults_injected == QUICK_CONFIG.num_faults

    def test_latency_config_validation(self):
        cfg = LatencyConfig(width=4, height=4)
        net = cfg.network()
        assert net.num_nodes == 16
        sim = cfg.simulation()
        assert sim.measure_cycles == cfg.measure_cycles
