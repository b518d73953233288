"""Tests for the SPF analysis (paper Section VIII)."""

import pytest

from repro.config import RouterConfig
from repro.reliability.spf import (
    analyze_spf,
    monte_carlo_faults_to_failure,
    spf_vs_vc_count,
    stage_fault_bounds,
)


class TestStageBounds:
    def test_paper_accounting_4vc(self):
        """Section VIII: RC 5/2, VA 15/4, SA 5/2, XB 2/2."""
        bounds = {b.stage: b for b in stage_fault_bounds(RouterConfig())}
        assert bounds["RC"].max_tolerated == 5
        assert bounds["RC"].min_to_failure == 2
        assert bounds["VA"].max_tolerated == 15
        assert bounds["VA"].min_to_failure == 4
        assert bounds["SA"].max_tolerated == 5
        assert bounds["SA"].min_to_failure == 2
        assert bounds["XB"].max_tolerated == 2
        assert bounds["XB"].min_to_failure == 2

    def test_exact_xb_bound_is_three(self):
        bounds = {b.stage: b for b in stage_fault_bounds(RouterConfig(), exact_xb=True)}
        assert bounds["XB"].max_tolerated == 3

    def test_vc_scaling(self):
        bounds = {b.stage: b for b in stage_fault_bounds(RouterConfig(num_vcs=2))}
        assert bounds["VA"].max_tolerated == 5  # P*(V-1)
        assert bounds["VA"].min_to_failure == 2


class TestAnalyzeSPF:
    def test_paper_headline(self):
        """27 tolerated, 28 max, 2 min, mean 15, SPF 15/1.31 = 11.4."""
        r = analyze_spf(0.31)
        assert r.max_tolerated == 27
        assert r.max_to_failure == 28
        assert r.min_to_failure == 2
        assert r.mean_faults_to_failure == 15.0
        assert r.spf == pytest.approx(11.45, abs=0.01)

    def test_spf_with_two_vcs(self):
        """Section VIII-E: SPF ~7 at 2 VCs (mean 10 at ~43 % overhead)."""
        r = analyze_spf(0.43, RouterConfig(num_vcs=2))
        assert r.mean_faults_to_failure == 10.0
        assert r.spf == pytest.approx(7.0, abs=0.3)

    def test_stage_lookup(self):
        r = analyze_spf(0.31)
        assert r.stage("VA").max_tolerated == 15
        with pytest.raises(KeyError):
            r.stage("ZZ")

    def test_rejects_negative_overhead(self):
        with pytest.raises(ValueError):
            analyze_spf(-0.1)

    def test_spf_decreases_with_overhead(self):
        assert analyze_spf(0.5).spf < analyze_spf(0.2).spf


class TestSPFSweep:
    def test_monotone_in_vcs(self):
        sweep = spf_vs_vc_count({2: 0.43, 4: 0.31, 8: 0.25})
        spfs = [sweep[v].spf for v in (2, 4, 8)]
        assert spfs[0] < spfs[1] < spfs[2]

    def test_paper_endpoints(self):
        sweep = spf_vs_vc_count({2: 0.43, 4: 0.31})
        assert sweep[2].spf == pytest.approx(7.0, abs=0.3)
        assert sweep[4].spf == pytest.approx(11.45, abs=0.1)

    def test_port_count_reaches_the_analysis(self):
        """``num_ports`` is the router each VC count is analysed on: a
        4-port router has a fifth fewer RC, VA and SA sites to tolerate."""
        for ports, tolerated in ((4, 22), (5, 27)):
            (result,) = spf_vs_vc_count({4: 0.31}, num_ports=ports).values()
            assert result == analyze_spf(0.31, RouterConfig(num_ports=ports))
            assert result.max_tolerated == tolerated


class TestMonteCarloSPF:
    def test_bounds_respected(self):
        mc = monte_carlo_faults_to_failure(trials=300, rng=5)
        # analytic extremes: failure needs >=2 faults and happens by 28
        assert mc.minimum >= 2
        assert mc.maximum <= 28
        assert 2 <= mc.mean <= 28

    def test_deterministic_with_seed(self):
        a = monte_carlo_faults_to_failure(trials=100, rng=3)
        b = monte_carlo_faults_to_failure(trials=100, rng=3)
        assert a.mean == b.mean

    def test_more_vcs_tolerate_more(self):
        small = monte_carlo_faults_to_failure(
            RouterConfig(num_vcs=2), trials=300, rng=1
        )
        big = monte_carlo_faults_to_failure(
            RouterConfig(num_vcs=8), trials=300, rng=1
        )
        assert big.mean > small.mean

    def test_percentiles(self):
        mc = monte_carlo_faults_to_failure(trials=300, rng=5)
        assert mc.percentile(0) == mc.minimum
        assert mc.percentile(100) == mc.maximum

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_faults_to_failure(trials=0)
