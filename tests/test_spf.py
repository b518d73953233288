"""Tests for the SPF analysis (paper Section VIII)."""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from oracles import assert_within_standard_errors, faults_to_failure_samples
from repro.config import RouterConfig
from repro.core.failure import failure_components, protected_router_failed
from repro.faults.sites import RouterFaultState, enumerate_sites
from repro.reliability.spf import (
    analyze_spf,
    faults_to_failure,
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
    """The exact faults-to-failure law against the sampled one."""

    def test_bounds_respected(self):
        """T runs from 2 (a fatal pair) to 34: the largest tolerated set
        holds 33 sites, 8 of them in the XB ring (SA2 and muxes 0, 2, 4,
        secondaries 1 and 3) beside RC 5, VA1 15 and SA1 5."""
        d = faults_to_failure()
        assert (d.minimum, d.maximum) == (2, 34)
        assert all(p == 0 for k, p in enumerate(d.pmf) if not 2 <= k <= 34)
        # two faults fail the router as one of 5 RC pairs, 5 SA pairs or
        # 26 ring pairs (an output's mux or SA2 with its secondary path's
        # demux, mux or SA2; outputs 0 and 1 back each other up: 5 x 6 - 4)
        assert d.pmf[2] == Fraction(5 + 5 + 26, comb(55, 2))
        # the 33-site sets: one unit of each RC and SA pair, three of four
        # VA1 sets per port, and the one 8-site ring set
        assert d.tolerable[33] == 2**5 * 2**5 * 4**5 and d.tolerable[34] == 0
        assert d.pmf[34] == Fraction(d.tolerable[33], comb(55, 33))
        assert float(sum(d.pmf[29:])) == pytest.approx(1.46e-5, rel=0.01)

    def test_deterministic_with_seed(self):
        a = faults_to_failure_samples(trials=100, rng=3)
        b = faults_to_failure_samples(trials=100, rng=3)
        assert np.array_equal(a, b)

    def test_more_vcs_tolerate_more(self):
        small = faults_to_failure(RouterConfig(num_vcs=2))
        big = faults_to_failure(RouterConfig(num_vcs=8))
        assert big.mean > small.mean

    def test_percentiles(self):
        """The support ends where the CDF leaves 0 and reaches 1."""
        d = faults_to_failure()
        cdf = np.cumsum([float(p) for p in d.pmf])
        assert cdf[d.minimum - 1] == 0 < cdf[d.minimum]
        assert cdf[d.maximum - 1] < 1
        assert sum(d.pmf[: d.maximum + 1]) == 1

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            faults_to_failure_samples(trials=0)


#: (config, exact/include_va2) -> the exact mean, to its printed digits
EXACT_MEANS = [
    (RouterConfig(), False, 9.286083949966017),
    (RouterConfig(), True, 12.539352789302463),
    (RouterConfig(num_vcs=2), False, 7.024238734),
    (RouterConfig(num_vcs=8), False, 12.668730886),
    (RouterConfig(num_ports=4), False, 8.442868630),
]
_IDS = ["paper", "exact", "2vc", "8vc", "4port"]


class TestExactFaultsToFailure:
    @pytest.mark.parametrize("config, exact, mean", EXACT_MEANS, ids=_IDS)
    def test_means_to_their_printed_digits(self, config, exact, mean):
        d = faults_to_failure(config, exact=exact, include_va2=exact)
        digits = len(repr(mean).split(".")[1])
        assert round(d.mean, digits) == mean
        assert sum(d.pmf) == 1
        assert d.mean == pytest.approx(float(sum(k * p for k, p in enumerate(d.pmf))))

    @pytest.mark.parametrize(
        "exact, upto, counts",
        [(False, 3, (1, 55, 1449, 24404)), (True, 2, (1, 75, 2739))],
        ids=["paper", "exact"],
    )
    def test_tolerable_sets_equal_a_brute_force_count(self, exact, upto, counts):
        """N_k by the component product equals a direct count of
        ``protected_router_failed`` over every k-subset of the sites."""
        config = RouterConfig()
        sites = list(enumerate_sites(config, include_va2=exact))
        brute = []
        for k in range(upto + 1):
            alive = 0
            for subset in combinations(sites, k):
                state = RouterFaultState(config)
                for site in subset:
                    state.inject(site)
                alive += not protected_router_failed(state, exact=exact)
            brute.append(alive)
        d = faults_to_failure(config, exact=exact, include_va2=exact)
        assert tuple(brute) == counts == d.tolerable[: upto + 1]

    @pytest.mark.parametrize("config, exact, mean", EXACT_MEANS, ids=_IDS)
    def test_oracle_within_three_standard_errors(self, config, exact, mean):
        samples = faults_to_failure_samples(
            config, trials=4000, rng=1, exact=exact, include_va2=exact
        )
        assert_within_standard_errors(mean, samples)

    def test_components_share_no_site_and_cover_the_pool(self):
        for exact in (False, True):
            config = RouterConfig(num_vnets=2)
            sites = [s for c in failure_components(config, exact) for s in c.sites]
            assert len(sites) == len(set(sites))
            assert set(sites) == set(enumerate_sites(config, include_va2=exact))

    def test_va2_sites_without_the_rule_never_fail_the_router(self):
        """In paper accounting VA2 sites are in the pool but no component
        reads them: each multiplies N by (1 + x)."""
        d = faults_to_failure(include_va2=True)
        assert len(d.pmf) == 75 + 1
        assert d.tolerable[1] == 75
        assert d.mean > faults_to_failure().mean
