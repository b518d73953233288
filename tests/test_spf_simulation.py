"""Tests for the simulation-based faults-to-failure campaign, including
agreement with the Section VIII analytical predicates."""

import numpy as np
import pytest

from repro.config import NetworkConfig, RouterConfig
from repro.core.failure import protected_router_failed
from repro.core.protected_router import ProtectedRouter
from repro.faults.sites import FaultSite, FaultUnit, enumerate_sites
from oracles import trial_counts_reference
from repro.reliability.spf import faults_to_failure
from repro.reliability.spf_simulation import (
    _PROBE_NODE,
    functional_failure,
    simulated_faults_to_failure,
)
from repro.router.routing import XYRouting


def reference_counts(trials, seed, config=RouterConfig()):
    """The scalar oracle's counts over the campaign's site pool and stream."""
    net = NetworkConfig(width=3, height=3, router=config)
    sites = list(enumerate_sites(config, router=_PROBE_NODE, include_va2=False))
    return trial_counts_reference(
        config, net, sites, trials, np.random.default_rng(seed), max_cycles=60
    )


def make_router():
    net = NetworkConfig(width=3, height=3)
    return ProtectedRouter(4, net.router, XYRouting(net)), net


class TestFunctionalFailure:
    def test_healthy_router_functions(self):
        router, net = make_router()
        assert not functional_failure(router, net)

    def test_rc_double_fault_fails_functionally(self):
        router, net = make_router()
        router.inject_fault(FaultSite(4, FaultUnit.RC_PRIMARY, 1))
        router.inject_fault(FaultSite(4, FaultUnit.RC_DUPLICATE, 1))
        assert functional_failure(router, net)

    def test_sa_pair_fails_functionally(self):
        router, net = make_router()
        router.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, 2))
        router.inject_fault(FaultSite(4, FaultUnit.SA1_BYPASS, 2))
        assert functional_failure(router, net)

    def test_xb_pair_fails_functionally(self):
        router, net = make_router()
        router.inject_fault(FaultSite(4, FaultUnit.XB_MUX, 3))
        router.inject_fault(FaultSite(4, FaultUnit.XB_MUX, 2))  # secondary src
        assert functional_failure(router, net)

    def test_single_faults_never_fail_functionally(self):
        """Behavioural counterpart of the exhaustive predicate test."""
        net = NetworkConfig(width=3, height=3)
        for site in enumerate_sites(net.router, router=4, include_va2=False):
            router = ProtectedRouter(4, net.router, XYRouting(net))
            router.inject_fault(site)
            assert not functional_failure(router, net), site.describe()

    def test_paper_max_27_faults_still_function(self):
        router, net = make_router()
        for p in range(5):
            router.inject_fault(FaultSite(4, FaultUnit.RC_PRIMARY, p))
        for p in range(5):
            for v in range(3):
                router.inject_fault(FaultSite(4, FaultUnit.VA1_ARBITER_SET, p, v))
        for p in range(5):
            router.inject_fault(FaultSite(4, FaultUnit.SA1_ARBITER, p))
        router.inject_fault(FaultSite(4, FaultUnit.XB_MUX, 1))
        router.inject_fault(FaultSite(4, FaultUnit.XB_MUX, 3))
        assert router.faults.num_faults == 27
        assert not functional_failure(router, net, max_cycles=120)


class TestPredicateAgreement:
    def test_predicate_and_functional_agree_along_random_paths(self):
        """Inject random fault sequences; at every step the analytical
        predicate and the behavioural probe must give the same verdict."""
        net = NetworkConfig(width=3, height=3)
        sites = list(enumerate_sites(net.router, router=4, include_va2=False))
        rng = np.random.default_rng(5)
        for trial in range(4):
            router = ProtectedRouter(4, net.router, XYRouting(net))
            for i in rng.permutation(len(sites)):
                router.inject_fault(sites[int(i)])
                predicate = protected_router_failed(router.faults)
                functional = functional_failure(router, net)
                assert predicate == functional, (
                    f"disagreement after {router.faults.num_faults} faults: "
                    f"predicate={predicate} functional={functional} "
                    f"history={[s.describe() for s in router.faults.sites()]}"
                )
                if predicate:
                    break


class TestSimulatedCampaign:
    def test_bounds(self):
        res = simulated_faults_to_failure(trials=8, rng=2)
        assert 2 <= res.minimum
        assert res.maximum <= 28

    def test_deterministic(self):
        a = simulated_faults_to_failure(trials=5, rng=9)
        b = simulated_faults_to_failure(trials=5, rng=9)
        assert a.mean == b.mean

    def test_tracks_predicate_monte_carlo(self):
        """The behavioural campaign's mean tracks the predicate's exact
        mean (same failure law, same site pool)."""
        sim = simulated_faults_to_failure(trials=40, rng=3)
        exact = faults_to_failure(RouterConfig(), include_va2=False)
        assert sim.mean == pytest.approx(exact.mean, rel=0.2)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            simulated_faults_to_failure(trials=0)

    def test_bisection_fast_path_matches_reference(self):
        """The bisection + warm-router campaign returns the exact sample
        vector of the inject-one-probe-every-step oracle (same rng
        stream, monotone failure in the fault prefix)."""
        for seed in (2, 3, 9, 11):
            fast = simulated_faults_to_failure(trials=6, rng=seed)
            ref = reference_counts(6, seed)
            assert np.array_equal(fast.samples, ref)
            assert fast.mean == ref.mean()
            assert fast.std == ref.std()
