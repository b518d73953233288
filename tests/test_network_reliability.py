"""Tests for the fabric-level reliability extension."""

import numpy as np
import pytest

from oracles import fabric_trial_chunk_reference
from repro.config import NetworkConfig
from repro.reliability.network_level import (
    _fabric_trial_chunk,
    analyze_network_reliability,
    protection_gain,
    sample_router_lifetimes,
)


class TestLifetimeSampling:
    def test_shapes(self):
        lt = sample_router_lifetimes(16, 10, rng=1)
        assert lt.shape == (10, 16)
        assert np.all(lt > 0)

    def test_protected_outlives_baseline_on_average(self):
        base = sample_router_lifetimes(64, 50, model="baseline", rng=2)
        prot = sample_router_lifetimes(64, 50, model="protected", rng=2)
        assert prot.mean() > base.mean() * 2

    def test_baseline_mean_matches_mttf(self):
        """Sampled baseline lifetimes average to ~1e9/FIT hours."""
        lt = sample_router_lifetimes(64, 400, model="baseline", rng=3)
        assert lt.mean() == pytest.approx(1e9 / 2818.5, rel=0.05)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            sample_router_lifetimes(4, 4, model="quantum")

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            sample_router_lifetimes(0, 10)


class TestNetworkAnalysis:
    def test_ordering_of_metrics(self):
        """First failure <= k-th failure <= disconnection (more events
        must accumulate for the later metrics)."""
        rep = analyze_network_reliability(
            NetworkConfig(width=4, height=4), trials=60, k=3, rng=5
        )
        assert rep.mean_first_failure <= rep.mean_kth_failure
        assert rep.mean_kth_failure <= rep.mean_disconnection

    def test_more_routers_fail_sooner(self):
        """Bigger fabric -> earlier first failure (min of more samples)."""
        small = analyze_network_reliability(
            NetworkConfig(width=2, height=2), trials=80, k=1, rng=7
        )
        big = analyze_network_reliability(
            NetworkConfig(width=6, height=6), trials=80, k=1, rng=7
        )
        assert big.mean_first_failure < small.mean_first_failure

    def test_k_validation(self):
        with pytest.raises(ValueError):
            analyze_network_reliability(
                NetworkConfig(width=2, height=2), k=5, trials=5
            )

    def test_rows(self):
        rep = analyze_network_reliability(
            NetworkConfig(width=3, height=3), trials=20, rng=1
        )
        assert len(rep.rows()) == 3


class TestProtectionGain:
    def test_protected_wins_everywhere(self):
        gains = protection_gain(NetworkConfig(width=3, height=3), trials=60)
        assert all(g > 1.5 for g in gains.values())


class TestVectorizedTrialKernel:
    """The union-find disconnection kernel must be bit-identical to the
    per-kill `networkx` oracle (same per-seed lifetime streams, same
    first/k-th/disconnection columns)."""

    def _assert_chunks_equal(self, net, model, trials=30, k=3, root=42):
        seeds = np.random.SeedSequence(root).spawn(trials)
        fast = _fabric_trial_chunk(net, model, seeds, k, None)
        ref = fabric_trial_chunk_reference(net, model, seeds, k, None)
        assert np.array_equal(fast, ref)

    def test_mesh_baseline(self):
        self._assert_chunks_equal(NetworkConfig(width=4, height=4), "baseline")

    def test_mesh_protected(self):
        self._assert_chunks_equal(NetworkConfig(width=4, height=4), "protected")

    def test_rectangular_mesh(self):
        self._assert_chunks_equal(
            NetworkConfig(width=5, height=3), "baseline", trials=20
        )
