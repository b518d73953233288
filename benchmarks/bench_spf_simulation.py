"""Bench (validation): simulation-based vs analytical faults-to-failure.

The paper's Table III faults-to-failure figure for the proposed router is
theoretical; BulletProof and Vicis derived theirs "through simulations".
This bench runs our simulation-based campaign and confirms it tracks the
exact mean of the Section VIII predicates — closing the loop between the
predicates and what a live router actually survives.
"""

import pytest

from conftest import run_once
from repro.config import RouterConfig
from repro.reliability.spf import faults_to_failure
from repro.reliability.spf_simulation import simulated_faults_to_failure


def test_simulated_vs_analytic_faults_to_failure(benchmark):
    def measure():
        sim = simulated_faults_to_failure(trials=40, rng=3)
        exact = faults_to_failure(RouterConfig(), include_va2=False)
        return sim, exact

    sim, exact = run_once(benchmark, measure)
    print(
        f"\nsimulated: mean={sim.mean:.2f} [{sim.minimum}, {sim.maximum}]"
        f"  exact: mean={exact.mean:.2f} [{exact.minimum}, {exact.maximum}]"
    )
    # the behavioural campaign tracks the exact law
    assert sim.mean == pytest.approx(exact.mean, rel=0.2)
    assert exact.minimum <= sim.minimum
    assert sim.maximum <= exact.maximum
