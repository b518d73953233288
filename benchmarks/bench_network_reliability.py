"""Bench (extension): fabric-level MTTF, baseline vs protected routers."""

import pytest

from conftest import run_once
from repro.experiments import network_reliability


def test_network_reliability(benchmark):
    result = run_once(
        benchmark, network_reliability.run,
        network_reliability.NetworkReliabilityConfig(trials=120),
    )
    print()
    print(result.format())
    # the per-router ~6x gain compounds at fabric scale: the first-failure
    # gain exceeds the per-router MTTF ratio because redundancy lifts the
    # weakest-router tail hardest
    assert result.row("gain: first router failure").measured > 6.0
    assert result.row("gain: mesh disconnection").measured > 2.0
    assert result.row(
        "protected gains >= 2x on every fabric metric"
    ).measured is True
