"""Shared helpers for the benchmark suite.

Every paper table/figure has a `bench_*.py` here that (a) times the
regeneration under pytest-benchmark and (b) asserts the reproduced shape
(who wins, by roughly what factor) against the paper's numbers.  The
engineering benches keep behaviour asserts and floors only; speeds are
measured and compared by the ledger (``benchmarks/ledger/README.md``).

The simulation-heavy figure benches default to the reduced QUICK
configuration; set ``REPRO_BENCH_FULL=1`` to run them at the paper's 8x8
scale (minutes instead of seconds).
"""

import os

import pytest

from repro.experiments.latency import LatencyConfig, QUICK_CONFIG


def full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture
def latency_config() -> LatencyConfig:
    """Figure 7/8 configuration: quick by default, paper scale on demand."""
    return LatencyConfig() if full_scale() else QUICK_CONFIG


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive function with a single measured round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)
