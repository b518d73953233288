"""Bench: regenerate the MTTF analysis (paper Equations 4-7)."""

import pytest

from repro.experiments import mttf


def test_mttf_regeneration(benchmark):
    result = benchmark(mttf.run, mttf.MTTFConfig(mc_samples=50_000))
    print()
    print(result.format())
    assert result.row("MTTF baseline").measured == pytest.approx(
        354_358, rel=0.01
    )
    assert result.row("MTTF protected (paper Eq.5)").measured == pytest.approx(
        2_190_696, rel=0.01
    )
    # the headline: ~6x more reliable than the baseline
    assert result.row("reliability improvement (paper)").measured == pytest.approx(
        6.0, abs=0.3
    )
    # MC must validate the exact E[max] formula within 2 %
    exact = result.row("MTTF protected (exact E[max] formula)").measured
    mc = result.row("MTTF protected (Monte-Carlo E[max])").measured
    assert mc == pytest.approx(exact, rel=0.02)
