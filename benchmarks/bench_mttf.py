"""Bench: regenerate the MTTF analysis (paper Equations 4-7)."""

import pytest

from repro.experiments import mttf


def test_mttf_regeneration(benchmark):
    result = benchmark(mttf.run)
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
    # the textbook E[max] sits below the paper's Eq. 5
    exact = result.row("MTTF protected (exact E[max] formula)").measured
    assert exact == pytest.approx(1_614_009, rel=0.01)
