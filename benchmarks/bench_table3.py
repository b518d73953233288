"""Bench: regenerate paper Table III (SPF comparison)."""

import pytest

from repro.experiments import table3


def test_table3_regeneration(benchmark):
    result = benchmark(table3.run, table3.Table3Config(mc_trials=300))
    print()
    print(result.format())
    # the published comparison rows
    assert result.row("BulletProof: SPF").measured == pytest.approx(2.07, abs=0.01)
    assert result.row("Vicis: SPF").measured == pytest.approx(6.55, abs=0.01)
    assert result.row("RoCo: SPF").measured == pytest.approx(5.5, abs=0.01)
    # the proposed router: SPF ~11.4 and the ordering holds
    assert result.row("Proposed Router: SPF").measured == pytest.approx(
        11.4, abs=0.5
    )
    assert result.row("proposed router has highest SPF").measured is True
    # min-faults sanity from the Monte-Carlo
    assert result.row("proposed: MC min faults").measured == 2
