"""Bench: regenerate paper Table III (SPF comparison)."""

import pytest

from repro.experiments import table3


def test_table3_regeneration(benchmark):
    result = benchmark(table3.run)
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
    # the exact faults-to-failure law's support
    assert result.row("proposed: exact min faults").measured == 2
    assert result.row("proposed: exact max faults").measured == 34
