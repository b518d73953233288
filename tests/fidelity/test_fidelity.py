"""The paper's numbers, checked where they live.

Every row of the seven analytic paper artefacts that carries a ``paper``
value must meet its entry in :data:`tolerances.TOLERANCES`, and a guard
fails on a paper row of any of the nine artefacts (Figures 7-8 included)
without an entry, or on an entry naming no row.  Beside them stand the
checks on rows the paper does not print.  All seven experiments together
run in a fraction of a second; Figures 7-8 at paper scale are
``figures.py``.
"""

from __future__ import annotations

import pytest

import render
from repro.experiments import fig7, fig8
from repro.experiments.latency import LatencyConfig, SuiteRunConfig
from tolerances import TOLERANCES

ANALYTIC = {m.__name__.rsplit(".", 1)[1]: m for m in render.ANALYTIC}

#: enough of a figure to list its rows: which of them carry a paper value
#: does not depend on the scale
_TINY = LatencyConfig(
    width=2, height=2, warmup_cycles=20, measure_cycles=50, drain_cycles=100, num_faults=1
)


@pytest.fixture(scope="module")
def results():
    return {name: module.run() for name, module in ANALYTIC.items()}


def paper_rows(result):
    return {row.label: row for row in result.rows if row.paper is not None}


@pytest.mark.parametrize("experiment", list(ANALYTIC))
def test_paper_rows(results, experiment):
    misses = [
        f"{label}: measured {row.measured!r}, paper {row.paper!r}, wants {tol.describe()}"
        for label, row in paper_rows(results[experiment]).items()
        if not (tol := TOLERANCES[experiment, label]).holds(row.measured, row.paper)
    ]
    assert not misses, "\n".join(misses)


def test_every_paper_row_has_one_entry(results):
    figures = {
        "fig7": fig7.run(SuiteRunConfig(_TINY, apps=("lu",))),
        "fig8": fig8.run(SuiteRunConfig(_TINY, apps=("canneal",))),
    }
    rows = {
        (name, label)
        for name, result in {**results, **figures}.items()
        for label in paper_rows(result)
    }
    assert sorted(rows - set(TOLERANCES)) == [], "paper rows without a tolerance"
    assert sorted(set(TOLERANCES) - rows) == [], "tolerances naming no paper row"


def test_mttf_exact_expected_max(results):
    """The textbook E[max] of the two lifetimes, 1/l1 + 1/l2 - 1/(l1 + l2),
    on the census FITs (the oracle in ``tests/oracles.py`` samples it)."""
    row = results["mttf"].row("MTTF protected (exact E[max] formula)")
    assert row.measured == 1_614_144


def test_table3_exact_mean_faults_to_failure(results):
    assert results["table3"].row("proposed: exact mean faults to failure").measured == 9.29


def test_critical_path_ordering(results):
    """XB takes the worst hit, VA the next, SA a mild one, RC next to none."""
    overheads = results["critical_path"].extras["report"].overheads
    assert overheads["XB"] > overheads["VA"] > overheads["SA"] > overheads["RC"]


def test_area_overhead_below_vicis(results):
    """Table III's qualitative claim: cheaper than Vicis (and BulletProof)."""
    area = results["area_power"].row("area overhead (with detection)").measured
    assert area < results["table3"].row("Vicis: area overhead").paper


def test_experiments_md_is_rendered():
    """EXPERIMENTS.md's paper tables are ``render.py``'s output: the
    analytic ones from the rows above, the figure ones from the committed
    ``figures.json``."""
    text = render.EXPERIMENTS_MD.read_text()
    assert render.render(text) == text, "stale tables: run tests/fidelity/render.py"
