"""Figures 7-8 at the paper's scale, over seeds 1-5, in one sweep.

Tier-1 does not collect this module: its name matches no ``python_files``
pattern, so only naming it collects it::

    PYTHONPATH=src python -m pytest -q tests/fidelity/figures.py

The ``fig7.points`` and ``fig8.points`` of seeds 1-5 (170 points of the
8x8 mesh) go to one ``run_lane_sweep`` on two workers, which is
bit-identical to a serial run; the results are split back into the ten
``report()`` calls, so seed 1 is exactly ``fig7.run()`` / ``fig8.run()``.
The per-seed values, medians and ranges of every application and both
headlines are written to ``figures.json`` beside this file, from which
``render.py`` writes the figure tables of EXPERIMENTS.md.  The sweep
read 45-62 s on the two workers of a 2-vCPU host, ~90 s serially.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.experiments import fig7, fig8, parallel
from repro.experiments.latency import SuiteRunConfig, overall_overhead
from repro.experiments.report import ExperimentResult, resolve_config
from repro.experiments.resilient import sweep_runtime
from repro.traffic.apps import PARSEC_PROFILES, SPLASH2_PROFILES
from tolerances import TOLERANCES

SEEDS = (1, 2, 3, 4, 5)
JOBS = 2
FIGURES = {"fig7": fig7, "fig8": fig8}
HEADLINE = "overall latency increase"
JSON_PATH = Path(__file__).with_name("figures.json")


def run_seeds() -> dict[int, dict[str, ExperimentResult]]:
    """``{seed: {"fig7": result, "fig8": result}}`` from one lane sweep."""
    configs = {s: resolve_config(SuiteRunConfig, seed=s)[0] for s in SEEDS}
    plan = [
        (seed, name, module.points(configs[seed]))
        for seed in SEEDS
        for name, module in FIGURES.items()
    ]
    with sweep_runtime():
        values, _ = parallel.run_lane_sweep(
            [p for *_, points in plan for p in points], jobs=JOBS
        )
    results: dict[int, dict[str, ExperimentResult]] = {}
    at = 0
    for seed, name, points in plan:
        chunk = values[at:at + len(points)]
        results.setdefault(seed, {})[name] = FIGURES[name].report(configs[seed], chunk)
        at += len(points)
    return results


def _spread(values: list[float]) -> dict:
    return {
        "per_seed": values,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def summarise(results: dict[int, dict[str, ExperimentResult]], wall_s: float) -> dict:
    """The JSON record: per seed, median and range of every quantity."""
    seeds = sorted(results)
    doc: dict = {
        "seeds": seeds,
        "jobs": JOBS,
        "points": sum(
            2 * len(results[s][name].extras["results"]) for s in seeds for name in FIGURES
        ),
        "wall_s": round(wall_s, 1),
    }
    for name in FIGURES:
        runs = [results[s][name] for s in seeds]
        doc[name] = {
            "paper": runs[0].row(HEADLINE).paper,
            "overall": _spread([overall_overhead(r.extras["results"]) for r in runs]),
            "apps": {
                app.app: {
                    field: _spread([getattr(r.extras["results"][i], field) for r in runs])
                    for field in ("fault_free", "faulty", "overhead")
                }
                for i, app in enumerate(runs[0].extras["results"])
            },
        }
    return doc


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    results = run_seeds()
    doc = summarise(results, time.perf_counter() - start)
    JSON_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return results, doc


def test_one_sweep_holds_every_point(sweep):
    results, doc = sweep
    assert doc["points"] == 170
    for by_name in results.values():
        assert len(by_name["fig7"].extras["results"]) == len(SPLASH2_PROFILES) == 8
        assert len(by_name["fig8"].extras["results"]) == len(PARSEC_PROFILES) == 9


def test_no_run_blocked_and_every_run_measured(sweep):
    results, _ = sweep
    for by_name in results.values():
        for res in by_name.values():
            for app in res.extras["results"]:
                for run in (app.fault_free_result, app.faulty_result):
                    assert not run.blocked, app.app
                    assert run.stats.measured_packets > 0, app.app


def test_faults_never_make_an_app_faster(sweep):
    results, _ = sweep
    for seed, by_name in results.items():
        for res in by_name.values():
            for app in res.extras["results"]:
                assert app.faulty >= app.fault_free * 0.99, (seed, app.app)


def test_parsec_is_hit_harder_in_every_seed(sweep):
    _, doc = sweep
    per_seed = zip(doc["fig7"]["overall"]["per_seed"], doc["fig8"]["overall"]["per_seed"])
    for seed, (splash2, parsec) in zip(doc["seeds"], per_seed):
        assert parsec > splash2, seed


@pytest.mark.parametrize("name", list(FIGURES))
def test_headline_median_meets_the_paper(sweep, name):
    _, doc = sweep
    tolerance = TOLERANCES[name, HEADLINE]
    median, paper = doc[name]["overall"]["median"], doc[name]["paper"]
    assert tolerance.holds(median, paper), (median, paper, tolerance.describe())


def test_the_memory_bound_apps_pay_at_least_the_lightest(sweep):
    """The contention mechanism, on the five-seed medians: ocean and radix
    (SPLASH-2) and canneal (PARSEC) lose at least as much as water-nsq,
    and canneal loads the fabric harder to begin with."""
    _, doc = sweep

    def median(name, app, field):
        return doc[name]["apps"][app][field]["median"]

    water = median("fig7", "water-nsq", "overhead")
    heavy = (median("fig7", "ocean", "overhead") + median("fig7", "radix", "overhead")) / 2
    assert heavy >= water - 0.02
    assert median("fig8", "canneal", "overhead") >= water - 0.02
    assert median("fig8", "canneal", "fault_free") > median("fig7", "water-nsq", "fault_free")


def test_parsec_loads_the_fabric_harder():
    splash2 = statistics.fmean(p.injection_rate for p in SPLASH2_PROFILES)
    parsec = statistics.fmean(p.injection_rate for p in PARSEC_PROFILES)
    assert parsec > splash2
