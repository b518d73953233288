"""Public-API smoke tests: every subpackage imports and exports cleanly."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.config",
    "repro.core",
    "repro.router",
    "repro.network",
    "repro.faults",
    "repro.reliability",
    "repro.reliability.network_level",
    "repro.reliability.spf_simulation",
    "repro.synthesis",
    "repro.synthesis.energy",
    "repro.comparison",
    "repro.traffic",
    "repro.experiments",
    "repro.experiments.charts",
    "repro.tools",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize(
    "name",
    [
        "repro",
        "repro.core",
        "repro.router",
        "repro.network",
        "repro.faults",
        "repro.reliability",
        "repro.synthesis",
        "repro.comparison",
        "repro.traffic",
    ],
)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol}"


def test_version():
    import repro

    assert repro.__version__


class TestFacade:
    """The lazy top-level facade (see repro/__init__.py)."""

    def test_all_is_exact(self):
        """``__all__`` names each of the face's lazy names, the three eager
        configs and ``__version__`` once, and nothing else.  The lazy names
        are read in a fresh interpreter, before anything touches them."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", "import json, repro; print(json.dumps("
             "sorted(set(dir(repro)) - set(vars(repro)))))"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        lazy = set(json.loads(done.stdout))
        eager = {"NetworkConfig", "RouterConfig", "SimulationConfig", "__version__"}
        assert len(repro.__all__) == len(set(repro.__all__))
        assert set(repro.__all__) == lazy | eager
        # every name in __all__ resolves (lazily or eagerly)
        for symbol in repro.__all__:
            assert getattr(repro, symbol) is not None

    def test_lazy_names_resolve_to_canonical_objects(self):
        import repro
        from repro.experiments.parallel import PartialSweepError, run_sweep
        from repro.experiments.resilient import RetryPolicy, sweep_runtime
        from repro.network import NoCSimulator

        assert repro.run_sweep is run_sweep
        assert repro.sweep_runtime is sweep_runtime
        assert repro.RetryPolicy is RetryPolicy
        assert repro.PartialSweepError is PartialSweepError
        assert repro.NoCSimulator is NoCSimulator

    def test_dir_lists_facade(self):
        import repro

        listed = dir(repro)
        for symbol in ("NoCSimulator", "run_sweep", "sweep_runtime",
                       "CheckpointStore"):
            assert symbol in listed

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
            repro.nonsense
        # the 1.x deprecated alias went with 2.0 (use repro.config.replace)
        with pytest.raises(AttributeError, match="no attribute 'replace'"):
            repro.replace

    def test_unified_run_signature_everywhere(self):
        """Every experiment module exposes the unified entry point."""
        import inspect

        from repro.experiments.runner import EXPERIMENTS, ExperimentEntry

        for name, entry in EXPERIMENTS.items():
            assert isinstance(entry, ExperimentEntry), name
            sig = inspect.signature(entry.module.run)
            params = sig.parameters
            assert list(params)[0] == "config", name
            for kw in ("jobs", "seed", "out_dir", "resume"):
                assert kw in params, f"{name}.run lacks {kw}="
                assert params[kw].kind is inspect.Parameter.KEYWORD_ONLY, name

    def test_fault_schedule_facade_resolves_to_canonical_objects(self):
        import repro
        from repro.experiments import fault_campaign
        from repro.faults import FaultSchedule, FaultTimeline

        assert repro.FaultSchedule is FaultSchedule
        assert repro.FaultTimeline is FaultTimeline
        assert repro.CampaignConfig is fault_campaign.CampaignConfig
        assert repro.run_fault_campaign is fault_campaign.run

    def test_fault_schedule_api_signatures(self):
        """Pin the unified FaultSchedule surface (api redesign contract)."""
        import repro
        import repro.faults
        from repro.faults import FaultSchedule

        for method in ("events_at", "next_cycle", "heals_due"):
            assert hasattr(FaultSchedule, method)
        assert not hasattr(FaultSchedule, "fingerprint")  # removed in 2.1
        # removed in 2.2 with the spec registry: schedules are built by
        # calling their class or drawing function
        for gone in ("make_schedule", "schedule_spec", "register_schedule"):
            assert not hasattr(repro.faults, gone)
        with pytest.raises(AttributeError, match="no attribute 'make_schedule'"):
            repro.make_schedule

    def test_legacy_keywords_are_gone(self):
        """2.0: per-module keywords raise like any misspelled keyword."""
        from repro.experiments import spf_sweep

        for legacy in ({"vc_counts": (2, 4)}, {"vc_count": (2, 4)}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                spf_sweep.run(**legacy)


def test_public_entry_points_documented():
    """The headline classes carry docstrings (doc deliverable)."""
    from repro.core import ProtectedRouter
    from repro.network import NoCSimulator
    from repro.reliability import analyze_mttf, analyze_spf
    from repro.router import BaselineRouter

    for obj in (ProtectedRouter, NoCSimulator, BaselineRouter, analyze_mttf,
                analyze_spf):
        assert obj.__doc__ and len(obj.__doc__) > 20
