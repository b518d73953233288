"""The experiment contract, the result container and paper-vs-measured rows.

Every experiment module is a frozen config dataclass plus either a
``body(config, jobs)`` or, for a sweep, ``points(config)`` and
``report(config, results)``; its unified ``run()`` is built here by
:func:`experiment`, and :func:`resolve_config` is the one place a
request's config and ``seed=`` become the computation
(``docs/resilience.md#the-unified-experiment-api``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from . import parallel
from .resilient import sweep_runtime


def resolve_config(
    config_type: type, config: Any = None, seed: Optional[int] = None
) -> tuple[Any, Optional[int]]:
    """The config a ``run(config, seed=seed)`` call computes with.

    ``None`` is ``config_type()``; a bare config of the nested ``latency``
    field (``fig7.run(LatencyConfig(...))``) stands for ``config_type``
    holding it.  ``seed`` goes into the config's ``seed`` field, else into
    ``latency.seed``, else it is returned as the residual seed: nothing
    computes with it, the service still fingerprints it.  Every ``run()``
    and :func:`repro.service.fingerprint.effective_config` call this, so a
    request and its computation cannot disagree.
    """
    if config is None:
        config = config_type()
    elif not isinstance(config, config_type):
        nested = getattr(config_type(), "latency", None)
        if nested is None or not isinstance(config, type(nested)):
            raise TypeError(
                f"expected a {config_type.__name__}, got {type(config).__name__}"
            )
        config = config_type(latency=config)
    if seed is None:
        return config, None
    if hasattr(config, "seed"):
        return replace(config, seed=seed), None
    if hasattr(config, "latency"):
        return replace(config, latency=replace(config.latency, seed=seed)), None
    return config, seed


def experiment(config_type: type, module: str) -> Callable[..., ExperimentResult]:
    """Build the unified ``run()`` of experiment module ``module``.

    ``run(config=None, *, jobs=None, seed=None, out_dir=None, resume=None)``
    resolves ``config`` and ``seed`` with :func:`resolve_config` and
    computes inside :func:`~repro.experiments.resilient.sweep_runtime`
    (``out_dir`` / ``resume``: checkpointed, resumable).  A sweep module
    defines ``points(config) -> list[LanePoint]`` and ``report(config,
    results)``: ``run()`` makes the one
    :func:`~repro.experiments.parallel.run_lane_sweep` call between them and
    files its report as ``extras["sweep"]``.  Any other module defines
    ``body(config, jobs)``.  These functions, like ``run_lane_sweep``, are
    looked up when ``run()`` is called, so a test or the ledger can wrap
    any of them.
    """

    def run(
        config: Any = None,
        *,
        jobs: Optional[int] = None,
        seed: Optional[int] = None,
        out_dir: Optional[str] = None,
        resume: Optional[str] = None,
    ) -> ExperimentResult:
        config, _ = resolve_config(config_type, config, seed)
        mod = sys.modules[module]
        with sweep_runtime(out_dir=out_dir, resume=resume):
            if hasattr(mod, "body"):
                return mod.body(config, jobs)
            results, sweep = parallel.run_lane_sweep(mod.points(config), jobs=jobs)
            res = mod.report(config, results)
            res.extras["sweep"] = sweep
            return res

    run.__module__, run.__qualname__ = module, "run"
    return run


@dataclass
class Row:
    """One reported quantity: measured value vs the paper's value."""

    label: str
    measured: Any
    paper: Any = None
    unit: str = ""
    note: str = ""

    def relative_error(self) -> Optional[float]:
        """|measured - paper| / |paper| when both are numeric."""
        try:
            m = float(self.measured)
            p = float(self.paper)
        except (TypeError, ValueError):
            return None
        if not math.isfinite(m) or not math.isfinite(p) or p == 0:
            return None
        return abs(m - p) / abs(p)

    def format(self, width: int = 38) -> str:
        def fmt(v):
            if v is None:
                return "—"
            if isinstance(v, float):
                return f"{v:,.2f}" if abs(v) < 1e5 else f"{v:,.0f}"
            return str(v)

        rel = self.relative_error()
        relstr = f"  ({rel:+.1%} vs paper)".replace("+", "Δ") if rel is not None else ""
        unit = f" {self.unit}" if self.unit else ""
        line = (
            f"  {self.label:<{width}} measured={fmt(self.measured)}{unit}"
            f"  paper={fmt(self.paper)}{unit}{relstr}"
        )
        if self.note:
            line += f"\n      note: {self.note}"
        return line


@dataclass
class ExperimentResult:
    """Outcome of one experiment (table or figure reproduction)."""

    experiment: str
    title: str
    rows: list[Row] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    def add(
        self,
        label: str,
        measured: Any,
        paper: Any = None,
        unit: str = "",
        note: str = "",
    ) -> None:
        self.rows.append(Row(label, measured, paper, unit, note))

    def row(self, label: str) -> Row:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def format(self) -> str:
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.extend(r.format() for r in self.rows)
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.format())

    def max_relative_error(self) -> float:
        """Largest relative error among numeric rows (nan if none)."""
        errs = [r.relative_error() for r in self.rows]
        errs = [e for e in errs if e is not None]
        return max(errs) if errs else float("nan")
