"""Shared experiment-result container and paper-vs-measured formatting.

Also home to the ``seed=`` override (:func:`override_seed`) of the
unified experiment entry points (``docs/resilience.md#unified-run-api``)
— the one module all experiment modules already import.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Optional


def override_seed(config: Any, seed: Optional[int]) -> Any:
    """Apply the unified API's ``seed=`` override to a config object.

    Returns ``config`` with its ``seed`` field replaced when the config
    is a dataclass that has one and ``seed`` is not None; otherwise the
    config unchanged (analytic experiments have no randomness to seed).
    """
    if seed is None or config is None:
        return config
    if dataclasses.is_dataclass(config) and any(
        f.name == "seed" for f in dataclasses.fields(config)
    ):
        return dataclasses.replace(config, seed=seed)
    return config


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
