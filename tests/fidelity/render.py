"""Write the paper tables of EXPERIMENTS.md from the fidelity suite.

    PYTHONPATH=src python tests/fidelity/render.py

rewrites every block between ``<!-- fidelity:NAME -->`` and
``<!-- /fidelity:NAME -->``: the seven analytic artefacts from their
experiments' own rows, each row beside its entry in
:data:`tolerances.TOLERANCES`, and Figures 7-8 from ``figures.json``,
the record ``figures.py`` writes (median and range over seeds 1-5).  No
block holds a wall time, so a re-render after a fresh figure sweep
changes the document only if a result changed.  ``test_fidelity.py``
checks in tier-1 that the committed document is this script's output.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.experiments import (
    area_power,
    critical_path,
    mttf,
    spf_sweep,
    table1,
    table2,
    table3,
)
from tolerances import TOLERANCES

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
FIGURES_JSON = Path(__file__).with_name("figures.json")
ANALYTIC = (table1, table2, mttf, table3, spf_sweep, area_power, critical_path)


def _cell(value, unit: str = "") -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    text = f"{value:,.10g}" if isinstance(value, (int, float)) else str(value)
    return f"{text} {unit}" if unit else text


def _pct(x: float) -> str:
    return f"{x:+.1%}".replace("%", " %")


def analytic_block(result) -> str:
    lines = ["| quantity | paper | measured | tolerance |", "|---|---|---|---|"]
    for row in result.rows:
        tol = TOLERANCES.get((result.experiment, row.label))
        lines.append(
            f"| {row.label} | {_cell(row.paper, row.unit)} | "
            f"{_cell(row.measured, row.unit)} | {tol.describe() if tol else '—'} |"
        )
    return "\n".join(lines)


def figure_block(name: str, doc: dict) -> str:
    fig = doc[name]
    seeds = f"{doc['seeds'][0]}-{doc['seeds'][-1]}"
    lines = [
        f"| app | fault-free, median (cycles) | faulty, median (cycles) "
        f"| increase, median | increase, range over seeds {seeds} |",
        "|---|---|---|---|---|",
    ]
    for app, values in fig["apps"].items():
        inc = values["overhead"]
        lines.append(
            f"| {app} | {values['fault_free']['median']:.2f} | "
            f"{values['faulty']['median']:.2f} | {_pct(inc['median'])} | "
            f"{_pct(inc['min'])} … {_pct(inc['max'])} |"
        )
    overall = fig["overall"]
    tol = TOLERANCES[name, "overall latency increase"]
    lines += [
        f"| **overall** | | | **{_pct(overall['median'])}** "
        f"(paper: {_pct(fig['paper'])}, tolerance {tol.describe()}) | "
        f"{_pct(overall['min'])} … {_pct(overall['max'])} |",
        "",
        f"Overall increase per seed ({seeds}): "
        + ", ".join(_pct(x) for x in overall["per_seed"])
        + ".",
    ]
    return "\n".join(lines)


def blocks() -> dict[str, str]:
    out = {}
    for module in ANALYTIC:
        result = module.run()
        out[result.experiment] = analytic_block(result)
    doc = json.loads(FIGURES_JSON.read_text())
    for name in ("fig7", "fig8"):
        out[name] = figure_block(name, doc)
    return out


def render(text: str) -> str:
    """``text`` with every fidelity block rewritten."""
    for name, body in blocks().items():
        pattern = re.compile(
            rf"(<!-- fidelity:{name} -->\n).*?(<!-- /fidelity:{name} -->)", re.DOTALL
        )
        text, found = pattern.subn(lambda m: m.group(1) + body + "\n" + m.group(2), text)
        if found != 1:
            raise ValueError(f"EXPERIMENTS.md has {found} fidelity:{name} blocks, not one")
    return text


if __name__ == "__main__":
    EXPERIMENTS_MD.write_text(render(EXPERIMENTS_MD.read_text()))
