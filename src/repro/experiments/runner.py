"""Experiment CLI: ``python -m repro.experiments <name> [--quick] [--jobs N]``.

``all`` runs everything (the latency figures take minutes at paper scale;
``--quick`` switches them to a reduced 4x4 configuration).  ``--jobs N``
shards the sweep-shaped experiments (figures, Monte-Carlo campaigns,
load/fault/design sweeps) across N worker processes via
:mod:`repro.experiments.parallel`; results are bit-identical to a serial
run (``--jobs 0`` uses every core).

Resilience (:mod:`repro.experiments.resilient`, see ``docs/resilience.md``):
``--out-dir RUN_DIR`` checkpoints every completed sweep point (a lane
chunk's as each lane retires) to a durable run directory the moment it
finishes, filed under a hash of the bytes the sweep runs; ``--resume
RUN_DIR`` continues a killed run, re-executing only the missing points
(bit-identical to an uninterrupted run) — under other flags (seed,
``--quick``, ``--jobs``) or another release nothing matches and the run
is computed in full; ``--retries N`` retries crashed/hung points with
exponential backoff; ``--task-timeout S`` arms a per-task watchdog that
kills and replaces stuck workers.  One runtime and one run directory
serve every experiment of the run, ``all`` included.  Exit codes: 0 all
good, 1 hard failure, 3 partial success (some points completed and were
checkpointed; some exhausted their retries — rerun with ``--resume``
after fixing the cause).

Every experiment module exposes the same unified entry point::

    run(config=None, *, jobs=None, seed=None, out_dir=None, resume=None)

built from its config class by :func:`repro.experiments.report.experiment`;
the registry below names each module and its config class, imports them
when an experiment is named, and records how to build its quick/default
config object.

Observability (:mod:`repro.observability`, see ``docs/observability.md``):
``--metrics-out metrics.json`` collects the per-router counters of every
run (merged deterministically across shards and experiments) and the
merged snapshot also lands in ``ExperimentResult.extras["metrics"]``;
``--profile`` samples per-phase wall time inside each engine's loop.
``--trace-out trace.json`` writes a Chrome ``trace_event`` file loadable
in ``chrome://tracing`` / Perfetto: one ``packet`` slice per delivered
packet of every point, whichever engine ran it.

An experiment that raises — including inside a worker shard of a parallel
sweep — makes the process exit non-zero; with ``all``, the remaining
experiments still run and the failures are listed on stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .. import observability
from ..observability import merge_exports
from ..observability.report import render_text
from ..observability.trace import write_chrome_trace
from . import resilient
from .parallel import PartialSweepError
from .report import ExperimentResult


def _none(module: Any) -> None:
    return None


def _quick_suite(module: Any) -> Any:
    from .latency import QUICK_CONFIG

    return module.SuiteRunConfig(QUICK_CONFIG)


@dataclass(frozen=True)
class ExperimentEntry:
    """Registry entry: the experiment module and its config dataclass, by
    name, and its CLI config recipes.

    Listing the registry imports nothing: ``module`` imports
    ``repro.experiments.<module_name>`` when the entry is used, and
    ``config_type`` is that module's ``config_name``, the frozen dataclass
    its unified ``run()`` resolves every request into (and what
    :mod:`repro.service.fingerprint` builds JSON requests into).
    ``quick_config``/``default_config`` build the instance the CLI passes
    from the module, both defaulting to ``None`` (the config class's own
    defaults).
    """

    module_name: str
    config_name: str
    quick_config: Callable[[Any], Any] = field(default=_none)
    default_config: Callable[[Any], Any] = field(default=_none)

    @property
    def module(self) -> Any:
        return importlib.import_module(f"{__package__}.{self.module_name}")

    @property
    def config_type(self) -> type:
        return getattr(self.module, self.config_name)

    def cli_config(self, quick: bool) -> Any:
        """The config the CLI runs with (``None``: the module's defaults)."""
        return (self.quick_config if quick else self.default_config)(self.module)


#: registry of all artefacts.  Experiments that are not sweep-shaped
#: (single analytic computation) ignore ``jobs``; the analytic
#: geometry-only ones take a RouterGeometry as their whole config.
EXPERIMENTS: dict[str, ExperimentEntry] = {
    "table1": ExperimentEntry("table1", "RouterGeometry"),
    "table2": ExperimentEntry("table2", "RouterGeometry"),
    "mttf": ExperimentEntry("mttf", "MTTFConfig"),
    "table3": ExperimentEntry("table3", "Table3Config"),
    "spf_sweep": ExperimentEntry("spf_sweep", "SPFSweepConfig"),
    "area_power": ExperimentEntry("area_power", "RouterGeometry"),
    "critical_path": ExperimentEntry("critical_path", "RouterGeometry"),
    "fig7": ExperimentEntry("fig7", "SuiteRunConfig", _quick_suite),
    "fig8": ExperimentEntry("fig8", "SuiteRunConfig", _quick_suite),
    # extensions beyond the paper's artefacts
    "load_latency": ExperimentEntry(
        "load_latency",
        "LoadLatencyConfig",
        lambda m: m.LoadLatencyConfig(rates=(0.04, 0.12), measure=1500),
    ),
    "network_reliability": ExperimentEntry(
        "network_reliability",
        "NetworkReliabilityConfig",
        lambda m: m.NetworkReliabilityConfig(trials=60),
    ),
    "reliability_curves": ExperimentEntry(
        "reliability_curves", "ReliabilityCurvesConfig"
    ),
    "energy": ExperimentEntry(
        "energy",
        "EnergyConfig",
        lambda m: m.EnergyConfig(latency=m.QUICK_CONFIG),
        lambda m: m.EnergyConfig(latency=m.LatencyConfig()),
    ),
    "detection_latency": ExperimentEntry(
        "detection_latency",
        "DetectionLatencyConfig",
        lambda m: m.DetectionLatencyConfig(measure_cycles=1500),
    ),
    "fault_sweep": ExperimentEntry(
        "fault_sweep",
        "FaultSweepConfig",
        lambda m: m.FaultSweepConfig(fault_counts=(0, 8, 24)),
    ),
    "fault_campaign": ExperimentEntry(
        "fault_campaign",
        "CampaignConfig",
        lambda m: m.CampaignConfig(
            timelines=3,
            router_kinds=("baseline", "protected"),
            timeline=m.TimelineSpec(events=4, mean_interval=600.0),
        ),
    ),
    "design_space": ExperimentEntry(
        "design_space",
        "DesignSpaceConfig",
        lambda m: m.DesignSpaceConfig(
            vc_counts=(2, 4), buffer_depths=(2, 4), measure=1000
        ),
    ),
    "mttf_sensitivity": ExperimentEntry(
        "mttf_sensitivity", "MTTFSensitivityConfig"
    ),
}


def run_experiment(
    name: str,
    quick: bool = False,
    jobs: Optional[int] = None,
    *,
    seed: Optional[int] = None,
    out_dir: Optional[str] = None,
    resume: Optional[str] = None,
) -> ExperimentResult:
    try:
        entry = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return entry.module.run(
        entry.cli_config(quick),
        jobs=jobs,
        seed=seed,
        out_dir=out_dir,
        resume=resume,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced configuration for the simulation-heavy experiments",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep-shaped experiments "
        "(default: serial; 0 = all cores; results are bit-identical "
        "to a serial run)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the experiment's base seed (unified API seed=)",
    )
    parser.add_argument(
        "--out-dir",
        metavar="RUN_DIR",
        default=None,
        help="checkpoint every completed sweep point into RUN_DIR "
        "(durable, append-only, filed by what the sweep runs; 'all' "
        "shares one RUN_DIR; see docs/resilience.md)",
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_DIR",
        default=None,
        help="continue a killed run from its RUN_DIR: completed points "
        "are reloaded from the checkpoint, only the missing ones are "
        "re-executed (bit-identical to an uninterrupted run); a sweep "
        "under other flags finds none and runs in full",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a crashed/hung sweep point up to N times with "
        "exponential backoff before recording it as failed "
        "(default: 2 when a resilience flag is used)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task watchdog: a task running longer is killed, its "
        "worker replaced, and its unrecorded points retried per --retries",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="collect the observability metrics registry and write the "
        "merged (shard-order-independent) snapshot as JSON",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="record one event per delivered packet and write a Chrome "
        "trace_event JSON file (load in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=None,
        metavar="N",
        help="events retained per simulation in the trace ring buffer "
        f"(default {observability.ObservabilityConfig().trace_capacity})",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="sample per-phase wall time inside each engine's loop and "
        "print the breakdown",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.trace_capacity is not None and args.trace_capacity < 1:
        parser.error("--trace-capacity must be >= 1")
    if args.out_dir and args.resume:
        parser.error("--out-dir starts a fresh run; --resume continues one "
                      "(checkpointing continues into the same RUN_DIR) — "
                      "pass only one of them")
    if args.retries is not None and args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error("--task-timeout must be > 0")

    obs_changes: dict = {}
    if args.metrics_out:
        obs_changes["metrics"] = True
    if args.trace_out:
        obs_changes["trace"] = True
    if args.trace_capacity is not None:
        obs_changes["trace_capacity"] = args.trace_capacity
    if args.profile:
        obs_changes["profile"] = True
    if obs_changes:
        observability.configure(**obs_changes)

    resilient_flags = (
        args.retries is not None
        or args.task_timeout is not None
        or args.out_dir is not None
        or args.resume is not None
    )
    # the runtime every experiment runs under: the outermost activation
    # wins, so the experiment's own sweep_runtime() does nothing
    retry = None
    if resilient_flags:
        retries = args.retries if args.retries is not None else 2
        retry = resilient.RetryPolicy(
            max_attempts=retries + 1, timeout_s=args.task_timeout
        )

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failures: list[str] = []
    partials: list[str] = []
    collected: list = []  # (label, export) pairs across experiments
    with ExitStack() as stack:
        try:
            stack.enter_context(resilient.sweep_runtime(
                out_dir=args.out_dir, resume=args.resume, retry=retry
            ))
        except resilient.ResumeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for name in names:
            t0 = time.time()
            try:
                result = run_experiment(
                    name, quick=args.quick, jobs=args.jobs, seed=args.seed
                )
            except PartialSweepError as exc:
                partials.append(name)
                print(f"experiment {name} PARTIAL:", file=sys.stderr)
                print(exc.report.format(), file=sys.stderr)
                continue
            except Exception as exc:
                failures.append(name)
                print(f"experiment {name} FAILED: {exc}", file=sys.stderr)
                continue
            sweep_report = result.extras.get("sweep")
            merged = getattr(sweep_report, "observability", None)
            if merged is not None:
                result.extras["metrics"] = merged.get("metrics")
                collected.extend(
                    (f"{name}:{label}" if label else name, {"trace": snap})
                    for label, snap in merged.get("traces") or []
                )
                if merged.get("metrics"):
                    collected.append((name, {"metrics": merged["metrics"]}))
                if merged.get("profile"):
                    collected.append((name, {"profile": merged["profile"]}))
            print(result.format())
            chart = result.extras.get("chart")
            if chart:
                print()
                print(chart)
            if sweep_report is not None and (args.jobs is not None or resilient_flags):
                print(f"  {sweep_report.format()}")
            print(f"  [{time.time() - t0:.1f}s]\n")

    if obs_changes:
        merged_all = merge_exports(collected) or {
            "metrics": None, "traces": [], "profile": None,
        }
        print(render_text(merged_all))
        if args.metrics_out:
            with open(args.metrics_out, "w") as fp:
                json.dump(merged_all.get("metrics"), fp, sort_keys=True, indent=2)
            print(f"  metrics written to {args.metrics_out}")
        if args.trace_out:
            with open(args.trace_out, "w") as fp:
                n = write_chrome_trace(
                    fp,
                    [
                        (label, snap["trace"]["events"])
                        for label, snap in collected
                        if snap.get("trace")
                    ],
                )
            print(f"  {n} trace events written to {args.trace_out}")

    if failures:
        print(
            f"{len(failures)} experiment(s) failed: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    if partials:
        run_dir = args.resume or args.out_dir
        hint = f" — rerun with --resume {run_dir}" if run_dir else ""
        print(
            f"{len(partials)} experiment(s) partially completed: "
            f"{', '.join(partials)}{hint}",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
