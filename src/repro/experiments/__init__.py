"""Experiment harness: one module per paper table/figure, plus extensions.

Paper artefacts:

=================  ==========================================
``table1``         Table I — baseline pipeline FIT
``table2``         Table II — correction circuitry FIT
``mttf``           Equations 4-7 — MTTF and the ~6x improvement
``table3``         Table III — SPF comparison
``spf_sweep``      Section VIII-E — SPF vs VC count
``area_power``     Section VI-A — area/power overheads
``critical_path``  Section VI-B — per-stage critical paths
``fig7``           Figure 7 — SPLASH-2 latency under faults
``fig8``           Figure 8 — PARSEC latency under faults
=================  ==========================================

Extensions beyond the paper:

=======================  ==========================================
``load_latency``         load-latency curves, fault-free vs faulty
``network_reliability``  fabric-level MTTF / mesh disconnection
``reliability_curves``   R(t) survival curves + mission times
``energy``               per-flit energy under faults
``detection_latency``    online fault observability (NoCAlert model)
``fault_sweep``          latency overhead vs fault count
``design_space``         VC/buffer provisioning trade-offs
``mttf_sensitivity``     MTTF vs temperature/voltage (TDDB)
=======================  ==========================================

Run from the command line::

    python -m repro.experiments table3
    python -m repro.experiments fig7 --quick
    python -m repro.experiments all --quick
"""

from .._lazy import lazy_face

__getattr__, __dir__ = lazy_face(__name__, {
    "report": "ExperimentResult Row",
    "runner": "EXPERIMENTS ExperimentEntry run_experiment",
})

__all__ = [
    "EXPERIMENTS",
    "ExperimentEntry",
    "ExperimentResult",
    "Row",
    "run_experiment",
]
