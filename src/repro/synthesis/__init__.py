"""Gate-level area/power/critical-path proxy (Cadence 45 nm substitute)."""

from .._lazy import lazy_face

__getattr__, __dir__ = lazy_face(__name__, {
    "area": "AreaReport analyze_area area_overhead area_overhead_vs_vcs",
    "gates": "AREA_PER_TRANSISTOR_UM2 Block DEFAULT_ACTIVITY GATE_DELAYS_PS gate_delay",
    "netlists": "DETECTION_AREA_FRACTION DETECTION_POWER_FRACTION RouterNetlist"
    " baseline_netlist correction_netlist detection_netlist vc_state_field_bits",
    "power": "PowerReport analyze_power power_overhead",
    "timing": "CriticalPathReport StagePath analyze_critical_path baseline_paths"
    " protected_paths",
})

__all__ = [
    "AREA_PER_TRANSISTOR_UM2",
    "AreaReport",
    "Block",
    "CriticalPathReport",
    "DEFAULT_ACTIVITY",
    "DETECTION_AREA_FRACTION",
    "DETECTION_POWER_FRACTION",
    "GATE_DELAYS_PS",
    "PowerReport",
    "RouterNetlist",
    "StagePath",
    "analyze_area",
    "analyze_critical_path",
    "analyze_power",
    "area_overhead",
    "area_overhead_vs_vcs",
    "baseline_netlist",
    "baseline_paths",
    "correction_netlist",
    "detection_netlist",
    "gate_delay",
    "power_overhead",
    "protected_paths",
    "vc_state_field_bits",
]
