"""Reliability analysis: FORC/TDDB, FIT/SOFR, MTTF, and SPF (paper
Sections VII and VIII)."""

from .._lazy import lazy_face

__getattr__, __dir__ = lazy_face(__name__, {
    "components": "Component DFF_DUTY_CYCLE arbiter comparator demux dff mux"
    " register_file",
    "forc": "DEFAULT_TDDB PAPER_FIT_PER_FET PAPER_TEMP_K PAPER_VDD TDDBParameters"
    " calibrated_parameters fit_per_fet",
    "mttf": "MTTFReport analyze_mttf mttf_from_fit mttf_two_component_exact"
    " mttf_two_component_paper protected_reliability_curve reliability_curve",
    "spf": "FaultsToFailure SPFResult StageFaultBounds analyze_spf faults_to_failure"
    " spf_vs_vc_count stage_fault_bounds",
    "stages": "FLIT_WIDTH_BITS RouterGeometry StageInventory baseline_stages"
    " correction_stages total_fit",
})

__all__ = [
    "Component",
    "DEFAULT_TDDB",
    "DFF_DUTY_CYCLE",
    "FaultsToFailure",
    "FLIT_WIDTH_BITS",
    "MTTFReport",
    "PAPER_FIT_PER_FET",
    "PAPER_TEMP_K",
    "PAPER_VDD",
    "RouterGeometry",
    "SPFResult",
    "StageFaultBounds",
    "StageInventory",
    "TDDBParameters",
    "analyze_mttf",
    "analyze_spf",
    "arbiter",
    "baseline_stages",
    "calibrated_parameters",
    "comparator",
    "correction_stages",
    "demux",
    "dff",
    "faults_to_failure",
    "fit_per_fet",
    "mttf_from_fit",
    "mttf_two_component_exact",
    "mttf_two_component_paper",
    "mux",
    "protected_reliability_curve",
    "register_file",
    "reliability_curve",
    "spf_vs_vc_count",
    "stage_fault_bounds",
    "total_fit",
]
