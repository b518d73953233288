"""Comparison fault-tolerant routers: BulletProof, Vicis, RoCo."""

from .._lazy import lazy_face

__getattr__, __dir__ = lazy_face(__name__, {
    "bulletproof": "BulletProofModel NMRUnit SparedComponent",
    "ecc_sim": "DatapathFaultyRouter ECCStudyResult run_ecc_study",
    "roco": "RoCoModel RowColumnState",
    "roco_router": "RoCoRouter roco_router_factory",
    "spf_table": "SPFRow build_spf_table proposed_router_wins",
    "vicis": "HammingSECDED VicisModel best_port_swap",
})

__all__ = [
    "BulletProofModel",
    "DatapathFaultyRouter",
    "ECCStudyResult",
    "HammingSECDED",
    "run_ecc_study",
    "NMRUnit",
    "RoCoModel",
    "RoCoRouter",
    "RowColumnState",
    "roco_router_factory",
    "SPFRow",
    "SparedComponent",
    "VicisModel",
    "best_port_swap",
    "build_spf_table",
    "proposed_router_wins",
]
