"""The paper's contribution: the multi-fault-tolerant protected router."""

from .._lazy import lazy_face

__getattr__, __dir__ = lazy_face(__name__, {
    "failure": "baseline_router_failed failed_stages protected_router_failed"
    " rc_port_failed sa_port_failed va2_output_failed va_port_failed xb_output_failed",
    "ft_crossbar": "SecondaryPathCrossbar demux_fanouts max_tolerable_mux_faults"
    " reachable_outputs_exact secondary_source",
    "ft_rc": "DuplicatedRCUnit",
    "ft_sa": "BypassSAUnit",
    "ft_va": "ArbiterSharingVAUnit",
    "protected_router": "ProtectedRouter protected_router_factory",
})

__all__ = [
    "ArbiterSharingVAUnit",
    "BypassSAUnit",
    "DuplicatedRCUnit",
    "ProtectedRouter",
    "SecondaryPathCrossbar",
    "baseline_router_failed",
    "demux_fanouts",
    "failed_stages",
    "max_tolerable_mux_faults",
    "protected_router_factory",
    "protected_router_failed",
    "rc_port_failed",
    "reachable_outputs_exact",
    "sa_port_failed",
    "secondary_source",
    "va2_output_failed",
    "va_port_failed",
    "xb_output_failed",
]
