"""Workloads: synthetic patterns, traffic processes, app surrogates."""

from .._lazy import lazy_face

__getattr__, __dir__ = lazy_face(__name__, {
    "apps": "AppProfile PARSEC_PROFILES SPLASH2_PROFILES app_profile"
    " directory_home_nodes make_app_traffic suite_profiles",
    "trace": "load_trace packet_to_record record_source record_to_packet save_trace",
    "generator": "COHERENCE_MIX NullTraffic PacketClass SINGLE_FLIT_MIX"
    " SyntheticTraffic TraceTraffic",
    "patterns": "BitComplement BitReverse Hotspot Neighbor Tornado TrafficPattern"
    " Transpose UniformRandom available_patterns make_pattern",
})

__all__ = [
    "AppProfile",
    "PARSEC_PROFILES",
    "SPLASH2_PROFILES",
    "app_profile",
    "directory_home_nodes",
    "load_trace",
    "make_app_traffic",
    "packet_to_record",
    "record_source",
    "record_to_packet",
    "save_trace",
    "suite_profiles",
    "BitComplement",
    "BitReverse",
    "COHERENCE_MIX",
    "Hotspot",
    "Neighbor",
    "NullTraffic",
    "PacketClass",
    "SINGLE_FLIT_MIX",
    "SyntheticTraffic",
    "Tornado",
    "TraceTraffic",
    "TrafficPattern",
    "Transpose",
    "UniformRandom",
    "available_patterns",
    "make_pattern",
]
