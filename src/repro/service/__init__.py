"""Sweep-as-a-service: an async results server with a content-addressed cache.

The production framing of the reproduction (see ``ROADMAP.md``): instead
of every caller re-simulating the paper's fig7/fig8-style experiments,
an asyncio HTTP server (:mod:`repro.service.server`) accepts experiment
configs as JSON, canonicalizes them into the existing frozen config
dataclasses (:mod:`repro.service.fingerprint`), and keys everything on
their content fingerprints:

* a completed request is served from a persistent content-addressed
  :class:`~repro.service.cache.ResultCache` — sound by construction,
  because PRs 1–6 made every experiment exactly deterministic (same
  fingerprint ⇒ bit-identical result);
* identical requests *in flight* are deduplicated: N concurrent clients
  asking for the same fingerprint share one computation;
* cache misses fan out onto the resilient sweep runtime
  (:mod:`repro.experiments.resilient` — supervised workers, retries,
  watchdogs), and completed sweep points stream back to clients as
  NDJSON chunks while the sweep is still running.

Run it with ``python -m repro.service``; drive it with the stdlib-only
async client in :mod:`repro.service.client`.  See ``docs/service.md``.
"""

#: exported name -> submodule, resolved on first touch (PEP 562): importing
#: the package, or :mod:`repro.service.client` through it, loads no simulator
_LAZY = {
    "CONFIG_TYPES": "fingerprint",
    "CacheEntry": "cache",
    "ResultCache": "cache",
    "ServiceClient": "client",
    "ServiceError": "client",
    "SweepService": "server",
    "build_config": "fingerprint",
    "canonical": "fingerprint",
    "effective_config": "fingerprint",
    "request_fingerprint": "fingerprint",
    "wait_ready": "client",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    import importlib

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value
