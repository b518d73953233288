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

from .._lazy import lazy_face

#: resolved on first touch: importing the package, or
#: :mod:`repro.service.client` through it, loads no simulator
__getattr__, __dir__ = lazy_face(__name__, {
    "cache": "CacheEntry ResultCache",
    "client": "ServiceClient ServiceError wait_ready",
    "fingerprint": "CONFIG_TYPES build_config canonical effective_config"
    " request_fingerprint",
    "server": "SweepService",
})

__all__ = [
    "CONFIG_TYPES",
    "CacheEntry",
    "ResultCache",
    "ServiceClient",
    "ServiceError",
    "SweepService",
    "build_config",
    "canonical",
    "effective_config",
    "request_fingerprint",
    "wait_ready",
]
