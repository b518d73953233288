"""Canonical experiment-request fingerprints (the cache key).

A service request names an experiment plus an optional config.  This
module turns that pair into a **content fingerprint** with three
properties the cache and the in-flight deduplicator rely on:

* **Canonical.**  The JSON config dict is first built into the
  experiment's frozen config dataclass (:func:`build_config`) and then
  re-serialized field by field in sorted-key order
  (:func:`canonical`), so spelling differences in the request — key
  order, lists vs tuples, an explicitly-spelled default vs an omitted
  field vs a ``null`` field vs ``config: null`` — all collapse to the
  same bytes.
* **Semantic-only.**  Execution knobs that are *bit-identity neutral*
  never reach the fingerprint: ``jobs`` (``tests/test_parallel.py``
  pins serial == parallel), ``stream``, retry policy, checkpoint
  directories.  Two requests that differ only in those fields hash
  identically and share one cache entry (:data:`NON_SEMANTIC_KEYS`).
* **Complete.**  Every semantic field of the config dataclass is
  hashed, including nested dataclasses (``FaultSweepConfig.latency``,
  ``MTTFConfig.geom``, …), the ``seed`` override and the release
  (``repro.__version__``) — any change that could change the simulated
  result changes the fingerprint.

Determinism makes this sound: PRs 1–6 pinned every experiment to be a
pure function of its config (serial == parallel == resumed == event
engine == reference stepper, all bit-identical), so one fingerprint maps
to exactly one result and a cache hit is indistinguishable from a
recomputation.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from hashlib import sha256
from typing import Any, Dict, Iterator, Mapping, Optional

from .. import __version__
from ..experiments.report import resolve_config
from ..experiments.runner import EXPERIMENTS

__all__ = [
    "CONFIG_TYPES",
    "NON_SEMANTIC_KEYS",
    "RequestError",
    "build_config",
    "canonical",
    "canonical_json",
    "effective_config",
    "request_fingerprint",
]


class RequestError(ValueError):
    """A request names an unknown experiment / malformed config."""


class _ConfigTypes(Mapping[str, type]):
    """Experiment name -> its unified-API config dataclass, read off the
    experiment registry one name at a time: listing or testing names
    imports no experiment, looking one up imports that one."""

    def __getitem__(self, name: str) -> type:
        return EXPERIMENTS[name].config_type

    def __contains__(self, name: object) -> bool:
        return name in EXPERIMENTS

    def __iter__(self) -> Iterator[str]:
        return iter(EXPERIMENTS)

    def __len__(self) -> int:
        return len(EXPERIMENTS)


CONFIG_TYPES: Mapping[str, type] = _ConfigTypes()

#: request keys that never affect the computed result (and therefore
#: never reach the fingerprint): parallelism is a pure wall-clock knob
#: (serial == parallel, bit-identical), streaming is a transport choice
NON_SEMANTIC_KEYS = frozenset({"jobs", "stream"})

_SCALARS = (int, float, str, bool)


def _unwrap_optional(tp: Any) -> Any:
    """``Optional[X]``/``X | None`` -> ``X`` (unions beyond that kept)."""
    origin = typing.get_origin(tp)
    if origin is typing.Union or origin is getattr(types, "UnionType", None):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return tp


@functools.cache
def _field_types(cls: type) -> Mapping[str, Any]:
    """Field name -> resolved (PEP 563-safe, ``Optional`` unwrapped) type.

    Memoised per config class (``get_type_hints`` compiles every string
    annotation again on each call); the map is shared — never mutate it.
    """
    try:
        hints = typing.get_type_hints(cls)
    except Exception:  # pragma: no cover — unresolvable forward ref
        hints = {f.name: f.type for f in dataclasses.fields(cls)}
    return {
        f.name: _unwrap_optional(hints.get(f.name, Any))
        for f in dataclasses.fields(cls)
    }


def build_config(name: str, data: Any) -> Any:
    """Build experiment ``name``'s frozen config dataclass from JSON.

    ``data`` maps field names to values; nested dataclass fields accept
    nested dicts, tuple fields accept JSON lists.  ``None``/``{}`` mean
    "the experiment's defaults", and a ``null`` field means that field's
    default.  Unknown experiments, unknown fields, uncoercible values and
    configs the experiment cannot compute (its ``__post_init__`` raises)
    raise :class:`RequestError` (the server maps it to HTTP 400).
    """
    cls = CONFIG_TYPES.get(name)
    if cls is None:
        raise RequestError(
            f"unknown experiment {name!r}; available: {sorted(CONFIG_TYPES)}"
        )
    if data is None or (isinstance(data, Mapping) and not data):
        return None
    return _build(cls, data, where=name)


def _build(cls: type, data: Mapping[str, Any], where: str) -> Any:
    if not isinstance(data, Mapping):
        raise RequestError(
            f"{where}: expected an object for {cls.__name__}, "
            f"got {type(data).__name__}"
        )
    types = _field_types(cls)
    unknown = set(data) - set(types)
    if unknown:
        raise RequestError(
            f"{where}: unknown {cls.__name__} field(s) {sorted(unknown)}; "
            f"valid fields: {sorted(types)}"
        )
    kwargs: Dict[str, Any] = {
        key: _coerce(raw, types[key], f"{where}.{key}")
        for key, raw in data.items()
        if raw is not None
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"{where}: invalid {cls.__name__}: {exc}") from exc


def _coerce(value: Any, tp: Any, where: str) -> Any:
    """``value`` as a field of declared type ``tp``, or :class:`RequestError`.

    An ``int`` takes a non-bool int, a ``float`` an int or a float (stored
    as a float, so ``1`` and ``1.0`` are one config and one fingerprint),
    ``str`` and ``bool`` exactly their type, a tuple a list of its element
    type, and a nested config an object.
    """
    if dataclasses.is_dataclass(tp) and isinstance(tp, type):
        if isinstance(value, tp):
            return value
        return _build(tp, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise RequestError(f"{where}: expected a list, got {type(value).__name__}")
        item, _ = typing.get_args(tp)  # every tuple field is ``tuple[X, ...]``
        return tuple(_coerce(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    if type(value) is tp:
        return value
    if tp is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:  # beyond any float
            pass
    name = getattr(tp, "__name__", repr(tp))
    raise RequestError(f"{where}: expected {name}, got {type(value).__name__} {value!r:.60}")


def canonical(obj: Any) -> Any:
    """Recursively reduce a config object to JSON-ready builtins.

    Dataclasses become ``{"__config__": ClassName, **fields}`` dicts (the
    class tag keeps two structurally-identical but differently-typed
    configs apart), tuples become lists, and ``-0.0`` becomes ``0.0`` (the
    two are ``==``, so one config).  Raises :class:`RequestError`
    on anything that cannot be represented — an unhashable config must
    not silently collide.
    """
    if type(obj) is float and obj == 0.0:
        return 0.0
    if obj is None or isinstance(obj, _SCALARS):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__config__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, Mapping):
        return {str(k): canonical(obj[k]) for k in sorted(obj)}
    raise RequestError(
        f"config value {obj!r} ({type(obj).__name__}) is not fingerprintable"
    )


def canonical_json(obj: Any) -> str:
    """The canonical bytes that get hashed (also stored in cache entries)."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def effective_config(
    name: str,
    config: Any = None,
    *,
    quick: bool = False,
    seed: Optional[int] = None,
) -> tuple[Any, Optional[int]]:
    """Resolve a request to the exact config object ``run()`` computes with.

    Applies the same defaulting the CLI does — ``quick`` selects the
    registry's quick config for an empty request config — then
    :func:`~repro.experiments.report.resolve_config`, the resolver every
    ``run()`` applies: the config class's defaults for a missing config,
    and ``seed`` folded into the config's ``seed`` field or else its
    ``latency.seed``.  Returns ``(config, residual_seed)`` where
    ``residual_seed`` is non-None only for configs with neither (it is
    still passed to ``run(seed=...)`` and still fingerprinted).

    Resolving *before* fingerprinting is what makes ``config: null``,
    ``config: {}`` and an explicitly-spelled all-defaults config hash
    identically: they are the same computation.
    """
    if not dataclasses.is_dataclass(config):
        config = build_config(name, config)
    if config is None:
        config = EXPERIMENTS[name].cli_config(quick)
    return resolve_config(CONFIG_TYPES[name], config, seed)


def request_fingerprint(
    name: str, config: Any, *, seed: Optional[int] = None
) -> str:
    """Content fingerprint (64 hex chars) of one resolved request.

    ``config`` must already be the *effective* config object (see
    :func:`effective_config`); ``seed`` is the residual seed for configs
    that have no seed field.  Same fingerprint ⇒ bit-identical result.
    The release (``repro.__version__``) is hashed too: a result is a
    function of the code that computed it, so a server of another release
    never serves this one's entries.
    """
    if name not in CONFIG_TYPES:
        raise RequestError(
            f"unknown experiment {name!r}; available: {sorted(CONFIG_TYPES)}"
        )
    payload = {
        "release": __version__,
        "experiment": name,
        "config": canonical(config),
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()
