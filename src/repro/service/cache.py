"""Persistent content-addressed result store (:class:`ResultCache`).

The queryable generalization of the resilient runtime's
:class:`~repro.experiments.resilient.CheckpointStore`: where the
checkpoint store remembers *partial* progress of one run directory so a
killed sweep can resume, the result cache remembers *finished*
experiments forever, keyed by their request fingerprint
(:mod:`repro.service.fingerprint`).  It shares the checkpoint store's
durability primitive — :func:`~repro.experiments.resilient.atomic_write_json`,
write-to-temp + :func:`os.replace` — so readers never observe a torn
entry, and adds what a cache needs on top:

* **content addressing** — one JSON file per fingerprint, sharded by the
  first two hex chars (``entries/ab/abcd….json``), so lookups are one
  ``open()`` and the store needs no index to rebuild;
* **fingerprint-validated reads** — every entry embeds the canonical
  request it answers plus a SHA-256 digest of its result payload; a read
  recomputes both and treats any mismatch (bit rot, truncation, manual
  tampering, a hash-scheme change) as a **miss**: the poisoned entry is
  deleted and the experiment recomputed, never served.  Validation is a
  pure function of the bytes read, so its verdict is memoised on them:
  every read still reads the file, and bytes equal to the ones last
  validated under that fingerprint return that validated entry, while
  any other bytes (a rewrite, a tamper, a delete) are validated in full.
  The memo is per cache object and holds at most ``_MEMO_ENTRIES``
  entries and ``_MEMO_BYTES`` bytes of entry files;
* **exact determinism as the correctness argument** — same fingerprint
  ⇒ bit-identical result (PRs 1–6), so serving a validated entry is
  indistinguishable from recomputing it;
* **bounded growth for long-lived deployments** — optional
  ``max_bytes``/``max_entries`` budgets enforced LRU-wise after every
  write: a validated read touches its entry's mtime, so recency survives
  process restarts and needs no sidecar index.  Because a hit is
  bit-identical to recomputing, eviction only ever costs wall time,
  never correctness.
"""

from __future__ import annotations

import json
import os
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, Hashable, Iterator, Optional, Tuple

from ..experiments.resilient import atomic_write_json
from .fingerprint import canonical_json

__all__ = [
    "BadFingerprintError",
    "BoundedMemo",
    "CacheEntry",
    "PoisonedEntryError",
    "ResultCache",
    "payload_digest",
]

_ENTRY_VERSION = 1
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")

#: bound of each cache's validated-entry memo: entries, and bytes of the
#: entry files it holds
_MEMO_ENTRIES = 128
_MEMO_BYTES = 4 << 20


class PoisonedEntryError(RuntimeError):
    """A stored entry failed validation (corrupt, truncated, or forged)."""


class BadFingerprintError(ValueError):
    """A name that is not a fingerprint (64 lowercase hex chars) and so
    names no entry: refused before it reaches a path."""


class BoundedMemo:
    """A least-recently-used map bounded by a count and by a byte total.

    :meth:`put` names the bytes each value holds; a value over the whole
    byte budget is not kept.  Only exact keys hit: what a memo maps is a
    pure function of its key, so a hit is the value a fresh derivation
    would produce.
    """

    def __init__(self, max_items: int, max_bytes: int) -> None:
        self.max_items = max_items
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._items: OrderedDict[Hashable, Tuple[Any, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def get(self, key: Hashable) -> Any:
        """The value stored under ``key`` (now the most recent), or ``None``."""
        item = self._items.get(key)
        if item is None:
            return None
        self._items.move_to_end(key)
        return item[0]

    def put(self, key: Hashable, value: Any, nbytes: int) -> None:
        self.pop(key)
        if nbytes > self.max_bytes:
            return
        self._items[key] = (value, nbytes)
        self.nbytes += nbytes
        while len(self._items) > self.max_items or self.nbytes > self.max_bytes:
            _, (_, dropped) = self._items.popitem(last=False)
            self.nbytes -= dropped

    def pop(self, key: Hashable) -> None:
        item = self._items.pop(key, None)
        if item is not None:
            self.nbytes -= item[1]


def payload_digest(result: Any) -> str:
    """SHA-256 of the canonical JSON encoding of a result payload."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One validated cache record, as stored on disk.

    ``request`` is the canonical form of the resolved config (class tag
    + every semantic field — see :func:`repro.service.fingerprint.canonical`),
    ``result`` the JSON rendering of the :class:`ExperimentResult`, and
    ``compute`` non-semantic provenance (wall time, sweep shape) that is
    deliberately excluded from ``sha256``'s coverage — it describes the
    one computation that produced the entry, not the answer itself.
    ``digest`` is ``payload_digest(result)`` when whoever built the entry
    has already computed it (a validated read has, to check the file);
    :meth:`to_json` hashes the payload itself only when it is ``None``.
    """

    fingerprint: str
    experiment: str
    request: Any
    result: Dict[str, Any]
    compute: Dict[str, Any]
    digest: Optional[str] = field(default=None, compare=False)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": _ENTRY_VERSION,
            "fingerprint": self.fingerprint,
            "experiment": self.experiment,
            "request": self.request,
            "result": self.result,
            "compute": self.compute,
            "sha256": self.digest or payload_digest(self.result),
        }


class ResultCache:
    """Durable fingerprint -> :class:`CacheEntry` store with validated reads.

    All mutations are atomic (temp file + rename); concurrent readers of
    an entry being replaced see either the old or the new version.  The
    ``poisoned`` counter tallies entries that failed validation and were
    evicted — the server surfaces it as ``service.cache_poisoned``.

    ``max_bytes``/``max_entries`` (``None`` = unbounded) cap the store:
    after every :meth:`put` the least-recently-used entries are deleted
    until both budgets hold, never touching the entry just written.
    Recency is the entry file's mtime — refreshed by every validated
    :meth:`get` hit — so the LRU order is durable across restarts.  The
    ``evicted`` counter tallies budget evictions (the server surfaces it
    as ``service.cache_evicted``); poisoned deletions count separately.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.poisoned = 0
        self.evicted = 0
        #: fingerprint -> (entry file bytes, the entry they validated to)
        self._validated = BoundedMemo(_MEMO_ENTRIES, _MEMO_BYTES)

    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> Path:
        """Where ``fingerprint``'s entry lives; :class:`BadFingerprintError`
        for anything but 64 lowercase hex chars, so no name a client sends
        can reach a path outside ``entries/``."""
        if not _FINGERPRINT.fullmatch(fingerprint):
            raise BadFingerprintError(f"not a fingerprint: {fingerprint!r:.80}")
        return self.entries_dir / fingerprint[:2] / f"{fingerprint}.json"

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.entries_dir.glob("??/*.json"))

    # ------------------------------------------------------------------
    def put(self, entry: CacheEntry) -> Path:
        """Durably store ``entry`` (atomic write; replaces any old entry).

        With a budget configured, evicts least-recently-used entries
        afterwards until the store fits; the entry just written is never
        evicted, even when it alone exceeds ``max_bytes``.
        """
        path = self.path_for(entry.fingerprint)
        self._validated.pop(entry.fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, entry.to_json(), sort_keys=True, indent=1)
        if self.max_bytes is not None or self.max_entries is not None:
            self.enforce_budget(protect=entry.fingerprint)
        return path

    def get(self, fingerprint: str) -> Optional[CacheEntry]:
        """Validated read: a poisoned entry is evicted and reported a miss.

        Validation re-derives everything the entry claims: the JSON must
        parse, carry the supported version, name the fingerprint it is
        filed under, and its result payload must hash to the recorded
        digest.  Failing any check means the bytes on disk are not the
        bytes the computation wrote — serving them would break the
        "cache hit == recomputation" contract, so the entry is deleted
        and the caller recomputes.

        The file is read on every call.  Bytes equal to the ones last
        validated under ``fingerprint`` return that validation's entry (the
        verdict is a function of the fingerprint and the bytes alone); any
        other bytes are validated in full.
        """
        path = self.path_for(fingerprint)
        try:
            raw = path.read_bytes()
        except OSError:  # FileNotFoundError included: a plain miss
            self._validated.pop(fingerprint)
            return None
        memo = self._validated.get(fingerprint)
        if memo is not None and memo[0] == raw:
            entry = memo[1]
        else:
            try:
                entry = self._validate(fingerprint, raw)
            except PoisonedEntryError:
                self._validated.pop(fingerprint)
                self.poisoned += 1
                try:
                    path.unlink()
                except OSError:  # pragma: no cover — already evicted
                    pass
                return None
            self._validated.put(fingerprint, (raw, entry), len(raw))
        try:
            os.utime(path)  # refresh LRU recency (best-effort)
        except OSError:  # pragma: no cover — raced with eviction
            pass
        return entry

    def _validate(self, fingerprint: str, raw: bytes) -> CacheEntry:
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise PoisonedEntryError(f"undecodable entry: {exc}") from exc
        if not isinstance(data, dict):
            raise PoisonedEntryError("entry is not an object")
        if data.get("version") != _ENTRY_VERSION:
            raise PoisonedEntryError(
                f"unsupported entry version {data.get('version')!r}"
            )
        if data.get("fingerprint") != fingerprint:
            raise PoisonedEntryError(
                f"entry claims fingerprint {data.get('fingerprint')!r} but "
                f"is filed under {fingerprint!r}"
            )
        result = data.get("result")
        if not isinstance(result, dict):
            raise PoisonedEntryError("entry has no result payload")
        digest = payload_digest(result)
        if data.get("sha256") != digest:
            raise PoisonedEntryError(
                "result payload digest mismatch: entry records "
                f"{data.get('sha256')!r}, payload hashes to {digest!r}"
            )
        return CacheEntry(
            fingerprint=fingerprint,
            experiment=str(data.get("experiment", "")),
            request=data.get("request"),
            result=result,
            compute=dict(data.get("compute") or {}),
            digest=digest,
        )

    # ------------------------------------------------------------------
    def enforce_budget(self, protect: Optional[str] = None) -> int:
        """Delete least-recently-used entries until both budgets hold.

        Returns the number of entries deleted (also accumulated into
        ``evicted``).  ``protect`` names one fingerprint that is never
        deleted — :meth:`put` passes the entry it just wrote, so a
        budget smaller than a single entry degrades to "keep only the
        latest", not to an always-empty cache.  One directory scan per
        call, no sidecar index to maintain or corrupt; mtime ties break
        by path so the order is deterministic.
        """
        infos: list[tuple[int, str, Path, int]] = []
        total = 0
        for path in self.entries_dir.glob("??/*.json"):
            try:
                st = path.stat()
            except OSError:  # pragma: no cover — raced with a delete
                continue
            infos.append((st.st_mtime_ns, path.name, path, st.st_size))
            total += st.st_size
        count = len(infos)
        infos.sort()
        deleted = 0
        for _, _, path, size in infos:
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            over_entries = (
                self.max_entries is not None and count > self.max_entries
            )
            if not (over_bytes or over_entries):
                break
            if protect is not None and path.stem == protect:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover — raced with a delete
                continue
            total -= size
            count -= 1
            deleted += 1
        self.evicted += deleted
        return deleted

    # ------------------------------------------------------------------
    def fingerprints(self) -> Iterator[str]:
        """All stored fingerprints (unvalidated — validation is on read);
        a file whose name is not a fingerprint is not an entry."""
        for path in sorted(self.entries_dir.glob("??/*.json")):
            if _FINGERPRINT.fullmatch(path.stem):
                yield path.stem

    def index(self) -> Dict[str, str]:
        """fingerprint -> experiment-name map of every *valid* entry."""
        out: Dict[str, str] = {}
        for fp in self.fingerprints():
            entry = self.get(fp)
            if entry is not None:
                out[fp] = entry.experiment
        return out


def make_entry(
    fingerprint: str,
    experiment: str,
    config: Any,
    result: Dict[str, Any],
    compute: Dict[str, Any],
) -> CacheEntry:
    """Assemble the entry for a freshly computed result."""
    return CacheEntry(
        fingerprint=fingerprint,
        experiment=experiment,
        request=json.loads(canonical_json(config)),
        result=result,
        compute=compute,
    )
