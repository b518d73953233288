"""Tests for the sweep-as-a-service layer (:mod:`repro.service`).

Three groups:

* **cache-key soundness** — the fingerprint must ignore exactly the
  non-semantic fields (``jobs``, ``stream``, spelling differences) and
  react to every semantic one (any config field, nested or not, and the
  seed);
* **ResultCache** — atomic persistence, fingerprint-validated reads,
  poisoned-entry eviction;
* **server end-to-end** — an in-process asyncio server driven by the
  stdlib client: cold compute, warm hit, in-flight dedup, streaming,
  poisoning recovery, and error paths;
* **connections** — persistence and when either side ends it, the
  client's retry on a connection dropped while idle, malformed request
  heads, and shutdown, driven by the client and by raw sockets.
"""

import asyncio
import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fault_sweep import FaultSweepConfig
from repro.experiments.latency import QUICK_CONFIG, LatencyConfig
from repro.service import (
    ResultCache,
    ServiceClient,
    ServiceError,
    SweepService,
    build_config,
    effective_config,
    request_fingerprint,
)
from repro.service import cache as cache_module
from repro.service import fingerprint as fingerprint_module
from repro.service import server as server_module
from repro.service.cache import BadFingerprintError, make_entry, payload_digest
from repro.service.fingerprint import CONFIG_TYPES, RequestError, canonical

#: a deliberately tiny fault sweep: two points, sub-second each
TINY = {
    "fault_counts": [0, 2],
    "latency": {
        "width": 4,
        "height": 4,
        "warmup_cycles": 50,
        "measure_cycles": 300,
        "drain_cycles": 500,
        "num_faults": 8,
    },
}


#: every JSON value, NaN and the infinities aside (refused at parse)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _field_paths():
    """(experiment, path) for every field of every registered config, one
    nested config deep."""
    paths = []
    for name, cls in sorted(CONFIG_TYPES.items()):
        for key, tp in fingerprint_module._field_types(cls).items():
            paths.append((name, (key,)))
            if dataclasses.is_dataclass(tp):
                paths += [(name, (key, sub)) for sub in fingerprint_module._field_types(tp)]
    return paths


def _respell(value):
    """An ``==`` value of another JSON type where there is one: ``true`` ->
    ``1``, ``1`` -> ``1.0``, ``1.0`` -> ``1``."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and float(value) == value:
        return float(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, list):
        return [_respell(v) for v in value]
    if isinstance(value, dict):
        return {k: _respell(v) for k, v in value.items()}
    return value


def _nest(path, value):
    for key in reversed(path):
        value = {key: value}
    return value


def _fp(name, config=None, seed=None, quick=False):
    cfg, residual = effective_config(name, config, quick=quick, seed=seed)
    return request_fingerprint(name, cfg, seed=residual)


def _src_env():
    """The environment of a subprocess that imports this checkout's ``repro``."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def test_importing_the_client_loads_no_simulator():
    """``repro.service`` resolves its exports on first touch, so the
    stdlib-only client is stdlib-only to import as well."""
    code = (
        "import sys; from repro.service.client import ServiceClient; "
        "import repro.service as s; assert s.ServiceClient is ServiceClient; "
        "bad = [m for m in sys.modules if m.split('.')[0] == 'numpy' "
        "or m.startswith('repro.experiments')]; assert not bad, bad; "
        "assert s.SweepService and 'numpy' in sys.modules"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), timeout=60,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# cache-key soundness
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_spelling_differences_hash_identically(self):
        """Key order, list-vs-tuple, dict-vs-dataclass: same key."""
        a = _fp("fault_sweep", TINY)
        reordered = {k: TINY[k] for k in reversed(list(TINY))}
        assert _fp("fault_sweep", reordered) == a
        as_dataclass = FaultSweepConfig(
            fault_counts=(0, 2),
            latency=LatencyConfig(
                width=4, height=4, warmup_cycles=50, measure_cycles=300,
                drain_cycles=500, num_faults=8,
            ),
        )
        assert _fp("fault_sweep", as_dataclass) == a

    def test_explicit_defaults_equal_omitted_fields(self):
        """config: null == config: {} == all-defaults spelled out."""
        base = _fp("load_latency")
        assert _fp("load_latency", {}) == base
        spelled = {
            "rates": [0.05, 0.10, 0.15, 0.20, 0.25],
            "width": 4, "height": 4, "num_faults": 48,
            "seed": 1, "measure": 3000,
        }
        assert _fp("load_latency", spelled) == base
        # a nested null is that field's default, as a top-level one is
        base = _fp("fault_sweep")
        assert _fp("fault_sweep", {}) == base
        assert _fp("fault_sweep", {"latency": None, "fault_counts": None}) == base
        quick = dataclasses.asdict(QUICK_CONFIG)
        assert _fp("fault_sweep", {"latency": quick}) == base
        # ``quick`` names the config a JSON body can spell, not another type
        assert _fp("fig7", quick=True) == _fp("fig7", {"latency": quick})

    def test_non_semantic_request_fields_do_not_reach_the_key(self):
        """jobs/stream are transport/execution knobs: results are
        bit-identical regardless (pinned by tests/test_parallel.py), so
        requests differing only there must share one cache entry."""
        async def run():
            service, client = await _start_service_tmp()
            try:
                a = await client.sweep("fault_sweep", TINY, jobs=1)
                b = await client.sweep(
                    "fault_sweep", TINY, jobs=2, stream=True
                )
                assert a["fingerprint"] == b["fingerprint"]
                assert b["cached"] is True  # second request was a hit
            finally:
                await service.close()
        asyncio.run(run())

    def test_every_semantic_field_changes_the_key(self):
        base = _fp("fault_sweep", TINY)
        top = dict(TINY)
        top["fault_counts"] = [0, 3]
        assert _fp("fault_sweep", top) != base
        app = dict(TINY)
        app["app"] = "fft"
        assert _fp("fault_sweep", app) != base
        nested = json.loads(json.dumps(TINY))
        nested["latency"]["measure_cycles"] = 301
        assert _fp("fault_sweep", nested) != base

    def test_seed_override_changes_the_key(self):
        assert _fp("fault_sweep", TINY, seed=2) != _fp("fault_sweep", TINY)
        # when the config carries a top-level seed field the override
        # folds into it — the two spellings are one request
        assert _fp("load_latency", seed=7) == _fp("load_latency", {"seed": 7})
        assert _fp("load_latency", seed=7) != _fp("load_latency")

    def test_quick_flag_resolves_to_the_quick_config(self):
        assert _fp("fault_sweep", quick=True) == _fp(
            "fault_sweep", {"fault_counts": [0, 8, 24]}
        )

    def test_experiment_name_is_part_of_the_key(self):
        assert _fp("fig7") != _fp("fig8")

    def test_unknown_experiment_and_fields_rejected(self):
        with pytest.raises(RequestError):
            _fp("fig9000")
        with pytest.raises(RequestError):
            build_config("fault_sweep", {"fault_count": [1]})  # typo
        with pytest.raises(RequestError):
            build_config("fault_sweep", {"latency": {"widht": 4}})

    def test_bad_shapes_rejected_on_every_request(self):
        """The per-class type memo must not turn the second bad request
        into anything but the first one's RequestError."""
        for _ in range(2):
            with pytest.raises(RequestError, match="expected an object"):
                build_config("fault_sweep", {"latency": 5})
            with pytest.raises(RequestError, match="expected a list"):
                build_config("fault_sweep", {"fault_counts": 3})
            with pytest.raises(RequestError, match="widht"):
                build_config("fault_sweep", {"latency": {"widht": 4}})

    @pytest.mark.parametrize(
        "name, config",
        [
            ("fault_sweep", {"latency": {"width": "8"}}),
            ("fault_sweep", {"latency": {"width": 8.0}}),
            ("fault_sweep", {"latency": {"num_faults": True}}),
            ("fault_sweep", {"latency": {"rate_scale": "1"}}),
            ("fault_sweep", {"fault_counts": [0, True]}),
            ("fault_sweep", {"fault_counts": [0, 2.5]}),
            ("fault_sweep", {"app": 3}),
            ("network_reliability", {"trials": "x"}),
            ("load_latency", {"rates": ["0.1"]}),
            ("fault_campaign", {"router_kinds": [1]}),
            ("fault_campaign", {"timeline": {"protected": 1}}),
            ("fault_campaign", {"timeline": {"avoid_failure": "yes"}}),
            ("spf_sweep", {"vc_counts": [{"n": 2}]}),
        ],
        ids=lambda v: json.dumps(v) if isinstance(v, dict) else v,
    )
    def test_a_field_takes_its_declared_type(self, name, config):
        """An int field takes a non-bool int, a float field an int or a
        float, a str or bool field exactly that, a tuple its element type:
        anything else is a RequestError, not a failure inside the run."""
        with pytest.raises(RequestError, match="expected"):
            effective_config(name, config)

    def test_equal_configs_share_one_fingerprint(self):
        """``1`` and ``1.0`` in a float field are one config, stored as a
        float, and so one key."""
        one, _ = effective_config("fault_sweep", {"latency": {"rate_scale": 1}})
        assert one.latency.rate_scale == 1.0 and type(one.latency.rate_scale) is float
        assert _fp("fault_sweep", {"latency": {"rate_scale": 1}}) == _fp(
            "fault_sweep", {"latency": {"rate_scale": 1.0}}
        )
        assert _fp("load_latency", {"rates": [1, 0.5]}) == _fp(
            "load_latency", {"rates": [1.0, 0.5]}
        )
        assert _fp("detection_latency", {"injection_rate": -0.0}) == _fp(
            "detection_latency", {"injection_rate": 0}
        )

    @given(st.sampled_from(_field_paths()), JSON_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_any_json_value_in_any_field(self, field, value):
        """Every field of every registered config, given any JSON value:
        the config is built or refused with a RequestError, and two ``==``
        spellings of it share one fingerprint."""
        name, path = field
        built = []
        for spelling in (value, _respell(value)):
            try:
                config, seed = effective_config(name, _nest(path, spelling))
            except RequestError:
                continue
            built.append((config, request_fingerprint(name, config, seed=seed)))
        if len(built) == 2 and built[0][0] == built[1][0]:
            assert built[0][1] == built[1][1], (name, path, value)

    def test_field_types_resolved_once_per_class(self, monkeypatch):
        """``get_type_hints`` compiles every string annotation anew on
        each call; a config class's hints are resolved once."""

        @dataclasses.dataclass(frozen=True)
        class Probe:
            n: "int" = 0
            maybe: "typing.Optional[float]" = None

        resolved = []
        real = typing.get_type_hints

        def spy(cls, *args, **kwargs):
            resolved.append(cls)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(typing, "get_type_hints", spy)
        first = fingerprint_module._field_types(Probe)
        assert fingerprint_module._field_types(Probe) == first
        assert resolved == [Probe]
        assert dict(first) == {"n": int, "maybe": float}  # Optional unwrapped

    def test_canonical_tags_the_config_class(self):
        """Structurally identical configs of different types must not
        collide (table1 and table2 both take a RouterGeometry — the
        experiment name separates those; the class tag separates any
        future same-shape config pairs)."""
        c = canonical(FaultSweepConfig())
        assert c["__config__"] == "FaultSweepConfig"


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
class TestResultCache:
    def _entry(self, fp="ab" + "0" * 62):
        cfg, _ = effective_config("fault_sweep", TINY)
        return make_entry(
            fp, "fault_sweep", cfg,
            {"experiment": "fault_sweep", "rows": [{"label": "x"}]},
            {"wall_s": 1.0},
        )

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        entry = self._entry()
        cache.put(entry)
        assert entry.fingerprint in cache
        got = cache.get(entry.fingerprint)
        assert got is not None
        assert got.result == entry.result
        assert got.request == entry.request
        assert len(cache) == 1
        assert cache.index() == {entry.fingerprint: "fault_sweep"}

    def test_missing_is_a_miss(self, tmp_path):
        assert ResultCache(tmp_path).get("ff" + "0" * 62) is None

    @pytest.mark.parametrize(
        "poison",
        [
            b"",                                    # truncated to nothing
            b"{\"version\": 1",                    # torn JSON
            b"not json at all",
            json.dumps({"version": 99}).encode(),   # future version
        ],
    )
    def test_poisoned_entries_evicted(self, tmp_path, poison):
        cache = ResultCache(tmp_path)
        entry = self._entry()
        path = cache.put(entry)
        path.write_bytes(poison)
        assert cache.get(entry.fingerprint) is None
        assert cache.poisoned == 1
        assert not path.exists()  # evicted, next request recomputes

    def test_tampered_payload_detected(self, tmp_path):
        """Flipping a result value breaks the recorded digest."""
        cache = ResultCache(tmp_path)
        entry = self._entry()
        path = cache.put(entry)
        data = json.loads(path.read_bytes())
        data["result"]["rows"][0]["label"] = "forged"
        path.write_text(json.dumps(data))
        assert cache.get(entry.fingerprint) is None
        assert cache.poisoned == 1

    def test_hit_hashes_its_payload_once(self, tmp_path, monkeypatch):
        """A validated read hands the digest it verified to the entry:
        serialising the hit does not hash the payload a second time, and
        says exactly what the file records."""
        cache = ResultCache(tmp_path)
        entry = self._entry()
        path = cache.put(entry)
        recorded = json.loads(path.read_bytes())["sha256"]
        hashed = []

        def spy(result):
            hashed.append(result)
            return payload_digest(result)

        monkeypatch.setattr(cache_module, "payload_digest", spy)
        got = cache.get(entry.fingerprint)
        assert got.to_json()["sha256"] == recorded == payload_digest(got.result)
        assert len(hashed) == 1
        # a second read of unchanged bytes hashes nothing: the verdict on
        # those exact bytes is already known
        assert cache.get(entry.fingerprint) is got
        assert len(hashed) == 1
        # ... and every read of bytes not yet validated hashes: one
        # flipped byte of the result is a miss, counted and unlinked
        raw = path.read_bytes()
        at = raw.index(b'"label": "x"') + len(b'"label": "')
        path.write_bytes(raw[:at] + b"y" + raw[at + 1:])
        assert cache.get(entry.fingerprint) is None
        assert len(hashed) == 2
        assert cache.poisoned == 1
        assert not path.exists()

    def test_misfiled_entry_detected(self, tmp_path):
        """An entry served under the wrong fingerprint is poison too."""
        cache = ResultCache(tmp_path)
        entry = self._entry()
        src = cache.put(entry)
        other = "cd" + "1" * 62
        dst = cache.path_for(other)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(src.read_bytes())
        assert cache.get(other) is None
        assert cache.get(entry.fingerprint) is not None

    def _fp(self, i):
        return f"{i:02x}" + "e" * 62

    def _pin_mtime(self, cache, fp, order):
        """Give entry ``fp`` a deterministic LRU rank (older = smaller)."""
        import os

        os.utime(cache.path_for(fp), ns=(order * 10**9, order * 10**9))

    def test_max_entries_evicts_lru(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        for i in range(6):
            cache.put(self._entry(self._fp(i)))
            self._pin_mtime(cache, self._fp(i), i)
        assert len(cache) == 3
        assert cache.evicted == 3
        survivors = {fp[:2] for fp in cache.fingerprints()}
        assert survivors == {"03", "04", "05"}

    def test_max_bytes_evicts_lru(self, tmp_path):
        cache = ResultCache(tmp_path)  # measure one entry first
        probe = cache.put(self._entry(self._fp(0)))
        entry_size = probe.stat().st_size
        probe.unlink()

        cache = ResultCache(tmp_path, max_bytes=2 * entry_size)
        for i in range(4):
            cache.put(self._entry(self._fp(i)))
            self._pin_mtime(cache, self._fp(i), i)
        assert len(cache) == 2
        assert cache.evicted == 2

    def test_read_refreshes_recency(self, tmp_path):
        """A validated get() keeps its entry out of the LRU axe."""
        cache = ResultCache(tmp_path, max_entries=2)
        for i in range(2):
            cache.put(self._entry(self._fp(i)))
            self._pin_mtime(cache, self._fp(i), i)
        assert cache.get(self._fp(0)) is not None  # oldest becomes newest
        cache.put(self._entry(self._fp(2)))
        assert cache.get(self._fp(0)) is not None
        assert cache.get(self._fp(1)) is None  # the untouched one went
        assert cache.evicted == 1

    def test_fresh_write_never_evicted(self, tmp_path):
        """A budget below one entry keeps only the latest, never zero."""
        cache = ResultCache(tmp_path, max_bytes=1)
        cache.put(self._entry(self._fp(0)))
        assert cache.get(self._fp(0)) is not None
        cache.put(self._entry(self._fp(1)))
        assert cache.get(self._fp(1)) is not None
        assert cache.get(self._fp(0)) is None
        assert len(cache) == 1

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(8):
            cache.put(self._entry(self._fp(i)))
        assert len(cache) == 8
        assert cache.evicted == 0

    def test_bad_budgets_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=-1)
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)

    @pytest.mark.parametrize(
        "name",
        ["..name", "ab\x00cd", "AB" * 32, "ab" * 31 + "a", "ab" * 32 + "a", "../" + "a" * 61],
        ids=["dotted", "nul", "upper-case", "63-chars", "65-chars", "parent-dir"],
    )
    def test_only_a_fingerprint_names_a_path(self, tmp_path, name):
        """A name that is not 64 lowercase hex chars reaches no path: not
        a read, a write, an existence check or an unlink."""
        cache = ResultCache(tmp_path)
        with pytest.raises(BadFingerprintError):
            cache.get(name)
        with pytest.raises(BadFingerprintError):
            cache.put(self._entry(name))
        with pytest.raises(BadFingerprintError):
            name in cache  # noqa: B015
        assert cache.poisoned == 0 and len(cache) == 0

    def test_a_foreign_file_is_not_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self._entry())
        (cache.entries_dir / "ab" / "notes.json").write_text("{}")
        assert list(cache.fingerprints()) == [self._entry().fingerprint]
        assert cache.index() == {self._entry().fingerprint: "fault_sweep"}

    # two caches on one directory stand in for two servers sharing it
    def test_an_entry_the_other_cache_evicts_is_a_miss(self, tmp_path):
        ours, theirs = ResultCache(tmp_path), ResultCache(tmp_path, max_entries=1)
        ours.put(self._entry(self._fp(0)))
        assert ours.get(self._fp(0)) is not None  # validated and memoised
        self._pin_mtime(ours, self._fp(0), 0)
        theirs.put(self._entry(self._fp(1)))
        assert theirs.evicted == 1
        assert ours.get(self._fp(0)) is None
        assert ours.poisoned == 0  # a miss, not poison
        assert self._fp(0) not in ours._validated

    def test_an_entry_the_other_cache_rewrites_serves_its_new_bytes(self, tmp_path):
        ours, theirs = ResultCache(tmp_path), ResultCache(tmp_path)
        first = self._entry()
        ours.put(first)
        assert ours.get(first.fingerprint).compute == {"wall_s": 1.0}
        rewritten = dataclasses.replace(
            first, result={"experiment": "fault_sweep", "rows": [{"label": "z"}]},
            compute={"wall_s": 2.0},
        )
        theirs.put(rewritten)
        got = ours.get(first.fingerprint)
        assert got.compute == {"wall_s": 2.0}
        assert got.result == rewritten.result
        assert got.to_json()["sha256"] == payload_digest(rewritten.result)
        assert ours.poisoned == 0

    def test_a_same_size_tamper_under_its_old_mtime_is_poison(self, tmp_path):
        """The memo compares bytes, not size or mtime: a byte flipped in
        place, with the file's times put back, is caught on the next hit."""
        cache = ResultCache(tmp_path)
        entry = self._entry()
        path = cache.put(entry)
        assert cache.get(entry.fingerprint) is not None
        before = path.stat()
        raw = path.read_bytes()
        at = raw.index(b'"label": "x"') + len(b'"label": "')
        path.write_bytes(raw[:at] + b"y" + raw[at + 1:])
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert cache.get(entry.fingerprint) is None
        assert cache.poisoned == 1
        assert not path.exists()

    def test_a_put_drops_the_memo(self, tmp_path):
        cache = ResultCache(tmp_path)
        entry = self._entry()
        cache.put(entry)
        got = cache.get(entry.fingerprint)
        assert entry.fingerprint in cache._validated
        cache.put(entry)
        assert entry.fingerprint not in cache._validated
        again = cache.get(entry.fingerprint)
        assert again is not got and again == got

    def test_the_memo_sits_at_its_bound(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(1000):
            fp = f"{i:064x}"
            cache.put(self._entry(fp))
            assert cache.get(fp) is not None
        assert len(cache._validated) == cache_module._MEMO_ENTRIES
        assert 0 < cache._validated.nbytes <= cache_module._MEMO_BYTES
        # the most recent entries are the ones kept
        assert f"{999:064x}" in cache._validated
        assert f"{0:064x}" not in cache._validated

    def test_the_memo_keeps_no_file_over_its_byte_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "_MEMO_BYTES", 10)
        cache = ResultCache(tmp_path)
        entry = self._entry()
        cache.put(entry)
        assert cache.get(entry.fingerprint) is not None
        assert len(cache._validated) == 0 and cache._validated.nbytes == 0


# ----------------------------------------------------------------------
# server end-to-end
# ----------------------------------------------------------------------
async def _start_service_tmp(**kwargs):
    import tempfile

    tmp = tempfile.mkdtemp(prefix="repro-service-")
    service = SweepService(tmp, **kwargs)
    port = await service.start()
    return service, ServiceClient("127.0.0.1", port)


def _seed_hit(service, config=TINY, **request):
    """File a stand-in entry for ``fault_sweep`` on ``config`` (nothing is
    simulated); its fingerprint, and the raw body of a request it answers."""
    cfg, residual = effective_config("fault_sweep", config)
    fp = request_fingerprint("fault_sweep", cfg, seed=residual)
    service.cache.put(make_entry(
        fp, "fault_sweep", cfg,
        {"experiment": "fault_sweep", "rows": [{"label": "x", "latency": 0.1}]},
        {"wall_s": 0.5},
    ))
    return fp, json.dumps({"experiment": "fault_sweep", "config": config, **request}).encode()


def _post(body):
    """A one-shot ``POST /v1/sweeps`` of raw ``body``."""
    return (
        b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: %d\r\n"
        b"Connection: close\r\n\r\n" % len(body)
    ) + body


def _get_result(fp):
    return b"GET /v1/results/%s HTTP/1.1\r\nConnection: close\r\n\r\n" % fp


class TestServer:
    def test_stats_surface_cache_evictions(self, tmp_path):
        """The eviction tally reaches the stats payload as cache_evicted."""
        service = SweepService(str(tmp_path), cache_max_entries=1)
        cfg, _ = effective_config("fault_sweep", TINY)
        for i in range(3):
            service.cache.put(
                make_entry(
                    f"{i:02x}" + "d" * 62, "fault_sweep", cfg,
                    {"experiment": "fault_sweep", "rows": []}, {},
                )
            )
        stats = service._stats()
        assert stats["cache_entries"] == 1
        assert stats["cache_evicted"] == 2

    def test_cold_then_warm_bit_identical(self):
        async def run():
            service, client = await _start_service_tmp()
            try:
                cold = await client.sweep("fault_sweep", TINY)
                assert cold["cached"] is False
                warm = await client.sweep("fault_sweep", TINY)
                assert warm["cached"] is True
                assert warm["result"] == cold["result"]
                assert warm["sha256"] == cold["sha256"]
                fetched = await client.result(cold["fingerprint"])
                assert fetched["result"] == cold["result"]
                stats = await client.stats()
                counters = stats["counters"]
                assert counters["service.computations"] == 1
                assert counters["service.cache_hits"] == 1
            finally:
                await service.close()
        asyncio.run(run())

    def test_result_matches_direct_run(self):
        """The determinism contract end to end: the service's rendered
        rows equal a direct in-process run of the same config."""
        from repro.experiments import fault_sweep
        from repro.service.results import render_result

        async def run():
            service, client = await _start_service_tmp()
            try:
                reply = await client.sweep("fault_sweep", TINY)
            finally:
                await service.close()
            return reply

        reply = asyncio.run(run())
        cfg, _ = effective_config("fault_sweep", TINY)
        direct, _sweep = render_result(fault_sweep.run(cfg))
        assert reply["result"]["rows"] == direct["rows"]
        assert reply["result"]["text"] == direct["text"]

    def test_inflight_dedup_computes_once(self):
        async def run():
            service, client = await _start_service_tmp()
            try:
                n = 5
                replies = await asyncio.gather(
                    *[client.sweep("fault_sweep", TINY) for _ in range(n)]
                )
                assert len({r["sha256"] for r in replies}) == 1
                stats = await client.stats()
                counters = stats["counters"]
                assert counters["service.computations"] == 1
                assert counters["service.dedup_joined"] == n - 1
                assert counters["service.cache_misses"] == n
                assert stats["inflight"] == 0  # drained afterwards
                # concurrent requests on one client take a connection
                # each; the stats call after them reuses one
                assert counters["service.connections"] == n
            finally:
                await service.close()
        asyncio.run(run())

    def test_streaming_points_arrive_before_the_result(self):
        async def run():
            service, client = await _start_service_tmp()
            try:
                points = []
                reply = await client.sweep(
                    "fault_sweep", TINY, stream=True,
                    on_point=points.append,
                )
                # the two fault counts share one structural key, so the
                # lane sweep runs them as a single batched chunk: one
                # streamed event covering both points
                assert reply["points_streamed"] == 2
                assert len(points) == 1
                assert points[0]["points"] == 2
                assert points[0]["label"] == "protected/xy lanes 0-1"
                assert reply["result"]["rows"]
            finally:
                await service.close()
        asyncio.run(run())

    def test_poisoned_cache_recomputes(self):
        async def run():
            service, client = await _start_service_tmp()
            try:
                cold = await client.sweep("fault_sweep", TINY)
                path = service.cache.path_for(cold["fingerprint"])
                path.write_text("garbage, as if the disk bit-rotted")
                again = await client.sweep("fault_sweep", TINY)
                assert again["cached"] is False  # poison never served
                assert again["result"] == cold["result"]
                stats = await client.stats()
                assert stats["cache_poisoned"] == 1
                assert stats["counters"]["service.computations"] == 2
            finally:
                await service.close()
        asyncio.run(run())

    def test_an_entry_under_the_v1_key_is_never_served(self):
        """2.5 changed ``detection_latency``'s result for an unchanged
        config, so the key scheme moved to v2: what a v1 server filed for
        the same request is unreachable, and the request computes."""
        config = {"num_faults": 4, "measure_cycles": 150}
        cfg, residual = effective_config("detection_latency", config)
        v1 = json.dumps(
            {"v": 1, "experiment": "detection_latency",
             "config": canonical(cfg), "seed": residual},
            sort_keys=True, separators=(",", ":"),
        )
        old = hashlib.sha256(v1.encode()).hexdigest()

        async def run():
            service, client = await _start_service_tmp()
            try:
                service.cache.put(make_entry(
                    old, "detection_latency", cfg,
                    {"experiment": "detection_latency", "rows": []}, {},
                ))
                reply = await client.sweep("detection_latency", config)
                assert reply["cached"] is False and reply["fingerprint"] != old
                counters = (await client.stats())["counters"]
                assert counters["service.computations"] == 1
            finally:
                await service.close()
        asyncio.run(run())

    @pytest.mark.parametrize("stream", [False, True], ids=["plain", "streamed"])
    def test_a_cache_that_cannot_be_written_still_answers(
        self, monkeypatch, stream
    ):
        """Full or read-only cache directory: the computed result is
        served uncached and the failure counted; a streamed reply still
        ends on its ``result`` line."""
        import errno

        def full(entry):
            raise OSError(errno.ENOSPC, "No space left on device")

        async def run():
            service, client = await _start_service_tmp()
            monkeypatch.setattr(service.cache, "put", full)
            try:
                reply = await client.sweep("fault_sweep", TINY, stream=stream)
                assert reply["cached"] is False
                assert reply["result"]["rows"]
                if stream:
                    assert reply["event"] == "result"
                again = await client.sweep("fault_sweep", TINY, stream=stream)
                assert again["cached"] is False  # nothing was stored
                assert again["sha256"] == reply["sha256"]
                stats = await client.stats()
                assert stats["counters"]["service.cache_put_failures"] == 2
                assert stats["cache_entries"] == 0
            finally:
                await service.close()
        asyncio.run(run())

    def test_a_stream_never_ends_on_its_accepted_line(self, monkeypatch, capfd):
        """Whatever the computation dies of after its points, the last
        line of a streamed reply is ``error`` (or ``result``)."""
        from repro.service import server

        def broken(result):
            raise RuntimeError("rendering failed")

        monkeypatch.setattr(server, "render_result", broken)

        async def run():
            service, client = await _start_service_tmp()
            try:
                with pytest.raises(ServiceError) as err:
                    await client.sweep("fault_sweep", TINY, stream=True)
                assert err.value.status == 500
            finally:
                await service.close()
        asyncio.run(run())
        assert "rendering failed" in capfd.readouterr().err

    @pytest.mark.parametrize(
        "field",
        [
            {"jobs": "two"}, {"jobs": -1}, {"jobs": True}, {"jobs": 1.5},
            {"stream": "yes"}, {"stream": 1}, {"stream": None},
            {"quick": "false"}, {"quick": 0},
            {"seed": True}, {"seed": "1"}, {"seed": -1},
        ],
        ids=lambda f: "-".join(f"{k}={v!r}" for k, v in f.items()),
    )
    def test_a_bad_request_field_is_refused_before_it_joins(self, field):
        """A bad non-semantic field is a 400 of its own: checked before
        fingerprinting, it never fails the valid request it would have
        joined."""

        async def run():
            service, client = await _start_service_tmp()
            try:
                bad = {"experiment": "fault_sweep", "config": TINY, **field}
                (status, body), good = await asyncio.gather(
                    client._request("POST", "/v1/sweeps", bad),
                    client.sweep("fault_sweep", TINY, jobs=0),
                )
                assert status == 400, body
                assert next(iter(field)) in body["error"]
                assert good["cached"] is False and good["result"]["rows"]
                counters = (await client.stats())["counters"]
                assert counters["service.bad_requests"] == 1
                assert counters["service.computations"] == 1
                assert "service.failures" not in counters
            finally:
                await service.close()
        asyncio.run(run())

    @pytest.mark.parametrize(
        "name, config",
        [
            ("fault_sweep", {"fault_counts": [-3]}),
            ("fault_campaign", {"timelines": 0}),
            ("load_latency", {"rates": []}),
            ("design_space", {"vc_counts": []}),
            # fault specs that used to fail only inside the draw, after
            # taking a compute slot
            *(
                (
                    "fault_campaign",
                    {"timelines": 1, "router_kinds": ["baseline"], "timeline": spec},
                )
                for spec in (
                    {"mean_interval": 0},
                    {"events": -1},
                    {"transient_fraction": 1.5},
                    {"first_event_at": -5},
                    {"transient_duration": 0, "transient_fraction": 1},
                )
            ),
            ("detection_latency", {"num_faults": 0}),
            ("detection_latency", {"measure_cycles": 0}),
            # wrongly typed fields, which used to fail only inside the run
            ("fault_sweep", {"latency": {"width": "8"}}),
            ("network_reliability", {"trials": "x"}),
            # a field the config does not declare
            ("table3", {"mc_trials": 200}),
        ],
        ids=[
            "negative-fault-count", "no-timelines", "no-rates", "no-vc-counts",
            "no-mean-interval", "negative-events", "fraction-above-one",
            "negative-first-event", "zero-transient-duration", "no-faults",
            "no-cycles", "string-width", "string-trials", "removed-field",
        ],
    )
    def test_a_config_the_experiment_cannot_compute_is_a_400(self, name, config):
        """The config class rejects it before fingerprinting: nothing is
        computed, cached or counted as a failure."""

        async def run():
            service, client = await _start_service_tmp()
            try:
                status, body = await client._request(
                    "POST", "/v1/sweeps", {"experiment": name, "config": config}
                )
                assert status == 400, body
                assert isinstance(body["error"], str)
                counters = (await client.stats())["counters"]
                assert counters.get("service.computations", 0) == 0
                assert counters["service.bad_requests"] == 1
                assert len(service.cache) == 0
            finally:
                await service.close()
        asyncio.run(run())

    @pytest.mark.parametrize(
        "name, config",
        [
            ("load_latency", {"rates": [float("nan")]}),
            ("load_latency", {"rates": [float("inf")]}),
            ("detection_latency", {"injection_rate": float("-inf")}),
        ],
        ids=["nan-rate", "infinite-rate", "minus-infinity-injection-rate"],
    )
    def test_a_non_finite_number_is_refused_at_parse(self, name, config):
        """JSON's ``NaN`` / ``Infinity`` constants are a 400 before
        fingerprinting: a NaN rate used to run and report a NaN latency."""

        async def run():
            service, client = await _start_service_tmp()
            try:
                status, body = await client._request(
                    "POST", "/v1/sweeps", {"experiment": name, "config": config}
                )
                assert status == 400, body
                assert "not a number" in body["error"]
                counters = (await client.stats())["counters"]
                assert counters.get("service.computations", 0) == 0
                assert counters["service.bad_requests"] == 1
                assert len(service.cache) == 0
            finally:
                await service.close()
        asyncio.run(run())

    def test_a_hit_answers_its_entry_serialised(self):
        """A hit's reply bytes, ``POST`` or ``GET``, first or repeat, are
        the serialisation of the entry on disk; an entry another writer
        replaced serves its new bytes at once."""

        async def run():
            service, _client = await _start_service_tmp()
            try:
                fp, body = _seed_hit(service)
                path = service.cache.path_for(fp)

                async def check(compute):
                    expected = json.dumps(
                        {"cached": True, **json.loads(path.read_bytes())}, sort_keys=True
                    ) + "\n"
                    for request in (_post(body), _get_result(fp.encode())):
                        [(status, _, reply)] = _replies(await _raw(service.port, request))
                        assert status == 200
                        assert reply == expected.encode()
                        assert json.loads(reply)["compute"] == compute

                await check({"wall_s": 0.5})
                await check({"wall_s": 0.5})  # from the memos
                other = ResultCache(service.cache.root)
                other.put(dataclasses.replace(other.get(fp), compute={"wall_s": 9.0}))
                await check({"wall_s": 9.0})
                # a streamed hit carries the same entry, event by event
                streamed = await _client.sweep("fault_sweep", TINY, stream=True)
                assert streamed["event"] == "result" and streamed["cached"] is True
                assert streamed["compute"] == {"wall_s": 9.0}
                assert streamed["sha256"] == json.loads(path.read_bytes())["sha256"]
                counters = (await _client.stats())["counters"]
                assert counters["service.cache_hits"] == 4
                assert "service.computations" not in counters
            finally:
                await service.close()
        asyncio.run(run())

    def test_the_request_and_reply_memos_sit_at_their_bounds(self, tmp_path):
        service = SweepService(str(tmp_path))
        try:
            for seed in range(1000):
                body = json.dumps(
                    {"experiment": "fault_sweep", "config": TINY, "seed": seed}
                ).encode()
                request = service._parse(body)
                assert request.fingerprint == _fp("fault_sweep", TINY, seed=seed)
                assert service._parse(body) is request
                entry = make_entry(
                    request.fingerprint, "fault_sweep", request.config,
                    {"experiment": "fault_sweep", "rows": [], "seed": seed}, {},
                )
                reply = service._hit_reply(entry)
                assert service._hit_reply(entry) is reply
            assert len(service._requests) == server_module._REQUEST_MEMO_ENTRIES
            assert len(service._replies) == server_module._REPLY_MEMO_ENTRIES
            assert service._requests.nbytes <= server_module._REQUEST_MEMO_BYTES
            assert service._replies.nbytes <= server_module._REPLY_MEMO_BYTES
            # an equal entry that is another validation is serialised again
            assert service._hit_reply(dataclasses.replace(entry)) == reply
            assert service._hit_reply(entry) is not reply
        finally:
            service.runtime.close()

    def test_error_paths(self):
        async def run():
            service, client = await _start_service_tmp()
            try:
                with pytest.raises(ServiceError) as err:
                    await client.sweep("fig9000")
                assert err.value.status == 400
                with pytest.raises(ServiceError) as err:
                    await client.sweep(
                        "fault_sweep", {"no_such_field": 1}
                    )
                assert err.value.status == 400
                # 2.0: the engine selector is gone, so a request that
                # still carries it is an unknown field like any other
                with pytest.raises(ServiceError) as err:
                    await client.sweep(
                        "fault_sweep",
                        {"fault_counts": [0, 2], "engine": "event"},
                    )
                assert err.value.status == 400
                assert await client.result("ab" + "0" * 62) is None
                catalog = await client.experiments()
                assert "fault_sweep" in catalog
                assert catalog["fault_sweep"]["config"] == "FaultSweepConfig"
            finally:
                await service.close()
        asyncio.run(run())


# ----------------------------------------------------------------------
# connections: persistence, malformed heads, shutdown
# ----------------------------------------------------------------------
@pytest.fixture
def quiet(capfd, caplog):
    """Fail a test that leaves a traceback behind: on stderr (the
    server's catch-all) or in the asyncio logger (a handler task the loop
    had to cancel, an exception nobody retrieved)."""
    yield
    assert capfd.readouterr().err == ""
    assert [
        r.getMessage() for r in caplog.get_records("call") if r.name == "asyncio"
    ] == []


async def _raw(port, data):
    """Send ``data`` on a fresh socket; everything the server answers
    until it closes the connection (a hang here fails the test)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=10)
    finally:
        writer.close()


def _replies(raw):
    """Split a byte stream of Content-Length replies into (status, head, body)."""
    out = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        out.append((int(head.split()[1]), head, rest[:length]))
        raw = rest[length:]
    return out


_GET = b"GET /healthz HTTP/1.1\r\nHost: x\r\n"


class TestConnections:
    def test_sequential_requests_share_one_connection(self):
        async def run():
            service, client = await _start_service_tmp()
            try:
                cold = await client.sweep("fault_sweep", TINY)
                before = (await client.stats())["counters"]
                for _ in range(50):
                    warm = await client.sweep("fault_sweep", TINY)
                    assert warm["cached"] and warm["sha256"] == cold["sha256"]
                after = (await client.stats())["counters"]
                assert after["service.requests"] - before["service.requests"] == 50
                assert after["service.connections"] == 1
                # reuse is of the socket only: every hit reads its file,
                # so one removed behind the server's back is a miss
                service.cache.path_for(cold["fingerprint"]).unlink()
                again = await client.sweep("fault_sweep", TINY)
                assert again["cached"] is False
                assert again["sha256"] == cold["sha256"]
            finally:
                await service.close()
        asyncio.run(run())

    @pytest.mark.parametrize(
        "request_head",
        [
            _GET + b"Connection: close\r\n\r\n",
            _GET.replace(b"HTTP/1.1", b"HTTP/1.0") + b"\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_requests_that_end_the_connection(self, request_head):
        async def run():
            service, _client = await _start_service_tmp()
            try:
                # _raw returns at EOF: the server closed after one reply
                [(status, head, body)] = _replies(
                    await _raw(service.port, request_head)
                )
                assert status == 200 and json.loads(body) == {"ok": True}
                assert b"Connection: close" in head
            finally:
                await service.close()
        asyncio.run(run())

    def test_pipelined_requests_answered_in_order(self):
        async def run():
            service, _client = await _start_service_tmp()
            try:
                raw = await _raw(
                    service.port,
                    _GET + b"\r\n"
                    + b"GET /nowhere HTTP/1.1\r\nConnection: close\r\n\r\n",
                )
                first, second = _replies(raw)
                assert first[0] == 200 and b"keep-alive" in first[1]
                assert second[0] == 404 and b"Connection: close" in second[1]
            finally:
                await service.close()
        asyncio.run(run())

    def test_stream_ends_its_connection_and_the_client_carries_on(self):
        async def run():
            service, client = await _start_service_tmp()
            try:
                assert await client.health()
                streamed = await client.sweep("fault_sweep", TINY, stream=True)
                assert streamed["points_streamed"] == 2
                warm = await client.sweep("fault_sweep", TINY)
                assert warm["cached"] and warm["sha256"] == streamed["sha256"]
                counters = (await client.stats())["counters"]
                # health + stream on the first, the rest on a second
                assert counters["service.connections"] == 2
            finally:
                await service.close()
        asyncio.run(run())

    def test_stale_connection_is_retried_once(self, tmp_path):
        async def run():
            service = SweepService(str(tmp_path))
            port = await service.start()
            client = ServiceClient("127.0.0.1", port)
            cold = await client.sweep("fault_sweep", TINY)
            await service.close()
            # same address, same cache directory, a new server: the
            # client's kept connection is dead and it must not matter
            service = SweepService(str(tmp_path))
            await service.start(port=port)
            try:
                warm = await client.sweep("fault_sweep", TINY)
                assert warm["cached"] and warm["sha256"] == cold["sha256"]
            finally:
                await service.close()
            # nobody listening: an error, not a retry loop
            with pytest.raises(OSError):
                await asyncio.wait_for(client.sweep("fault_sweep", TINY), 10)
            assert await client.health() is False
        asyncio.run(run())

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_one_client_across_event_loops(self, tmp_path):
        """The ledger's shape: a server process, one client object, a new
        ``asyncio.run`` per pass.  Connections of a finished loop are
        dropped, not reused, and their descriptors do not pile up."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--cache-dir", str(tmp_path)],
            env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            port = int(re.search(r":(\d+) ", proc.stdout.readline()).group(1))
            client = ServiceClient("127.0.0.1", port)
            gc.collect()
            start = len(os.listdir("/proc/self/fd"))
            for _ in range(3):
                async def two():
                    return await client.health() and await client.health()
                assert asyncio.run(two())
                gc.collect()
                # at most the connection the client still holds
                assert len(os.listdir("/proc/self/fd")) <= start + 1
            stats = asyncio.run(client.stats())
            # one connection per loop, reused inside it (the ready probe
            # of ``python -m repro.service`` itself makes none)
            assert stats["counters"]["service.connections"] == 4
            # Ctrl-C with that last connection still open and idle: the
            # server drops it and exits at once, cleanly
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
            assert proc.stderr.read() == ""
            del client
            gc.collect()
            assert len(os.listdir("/proc/self/fd")) == start
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()

    @pytest.mark.parametrize(
        "request_head, status",
        [
            (_GET + b"Content-Length: abc\r\n\r\n{}", 400),
            (_GET + b"Content-Length: -5\r\n\r\n", 400),
            (_GET + b"Content-Length: \xb2\r\n\r\n", 400),
            (b"nonsense\r\n\r\n", 400),
            (_GET + b"Content-Length: 99999999\r\n\r\n", 413),
            (_GET + b"X-Pad: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        ],
        ids=["length-abc", "length-negative", "length-superscript",
             "request-line", "body-too-large", "head-too-large"],
    )
    def test_malformed_head_is_a_typed_refusal(self, quiet, request_head, status):
        """A 4xx, ``Connection: close`` and the close itself — never a
        traceback, a 500, a silent drop, or a stream read on from the
        middle of a body."""
        async def run():
            service, client = await _start_service_tmp()
            try:
                [(got, head, body)] = _replies(
                    await _raw(service.port, request_head)
                )
                assert got == status
                assert b"Connection: close" in head
                assert "error" in json.loads(body)
                assert await client.health()  # and the server carries on
            finally:
                await service.close()
        asyncio.run(run())

    def test_a_nul_in_a_result_target_is_a_404(self, quiet):
        async def run():
            service, client = await _start_service_tmp()
            try:
                [(status, head, body)] = _replies(
                    await _raw(service.port, _get_result(b"ab\x00cd"))
                )
                assert status == 404 and "error" in json.loads(body)
                assert await client.health()
            finally:
                await service.close()
        asyncio.run(run())

    def test_a_dotted_result_target_touches_no_file(self, quiet):
        """``..name`` used to name ``<cache root>/..name.json``: read,
        found poisoned and unlinked, outside ``entries/``."""
        async def run():
            service, client = await _start_service_tmp()
            outside = service.cache.root / "..name.json"
            outside.write_text("not an entry")
            try:
                [(status, head, body)] = _replies(
                    await _raw(service.port, _get_result(b"..name"))
                )
                assert status == 404 and "error" in json.loads(body)
                assert outside.read_text() == "not an entry"
                assert (await client.stats())["cache_poisoned"] == 0
            finally:
                await service.close()
        asyncio.run(run())

    def test_a_partial_body_then_a_close(self, quiet):
        """A body shorter than its ``Content-Length``, then the peer goes:
        no reply, no count, no traceback, and the server carries on."""
        async def run():
            service, client = await _start_service_tmp()
            try:
                _fp, body = _seed_hit(service)
                head = b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (
                    len(body) + 100
                )
                reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
                writer.write(head + body)
                writer.write_eof()  # the close, seen from the server
                assert await asyncio.wait_for(reader.read(), timeout=10) == b""
                writer.close()
                counters = (await client.stats())["counters"]
                assert "service.requests" not in counters
                reply = await client.sweep("fault_sweep", TINY)
                assert reply["cached"] is True
            finally:
                await service.close()
        asyncio.run(run())

    def test_a_slow_body(self, quiet, monkeypatch):
        """A body dripped in well inside ``_IDLE_TIMEOUT_S`` is answered as
        if it came at once; one that outlasts it is dropped unanswered.
        The server carries on after both."""
        monkeypatch.setattr(server_module, "_IDLE_TIMEOUT_S", 1.0)

        async def drip(port, data, pause):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for at in range(0, len(data), 16):
                    writer.write(data[at:at + 16])
                    await writer.drain()
                    await asyncio.sleep(pause)
                return await asyncio.wait_for(reader.read(), timeout=10)
            except ConnectionError:
                return b""
            finally:
                writer.close()

        async def run():
            service, client = await _start_service_tmp()
            try:
                fp, body = _seed_hit(service)
                data = _post(body)
                assert len(data) // 16 * 0.01 < 0.5  # well inside the timeout
                [(status, _, reply)] = _replies(await drip(service.port, data, 0.01))
                assert status == 200 and json.loads(reply)["fingerprint"] == fp
                slow = 1.5 / (len(data) // 16)  # the whole drip takes 1.5 s
                assert await drip(service.port, data, slow) == b""
                assert (await client.sweep("fault_sweep", TINY))["cached"] is True
            finally:
                await service.close()
        asyncio.run(run())

    def test_an_oversized_body_streamed_slowly(self, quiet):
        """A head that declares one byte over ``_MAX_BODY``, then the body
        trickled in: the 413 comes off the head, before the trickle ends,
        the connection closes, and nothing is computed."""
        chunks, pause = 40, 0.05  # the whole trickle takes 2 s

        async def run():
            service, client = await _start_service_tmp()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
                writer.write(b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                             % (server_module._MAX_BODY + 1) + b"{" * 16)
                replied = asyncio.ensure_future(asyncio.wait_for(reader.read(), timeout=10))
                sent = 1
                while sent < chunks and not replied.done():
                    await asyncio.sleep(pause)
                    if not replied.done():
                        writer.write(b"{" * 16)
                        sent += 1
                assert sent < chunks  # answered while the body was still coming
                [(status, head, body)] = _replies(await replied)  # then closed
                writer.close()
                assert status == 413 and b"Connection: close" in head
                assert "error" in json.loads(body)
                counters = (await client.stats())["counters"]
                assert "service.computations" not in counters
            finally:
                await service.close()
        asyncio.run(run())

    def test_close_with_an_idle_connection(self, quiet):
        async def run():
            service, client = await _start_service_tmp()
            assert await client.health()  # leaves one connection open, idle
            assert len(service._keep_alive) == 1
            t0 = time.perf_counter()
            await service.close()
            assert time.perf_counter() - t0 < 1.0
            assert not service._keep_alive and not service._handlers
        asyncio.run(run())

    def test_close_with_a_request_in_flight(self, quiet):
        """Its reply or a clean connection error, never a hang; the
        computation is finished and stored either way."""
        async def run():
            service, client = await _start_service_tmp()
            request = asyncio.ensure_future(client.sweep("fault_sweep", TINY))
            while not service._inflight:
                await asyncio.sleep(0.01)
            await asyncio.wait_for(service.close(), timeout=60)
            try:
                reply = await asyncio.wait_for(request, timeout=10)
                assert reply["result"]["rows"]
            except ConnectionError:
                pass
            assert len(service.cache) == 1
        asyncio.run(run())


# ----------------------------------------------------------------------
# request bodies, fuzzed
# ----------------------------------------------------------------------
#: every field name of every registered config, one nested config deep
_FIELD_NAMES = sorted({key for _, path in _field_paths() for key in path})
_REQUEST_KEYS = ("experiment", "config", "seed", "jobs", "stream", "quick")


def _dumps(obj, indent):
    return json.dumps(obj, indent=indent, allow_nan=True).encode()


#: bodies that hit the entry ``_seed_hit`` files: the request in any key
#: order and layout, with non-semantic fields and unknown top-level keys
_HIT_BODIES = st.builds(
    lambda extra, fields, order, indent: _dumps(
        dict(order.sample(
            [("experiment", "fault_sweep"), ("config", TINY), *fields.items(), *extra.items()],
            2 + len(fields) + len(extra),
        )),
        indent,
    ),
    st.dictionaries(st.text(max_size=6).map("x-".__add__), JSON_VALUES, max_size=3),
    st.fixed_dictionaries(
        {},
        optional={
            "jobs": st.none() | st.integers(0, 64),
            "quick": st.booleans(),
            "stream": st.just(False),
        },
    ),
    st.randoms(use_true_random=False),
    st.sampled_from([None, 0, 2]),
)

#: bodies that must be refused, each for a reason of its own
_BAD_BODIES = st.one_of(
    # a field no config has, at any depth under any path of field names
    st.builds(
        lambda name, path, key, value: _dumps(
            {"experiment": name, "config": _nest(path, {"zz_" + key: value})}, None
        ),
        st.sampled_from(sorted(CONFIG_TYPES)),
        st.lists(st.sampled_from(_FIELD_NAMES) | st.text(max_size=6), max_size=4),
        st.text(max_size=6),
        JSON_VALUES,
    ),
    # any JSON value with no ``experiment``: top level or not an object
    JSON_VALUES.map(lambda v: _dumps(v, None)),
    # an experiment nobody registered
    st.text(max_size=12).filter(lambda t: t not in CONFIG_TYPES).map(
        lambda t: _dumps({"experiment": t}, None)
    ),
    # a request field of the wrong type
    st.builds(
        lambda key, value: _dumps(
            {"experiment": "fault_sweep", "config": TINY, key: value}, None
        ),
        st.sampled_from(["seed", "jobs", "stream", "quick"]),
        st.text(max_size=4) | st.lists(st.integers(), max_size=2) | st.integers(max_value=-1),
    ),
    # NaN or an infinity anywhere, even in a key the server ignores
    st.builds(
        lambda value, constant: _dumps(
            {"experiment": "fault_sweep", "config": TINY, "x-": [value, constant]}, None
        ),
        JSON_VALUES,
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    ),
    # nested deeper than any parser recursion limit, or not
    st.builds(
        lambda depth, open_: open_ * depth,
        st.integers(1, 200_000),
        st.sampled_from([b"[", b'{"a":']),
    ),
    # a hit's body cut short, or with a byte that is not UTF-8
    st.builds(lambda body, at: body[:at], _HIT_BODIES, st.integers(0, 10**6)),
    st.builds(
        lambda body, at, byte: body[:at] + byte + body[at:],
        _HIT_BODIES,
        st.integers(0, 10**6),
        st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]),
    ),
)


class TestRequestBodies:
    @settings(max_examples=150, deadline=None)
    @given(body=_HIT_BODIES | _BAD_BODIES)
    def test_any_body_is_answered_once_and_for_all(self, body):
        """Sent twice, a body gets the same status and the same reply
        bytes; the status is a 200 (a hit: nothing here computes) or a
        4xx with a JSON ``error``, never a 500; and the body memo holds
        the body exactly when it parsed."""

        async def run():
            service, _client = await _start_service_tmp()
            try:
                fp, _ = _seed_hit(service)
                first = await _raw(service.port, _post(body))
                second = await _raw(service.port, _post(body))
                counters = (await _client.stats())["counters"]
                return fp, first, second, counters, (body, None) in service._requests
            finally:
                await service.close()

        fp, first, second, counters, memoised = asyncio.run(run())
        assert first == second
        [(status, _, reply)] = _replies(first)
        reply = json.loads(reply)
        assert counters["service.requests"] == 2
        if status == 200:
            assert reply["cached"] is True and reply["fingerprint"] == fp
            assert memoised
        else:
            assert 400 <= status < 500 and isinstance(reply["error"], str)
            assert counters["service.bad_requests"] == 2
            assert not memoised

    def test_only_a_body_that_parses_is_memoised(self, tmp_path):
        hit = json.dumps({"x-a": [1], "config": TINY, "experiment": "fault_sweep"}).encode()
        deep = b"[" * 100_000
        service = SweepService(str(tmp_path))
        try:
            assert service._parse(hit).fingerprint == _fp("fault_sweep", TINY)
            with pytest.raises(RequestError, match="nests too deeply"):
                service._parse(deep)
            with pytest.raises(ValueError):
                service._parse(hit[:-1])
            with pytest.raises(ValueError):
                service._parse(b"\xff" + hit)
            assert list(service._requests._items) == [(hit, None)]
        finally:
            service.runtime.close()


# ----------------------------------------------------------------------
# the server's one runtime and its worker processes
# ----------------------------------------------------------------------
def _proc_stat(pid):
    """``(state, ppid)`` of a process, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fp:
            state, ppid = fp.read().rpartition(")")[2].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def _running(pid):
    return (_proc_stat(pid) or "Z")[0] != "Z"  # a zombie only awaits its reaper


def _children_of(pid):
    return [
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and _running(entry) and _proc_stat(entry)[1] == pid
    ]


class TestWorkers:
    def test_cold_requests_share_one_worker(self):
        async def run():
            service, client = await _start_service_tmp(jobs=1)
            try:
                for seed in range(4):
                    reply = await client.sweep("fault_sweep", TINY, seed=seed)
                    assert reply["cached"] is False
                stats = await client.stats()
                assert stats["counters"]["service.computations"] == 4
                assert stats["counters"]["service.workers_spawned"] == 1
                assert stats["gauges"]["service.workers_idle"] == 1
            finally:
                await service.close()
            assert not multiprocessing.active_children()
        asyncio.run(run())

    def test_concurrent_computations_never_share_a_slot(self, monkeypatch):
        from repro.experiments.resilient import SweepRuntime

        held = []
        both_hold = threading.Barrier(2, timeout=30)
        borrow = SweepRuntime.borrow

        def borrow_then_meet(self, n):
            workers = borrow(self, n)
            held.append({w.proc.pid for w in workers})
            both_hold.wait()
            return workers

        async def run():
            service, client = await _start_service_tmp(jobs=1, max_concurrent=2)
            try:
                await client.sweep("fault_sweep", TINY)  # leaves one idle worker
                monkeypatch.setattr(SweepRuntime, "borrow", borrow_then_meet)
                # not seed=1: TINY's own seed, so the same computation (a hit)
                await asyncio.gather(
                    client.sweep("fault_sweep", TINY, seed=2),
                    client.sweep("fault_sweep", TINY, seed=3),
                )
                assert len(held) == 2 and held[0].isdisjoint(held[1])
                stats = await client.stats()
                assert stats["counters"]["service.workers_spawned"] == 2
                assert stats["gauges"]["service.workers_idle"] == 2
            finally:
                await service.close()
            assert not multiprocessing.active_children()
        asyncio.run(run())

    def test_a_worker_holds_no_connection_open(self):
        """A forked worker inherits the socket of the request that caused
        it; it must let go, or the server's close never reaches the client."""
        body = json.dumps({"experiment": "fault_sweep", "config": TINY}).encode()
        head = (
            b"POST /v1/sweeps HTTP/1.1\r\nConnection: close\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
        )

        async def run():
            service, _client = await _start_service_tmp()
            try:
                # _raw returns at EOF, with the worker still alive and idle
                [(status, _, reply)] = _replies(await _raw(service.port, head + body))
                assert status == 200 and json.loads(reply)["cached"] is False
                assert service.runtime.idle == 1
            finally:
                await service.close()
        asyncio.run(run())

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_sigkilled_server_leaves_no_worker(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--cache-dir", str(tmp_path), "--jobs", "2"],
            env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            port = int(re.search(r":(\d+) ", proc.stdout.readline()).group(1))
            client = ServiceClient("127.0.0.1", port)
            reply = asyncio.run(client.sweep("fault_sweep", TINY))
            assert reply["cached"] is False
            workers = _children_of(proc.pid)
            assert len(workers) == 2
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 2.0
            while any(_running(pid) for pid in workers):
                assert time.monotonic() < deadline, "a worker outlived its server"
                time.sleep(0.02)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()


# ----------------------------------------------------------------------
# thread-local runtime activation (the seam the server relies on)
# ----------------------------------------------------------------------
class TestThreadLocalRuntime:
    def test_concurrent_threads_get_independent_runtimes(self, tmp_path):
        """Two threads installing sweep runtimes concurrently must not
        share state — before the thread-local fix the second thread
        silently joined the first thread's runtime (and would have
        checkpointed into its store)."""
        import threading

        from repro.experiments.resilient import active_runtime, sweep_runtime

        seen = {}
        barrier = threading.Barrier(2, timeout=10)

        def worker(name, out_dir):
            with sweep_runtime(out_dir=out_dir):
                barrier.wait()  # both runtimes installed at once
                seen[name] = active_runtime().store.path
                barrier.wait()

        threads = [
            threading.Thread(
                target=worker, args=(i, tmp_path / f"run{i}")
            )
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert seen[0] != seen[1]
        assert active_runtime() is None  # main thread untouched

    def test_progress_hook_fires_per_point(self):
        from repro.experiments import fault_sweep
        from repro.experiments.resilient import SweepRuntime

        events = []
        cfg, _ = effective_config("fault_sweep", TINY)
        runtime = SweepRuntime()
        try:
            with runtime.activate(events.append):
                fault_sweep.run(cfg, jobs=2)
        finally:
            runtime.close()
        # jobs=2 splits the 2-point lane group into one chunk per worker
        assert {e["label"] for e in events} == {
            "protected/xy lanes 0-0", "protected/xy lanes 1-1"
        }
        assert sum(e["points"] for e in events) == 2
        assert all(e["resumed"] is False for e in events)
