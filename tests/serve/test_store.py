"""The content-addressed store: keys, counters, LRU eviction."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import pickletools
import time
import zlib
from pathlib import Path

import pytest

from repro.obs.manifest import validate_manifest
from repro.serve.store import ContentStore, StoreStats
from repro.sim.parallel import (
    CellEntry,
    ResultCache,
    cell_header,
    read_entry,
    run_cell,
)
from repro.sim.simulator import SimResult

from tests.serve.helpers import make_spec


def put_cells(store: ContentStore, specs) -> list:
    """Simulate each spec once and publish it (tiny cells, one result
    reused is not enough here -- eviction tests need distinct keys)."""
    results = [run_cell(spec) for spec in specs]
    for spec, result in zip(specs, results):
        store.put(spec, result)
    return results


class TestKeys:
    def test_key_is_the_cache_address(self, tmp_path):
        """The store's content address is exactly the ResultCache file
        stem -- the two layers share one on-disk cache."""
        store = ContentStore(tmp_path)
        plain = ResultCache(tmp_path)
        spec = make_spec()
        assert store.key(spec) == plain._path(spec).stem
        assert store.key(spec) == store.key(make_spec())  # stable

    def test_distinct_cells_get_distinct_keys(self, tmp_path):
        store = ContentStore(tmp_path)
        keys = {
            store.key(make_spec()),
            store.key(make_spec(mechanism="multithreaded")),
            store.key(make_spec(workload="murphi")),
            store.key(make_spec(user_insts=301)),
        }
        assert len(keys) == 4

    def test_interoperates_with_plain_result_cache(self, tmp_path):
        """A cell published through ResultCache is a store hit, and
        vice versa: they are the same cache."""
        spec = make_spec()
        result = run_cell(spec)
        ResultCache(tmp_path).put(spec, result)
        store = ContentStore(tmp_path)
        hit = store.get(spec)
        assert hit is not None
        assert dataclasses.asdict(hit.decode()) == dataclasses.asdict(result)
        assert store.stats.hits == 1


class TestCounters:
    def test_miss_then_put_then_hit(self, tmp_path):
        store = ContentStore(tmp_path)
        spec = make_spec()
        assert store.get(spec) is None
        result = run_cell(spec)
        store.put(spec, result)
        assert store.get(spec) is not None
        assert store.stats == StoreStats(hits=1, misses=1, puts=1)

    def test_stats_dict_is_manifest_safe(self, tmp_path):
        store = ContentStore(tmp_path, max_entries=8, max_bytes=1 << 20)
        stats = store.stats_dict()
        assert all(isinstance(v, int) and v >= 0 for v in stats.values())
        assert stats["max_entries"] == 8
        assert stats["max_bytes"] == 1 << 20

    def test_manifest_embeds_valid_cache_block(self, tmp_path):
        """Every manifest the store writes carries its counters and
        still validates against the manifest schema."""
        store = ContentStore(tmp_path)
        spec = make_spec()
        put_cells(store, [spec])
        manifest = json.loads(store.manifest_path(spec).read_text())
        assert validate_manifest(manifest) == []
        assert manifest["cache"]["puts"] == 1
        assert set(manifest["cache"]) == set(StoreStats().as_dict())

    def test_stats_count_entries_and_bytes(self, tmp_path):
        store = ContentStore(tmp_path)
        put_cells(store, [make_spec(user_insts=201), make_spec(user_insts=202)])
        stats = store.stats_dict()
        assert stats["entries"] == 2
        assert stats["bytes"] == sum(
            path.stat().st_size for path in tmp_path.glob("*.pkl")
        )

    def test_disabled_cache_stores_nothing(self, tmp_path, monkeypatch):
        """REPRO_CACHE=0 gates the store itself (inherited behaviour):
        puts are dropped and gets miss, even on an explicit instance."""
        monkeypatch.setenv("REPRO_CACHE", "0")
        store = ContentStore(tmp_path)
        spec = make_spec()
        store.put(spec, run_cell(spec))
        assert list(tmp_path.glob("*.pkl")) == []
        assert store.get(spec) is None


class TestWrites:
    @pytest.mark.parametrize("cls", [ResultCache, ContentStore])
    def test_second_put_lists_nothing(self, tmp_path, monkeypatch, cls):
        """Dead writers' temp files are pruned at an instance's first
        put, and the manifest carries no occupancy, so later puts list
        no directory however big the store grows."""
        cache = cls(tmp_path)
        first, second = make_spec(user_insts=201), make_spec(user_insts=202)
        result = run_cell(first)
        cache.put(first, result)

        def refuse(*args, **kwargs):
            raise AssertionError("a put listed a directory")

        for owner, name in ((Path, "glob"), (Path, "iterdir"), (Path, "rglob"),
                            (os, "scandir"), (os, "listdir")):
            monkeypatch.setattr(owner, name, refuse)
        cache.put(second, result)
        assert cache.get(second) is not None
        assert cache.manifest_path(second).exists()


class TestEviction:
    def test_hit_leaves_the_mtime_alone(self, tmp_path):
        """Recency lives in memory: a hit writes nothing to disk."""
        store = ContentStore(tmp_path, max_entries=8, max_bytes=0)
        spec = make_spec()
        put_cells(store, [spec])
        path = tmp_path / f"{store.key(spec)}.pkl"
        past = time.time() - 3600
        os.utime(path, (past, past))
        before = path.stat().st_mtime_ns
        assert store.get(spec) is not None
        assert path.stat().st_mtime_ns == before

    def test_entry_bound_evicts_least_recently_used(self, tmp_path):
        store = ContentStore(tmp_path, max_entries=2, max_bytes=0)
        a = make_spec(user_insts=201)
        b = make_spec(user_insts=202)
        c = make_spec(user_insts=203)
        put_cells(store, [a, b])
        store.get(a)  # a is now more recently used than b
        put_cells(store, [c])
        names = {p.stem for p in store.entries()}
        assert names == {store.key(a), store.key(c)}, "b was the LRU victim"
        assert store.stats.evictions == 1
        # The victim's manifest went with it.
        assert not store.manifest_path(b).exists()
        assert store.manifest_path(a).exists()

    def test_byte_bound_evicts(self, tmp_path):
        store = ContentStore(tmp_path, max_entries=0, max_bytes=1)
        put_cells(store, [make_spec(user_insts=201)])
        # One pickle is already over a 1-byte budget: evicted at once.
        assert store.entries() == []
        assert store.stats.evictions == 1

    def test_foreign_entries_are_evicted_first(self, tmp_path):
        """Files this process never touched (other processes' cells)
        are the first victims, oldest mtime first."""
        store = ContentStore(tmp_path, max_entries=2, max_bytes=0)
        spec = make_spec(user_insts=201)
        result = put_cells(store, [spec])[0]
        # Two foreign entries, published by "another process".
        other = ResultCache(tmp_path)
        foreign_old = make_spec(user_insts=202)
        foreign_new = make_spec(user_insts=203)
        other.put(foreign_old, result)
        other.put(foreign_new, result)
        past = time.time() - 3600
        os.utime(tmp_path / f"{store.key(foreign_old)}.pkl", (past, past))
        # Publishing one more cell pushes the store over budget by two;
        # both victims must be foreign, the oldest first.
        put_cells(store, [make_spec(user_insts=204)])
        names = {p.stem for p in store.entries()}
        assert store.key(foreign_old) not in names
        assert store.key(foreign_new) not in names
        assert store.key(spec) in names
        assert store.stats.evictions == 2

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = ContentStore(tmp_path, max_entries=0, max_bytes=0)
        put_cells(store, [make_spec(user_insts=n) for n in (201, 202, 203)])
        assert len(store.entries()) == 3
        assert store.stats.evictions == 0


class TestRead:
    """Reads by content address (a job's journaled key): the result or
    ``None``, counting no hit or miss, never a path outside the store."""

    def test_reads_only_a_stored_intact_key(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        spec = make_spec()
        (result,) = put_cells(store, [spec])
        key = store.key(spec)
        assert dataclasses.asdict(store.read(key).decode()) == dataclasses.asdict(
            result
        )
        # A sound entry one level up: only the key check keeps
        # "../escape" from reading it.
        escape = tmp_path / "escape.pkl"
        escape.write_bytes(CellEntry.of(result).encode())
        assert read_entry(escape) is not None
        assert store.read("../escape") is None
        assert store.read("ab" * 20) is None  # well formed, never stored
        path = store.directory / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.read(key) is None
        assert (store.stats.hits, store.stats.misses) == (0, 0)


def _flip_class_name(payload: bytes) -> bytes:
    """A high bit set in the class name's first byte: invalid UTF-8."""
    at = payload.index(b"SimResult")
    return payload[:at] + bytes([payload[at] ^ 0x80]) + payload[at + 1 :]


def _flip_cycles_digit(payload: bytes) -> bytes:
    """The low bit of the ``cycles`` value flipped: still a SimResult."""
    after_key = False
    for opcode, arg, pos in pickletools.genops(payload):
        if after_key and opcode.name.startswith("BININT"):
            return payload[: pos + 1] + bytes([payload[pos + 1] ^ 1]) + payload[pos + 2 :]
        after_key = after_key or arg == "cycles"
    raise AssertionError("no cycles value in the payload")


#: Damage to a stored payload, and what unpickling the damaged bytes
#: does: each of these raised out of ``get``, or returned a wrong
#: result, when an entry was a bare pickle with no checksum.
DAMAGE = {
    "flipped-byte": (_flip_class_name, UnicodeDecodeError),
    "pickled-int": (lambda payload: pickle.dumps(7), int),
    "missing-module": (
        lambda payload: payload.replace(b"repro.sim.simulator", b"repro.sim.simulatoz"),
        ModuleNotFoundError,
    ),
    "flipped-digit": (_flip_cycles_digit, SimResult),
}


def _split(path: Path) -> tuple[bytes, bytes]:
    """An entry file's header line (newline included) and payload."""
    data = path.read_bytes()
    newline = data.index(b"\n") + 1
    return data[:newline], data[newline:-4]


def _outcome(payload: bytes):
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - the damage's signature
        return exc


class TestEntries:
    """An entry is its header line, the pickled result and a CRC-32 of
    both; every read checks all three, and damage reads as a miss."""

    def test_entry_holds_the_header_and_the_pickle(self, tmp_path):
        store = ContentStore(tmp_path)
        spec = make_spec()
        (result,) = put_cells(store, [spec])
        entry = store.get(spec)
        assert entry.header == cell_header(run_cell(spec))
        assert dataclasses.asdict(pickle.loads(entry.payload)) == (
            dataclasses.asdict(run_cell(spec))
        )
        assert entry == store.read(store.key(spec))

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_payload_is_a_miss(self, tmp_path, damage):
        spec = make_spec()
        store = ContentStore(tmp_path)
        (result,) = put_cells(store, [spec])
        path = tmp_path / f"{store.key(spec)}.pkl"
        head, payload = _split(path)
        hurt, signature = DAMAGE[damage]
        damaged = hurt(payload)
        # The damage is what its name says.
        unpickled = _outcome(damaged)
        assert isinstance(unpickled, signature)
        if signature is SimResult:
            assert dataclasses.asdict(unpickled) != dataclasses.asdict(result)

        # Damaged on disk: the checksum no longer matches.
        path.write_bytes(head + damaged + zlib.crc32(head + payload).to_bytes(4, "big"))
        assert ResultCache(tmp_path).get(spec) is None
        assert store.get(spec) is None
        assert store.read(store.key(spec)) is None
        assert store.stats.misses == 1

        # Checksummed as it stands (written damaged): a payload that does
        # not decode to a SimResult is still a miss where it is decoded.
        path.write_bytes(head + damaged + zlib.crc32(head + damaged).to_bytes(4, "big"))
        if signature is not SimResult:
            assert ResultCache(tmp_path).get(spec) is None

    @pytest.mark.parametrize("how", ["truncated", "short", "other-format"])
    def test_damaged_frame_is_a_miss(self, tmp_path, how):
        spec = make_spec()
        store = ContentStore(tmp_path)
        put_cells(store, [spec])
        path = tmp_path / f"{store.key(spec)}.pkl"
        data = path.read_bytes()
        if how == "truncated":
            data = data[: len(data) // 2]
        elif how == "short":
            data = data[:3]
        else:
            body = data[:-4].replace(b"repro-cell/1", b"repro-cell/9")
            data = body + zlib.crc32(body).to_bytes(4, "big")
        path.write_bytes(data)
        assert ResultCache(tmp_path).get(spec) is None
        assert store.get(spec) is None
        assert store.read(store.key(spec)) is None


class TestEnvKnobs:
    def test_env_bounds_are_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_CACHE_ENTRIES", "5")
        monkeypatch.setenv("REPRO_SERVE_CACHE_MB", "2")
        store = ContentStore(tmp_path)
        assert store.max_entries == 5
        assert store.max_bytes == 2 * 1024 * 1024

    def test_bad_env_is_rejected_early(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_CACHE_ENTRIES", "many")
        import pytest

        with pytest.raises(ValueError, match="REPRO_SERVE_CACHE_ENTRIES"):
            ContentStore(tmp_path)
