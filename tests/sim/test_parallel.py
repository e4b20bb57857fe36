"""The parallel experiment runner: determinism, ordering, caching."""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.sim.config import MachineConfig
from repro.sim.parallel import (
    CellSpec,
    ResultCache,
    _worker_init,
    default_jobs,
    run_cell,
    run_cells,
)
from repro.sim.simulator import SimResult


def make_specs() -> list[CellSpec]:
    """A small grid: 2 benchmarks x 2 mechanisms."""
    return [
        CellSpec(
            workload=bench,
            config=MachineConfig(mechanism=mech, idle_threads=1),
            user_insts=600,
            warmup_insts=150,
            max_cycles=2_000_000,
        )
        for bench in ("compress", "murphi")
        for mech in ("traditional", "multithreaded")
    ]


def result_key(result: SimResult) -> dict:
    return dataclasses.asdict(result)


class TestDeterminism:
    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        """jobs=2 and jobs=1 produce identical stats for every cell."""
        monkeypatch.setenv("REPRO_CACHE", "0")
        serial = run_cells(make_specs(), jobs=1)
        parallel = run_cells(make_specs(), jobs=2)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert result_key(s) == result_key(p)

    def test_mix_workload(self, monkeypatch):
        """Tuple workloads (multiprogrammed mixes) run and are ordered."""
        monkeypatch.setenv("REPRO_CACHE", "0")
        spec = CellSpec(
            workload=("compress", "murphi"),
            config=MachineConfig(mechanism="multithreaded", idle_threads=1),
            user_insts=400,
            warmup_insts=100,
            max_cycles=2_000_000,
        )
        (a,), (b,) = run_cells([spec], jobs=1), run_cells([spec], jobs=2)
        assert result_key(a) == result_key(b)
        assert len(a.per_thread_user) >= 2


class TestCache:
    def test_second_run_is_served_from_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        cache = ResultCache(tmp_path)
        specs = make_specs()[:2]
        first = run_cells(specs, jobs=1, cache=cache)
        files = list(tmp_path.glob("*.pkl"))
        assert len(files) == 2

        # Poison run_cell: a cache hit must not re-simulate.
        import repro.sim.parallel as parallel_mod

        def boom(spec):  # pragma: no cover - would fail the test
            raise AssertionError("cache miss: cell was re-simulated")

        monkeypatch.setattr(parallel_mod, "run_cell", boom)
        second = run_cells(specs, jobs=1, cache=cache)
        for a, b in zip(first, second):
            assert result_key(a) == result_key(b)

    def test_cache_key_separates_configs(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        specs = make_specs()
        run_cells(specs, jobs=1, cache=cache)
        # 4 distinct (workload, config) cells -> 4 distinct entries.
        assert len(list(tmp_path.glob("*.pkl"))) == 4

    def test_disabled_cache_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_cells(make_specs()[:1], jobs=1)
        assert list(tmp_path.glob("*.pkl")) == []

    def test_cache_object_honors_disable_itself(self, tmp_path, monkeypatch):
        """REPRO_CACHE=0 gates get/put inside the cache: an explicitly
        held ResultCache drops puts and misses gets, so callers never
        need their own enabled() guard."""
        cache = ResultCache(tmp_path)
        spec = make_specs()[0]
        (result,) = run_cells([spec], jobs=1, cache=cache)
        assert cache.get(spec) is not None
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert cache.get(spec) is None  # entry exists; gate says miss
        other = make_specs()[1]
        cache.put(other, result)
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert cache.get(other) is None  # the put was dropped


class TestEngineFingerprint:
    def test_source_tree_is_hashed_exactly_once_per_process(self, tmp_path):
        """The fingerprint walks the whole source tree; callers hit it
        on every cache key, so it must be computed once and memoized."""
        import repro.sim.parallel as parallel_mod
        from repro.sim.parallel import engine_fingerprint

        parallel_mod._FINGERPRINT_CACHE.clear()
        baseline = parallel_mod._fingerprint_passes
        first = engine_fingerprint()
        for _ in range(3):
            assert engine_fingerprint() == first
        # Cache-key construction reuses the memo too.
        ResultCache(tmp_path)._path(make_specs()[0])
        assert parallel_mod._fingerprint_passes == baseline + 1

    def test_repeat_call_does_no_filesystem_work(self, monkeypatch):
        """Manifests, warm tokens and checkpoint saves call it on every
        use, so a memoized fingerprint must be a plain dict hit."""
        from pathlib import Path

        from repro.sim.parallel import engine_fingerprint

        first = engine_fingerprint()
        calls = []

        def recording(name):
            original = getattr(Path, name)

            def wrapper(self, *args, **kwargs):
                calls.append(name)
                return original(self, *args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            for name in ("resolve", "rglob", "read_bytes", "stat"):
                patch.setattr(Path, name, recording(name))
            again = engine_fingerprint()
        assert calls == []
        assert again == first


class TestManifestFailureContainment:
    def test_put_survives_non_oserror_manifest_failure(
        self, tmp_path, monkeypatch
    ):
        """Once the pickle is published the cell *is* cached: a manifest
        builder blowing up (any exception, not just OSError) must warn
        once, not crash the worker."""
        import repro.obs.manifest as manifest_mod

        def broken(*args, **kwargs):
            raise ValueError("unserializable counter")

        monkeypatch.setattr(manifest_mod, "build_manifest", broken)
        monkeypatch.setattr(ResultCache, "_manifest_warned", False)
        cache = ResultCache(tmp_path)
        spec = make_specs()[0]
        result = run_cell(spec)

        with pytest.warns(RuntimeWarning, match="manifest write failed"):
            cache.put(spec, result)
        # The result itself was published and is served...
        assert result_key(cache.get(spec)) == result_key(result)
        # ...without a manifest, and without leaking a temp file.
        assert not cache.manifest_path(spec).exists()
        assert list(tmp_path.glob("*.tmp.*")) == []

        # The warning is a once-per-process latch, not per-cell noise.
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            cache.put(spec, result)  # a second failure stays silent

    def test_oserror_manifest_failure_stays_silent(
        self, tmp_path, monkeypatch
    ):
        """I/O trouble (read-only dir, ENOSPC) already degrades the
        pickle path quietly; the manifest path matches."""
        import warnings as warnings_mod

        import repro.obs.manifest as manifest_mod

        def no_space(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(manifest_mod, "write_manifest", no_space)
        monkeypatch.setattr(ResultCache, "_manifest_warned", False)
        cache = ResultCache(tmp_path)
        spec = make_specs()[0]
        result = run_cell(spec)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            cache.put(spec, result)
        assert result_key(cache.get(spec)) == result_key(result)


class TestJobs:
    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert default_jobs() == 7

    @pytest.mark.parametrize("raw", ["many", "2.5", "-3", "1e3"])
    def test_invalid_env_is_rejected_early(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()

    @pytest.mark.parametrize("raw", ["", "0", " 0 "])
    def test_zero_or_unset_means_cpu_count(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        assert default_jobs() >= 1


class TestSanitizePropagation:
    def test_worker_init_sets_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        _worker_init({"REPRO_SANITIZE": "1"})
        assert os.environ["REPRO_SANITIZE"] == "1"

    def test_worker_init_clears_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        _worker_init({})
        assert "REPRO_SANITIZE" not in os.environ

    def test_sanitized_parallel_run_matches_serial(
        self, tmp_path, monkeypatch
    ):
        """A sanitized fan-out completes and stays bit-identical."""
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        specs = make_specs()[:2]
        parallel = run_cells(specs, jobs=2, cache=None)
        monkeypatch.delenv("REPRO_SANITIZE")
        serial = run_cells(specs, jobs=1, cache=None)
        assert [result_key(r) for r in parallel] == [
            result_key(r) for r in serial
        ]
