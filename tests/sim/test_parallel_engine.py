"""Engine wiring in the parallel runner: cache keys, the kernel a spec
carries into pool workers, the pool-worker entry point, and pool
bit-identity across kernels."""

import dataclasses
import json
from operator import attrgetter

from repro.sim.config import MachineConfig
from repro.sim.parallel import (
    _WORKER_ENV_KEYS,
    CellPool,
    CellSpec,
    ResultCache,
    run_cell,
    run_cell_batch,
    run_cells,
)


def _spec(mechanism="traditional", user_insts=600):
    return CellSpec(
        workload="compress",
        config=MachineConfig(mechanism=mechanism, idle_threads=1),
        user_insts=user_insts,
        warmup_insts=150,
        max_cycles=2_000_000,
    )


class TestCacheKey:
    def test_engine_keys_the_cache_path(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        reference_path = cache._path(_spec())
        monkeypatch.setenv("REPRO_ENGINE", "fused")
        fused_path = cache._path(_spec())
        assert reference_path != fused_path

    def test_old_engine_name_keys_the_fused_cache_path(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        paths = {}
        for engine in ("batched", "fused", "reference"):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            paths[engine] = cache._path(_spec())
        assert paths["batched"] == paths["fused"] != paths["reference"]

    def test_fused_result_never_serves_reference_request(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        monkeypatch.setenv("REPRO_ENGINE", "fused")
        spec = _spec()
        cache.put(spec, run_cell(spec))
        assert cache.get(spec) is not None
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert cache.get(_spec()) is None
        # A spec keeps the kernel it was made with.
        assert cache.get(spec) is not None


class TestWorkerEnv:
    def test_engine_propagates_to_pool_workers(self, monkeypatch):
        # The kernel travels in the pickled spec, not the worker's env.
        assert "REPRO_ENGINE" not in _WORKER_ENV_KEYS
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        spec = _spec()
        monkeypatch.setenv("REPRO_ENGINE", "fused")
        pool = CellPool(1)._new_pool()
        try:
            assert pool.submit(attrgetter("engine"), spec).result() == (
                "reference"
            )
        finally:
            pool.shutdown()


class TestBatchClaims:
    def test_run_cell_batch_matches_run_cell(self):
        specs = [_spec("traditional"), _spec("multithreaded")]
        expected = [
            run_cell(dataclasses.replace(s, engine="reference")) for s in specs
        ]
        for engine in ("fused", "reference"):
            assert run_cell_batch(
                [dataclasses.replace(s, engine=engine) for s in specs]
            ) == expected

    def test_pool_is_bit_identical_across_engines(self, tmp_path, monkeypatch):
        # The default kernel on the pool against the reference kernel
        # run serially; the manifests name the kernel the pool ran.
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        specs = [_spec("traditional"), _spec("quickstart"), _spec("hardware")]
        serial = [
            run_cell(dataclasses.replace(s, engine="reference")) for s in specs
        ]
        assert run_cells(specs, jobs=2) == serial
        cache = ResultCache()
        for spec in specs:
            manifest = json.loads(cache.manifest_path(spec).read_text())
            assert manifest["engine_backend"] == "fused"
