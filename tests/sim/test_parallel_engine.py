"""Engine wiring in the parallel runner: cache keys, worker env
propagation, the pool-worker entry point, and pool bit-identity across
kernels."""

from repro.sim.config import MachineConfig
from repro.sim.parallel import (
    _WORKER_ENV_KEYS,
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
        spec = _spec()
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        reference_path = cache._path(spec)
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        batched_path = cache._path(spec)
        assert reference_path != batched_path

    def test_batched_result_never_serves_reference_request(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        spec = _spec()
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        cache.put(spec, run_cell(spec))
        assert cache.get(spec) is not None
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert cache.get(spec) is None


class TestWorkerEnv:
    def test_engine_propagates_to_pool_workers(self):
        assert "REPRO_ENGINE" in _WORKER_ENV_KEYS


class TestBatchClaims:
    def test_run_cell_batch_matches_run_cell(self):
        specs = [_spec("traditional"), _spec("multithreaded")]
        expected = [run_cell(s, engine="reference") for s in specs]
        assert run_cell_batch(specs, engine="batched") == expected
        assert run_cell_batch(specs, engine="reference") == expected

    def test_pool_is_bit_identical_across_engines(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        specs = [_spec("traditional"), _spec("quickstart"), _spec("hardware")]
        serial = [run_cell(s, engine="reference") for s in specs]
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        assert run_cells(specs, jobs=2) == serial
