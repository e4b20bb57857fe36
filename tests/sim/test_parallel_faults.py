"""Robustness tests for the parallel runner: crashed workers, hung
workers, cache atomicity, and environment propagation."""

import os
import pickle
import signal
import time

import pytest

from repro.sim.config import MachineConfig
from repro.sim.parallel import (
    CellPool,
    CellSpec,
    ResultCache,
    job_timeout,
    max_retries,
    run_cell,
    run_cells,
)


def _specs(n=3):
    mechanisms = ("perfect", "traditional", "multithreaded", "quickstart")
    return [
        CellSpec("compress", MachineConfig(mechanism=mechanisms[i]),
                 2000, 400, 150_000)
        for i in range(n)
    ]


def _same(a, b):
    return all(
        x.cycles == y.cycles
        and x.retired_user == y.retired_user
        and x.committed_fills == y.committed_fills
        for x, y in zip(a, b)
    )


@pytest.fixture
def no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")


@pytest.fixture
def serial_reference(no_cache):
    return run_cells(_specs(), jobs=1)


def test_killed_worker_is_retried_with_identical_results(
    tmp_path, monkeypatch, serial_reference
):
    latch = tmp_path / "kill.latch"
    latch.touch()
    monkeypatch.setenv("REPRO_TEST_WORKER_FAULT", f"kill:{latch}")
    results = run_cells(_specs(), jobs=3)
    assert not latch.exists(), "the sabotage never fired"
    assert _same(results, serial_reference)


def test_hung_worker_is_killed_and_retried(
    tmp_path, monkeypatch, serial_reference
):
    latch = tmp_path / "hang.latch"
    latch.touch()
    monkeypatch.setenv("REPRO_TEST_WORKER_FAULT", f"hang:{latch}")
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "15")
    results = run_cells(_specs(), jobs=3)
    assert not latch.exists(), "the sabotage never fired"
    assert _same(results, serial_reference)


def _refuse(specs, timeout=0.0):
    """Stands in for ``run_cell_batch`` in pool workers: every pool
    attempt fails (module level, so pool submissions can pickle it)."""
    raise RuntimeError("pool attempt refused")


def test_retries_exhausted_degrades_to_serial(monkeypatch, serial_reference):
    # Every pool attempt fails, so only the in-process rung can finish:
    # each cell must make exactly REPRO_RETRIES + 1 pool attempts first.
    import repro.sim.parallel as parallel

    monkeypatch.setenv("REPRO_RETRIES", "1")
    monkeypatch.setattr(parallel, "run_cell_batch", _refuse)
    attempts = []
    new_pool = parallel.CellPool._new_pool

    def counting_pool(self):
        pool = new_pool(self)
        submit = pool.submit

        def counted(fn, specs, **kwargs):
            attempts.append(specs[0].config.mechanism)
            return submit(fn, specs, **kwargs)

        pool.submit = counted
        return pool

    monkeypatch.setattr(parallel.CellPool, "_new_pool", counting_pool)
    specs = _specs()
    results = run_cells(specs, jobs=3)
    assert sorted(attempts) == sorted(
        spec.config.mechanism for spec in specs for _ in range(2)
    )
    assert _same(results, serial_reference)


def test_cell_submitted_as_an_idle_pool_breaks_is_retried(monkeypatch):
    """An idle worker dies while the next submit sits between the
    pool's broken check and recording its cell.  The pool's manager has
    no pending cell to fail, so only the submitter can see that this
    one was stranded: it must still resolve, identical to a serial run."""
    import concurrent.futures.process as futures_process

    first, second = (
        CellSpec("compress", MachineConfig(mechanism=mechanism), 300, 80, 2_000_000)
        for mechanism in ("traditional", "multithreaded")
    )
    pool = CellPool(2)
    try:
        pool.submit(first).result(timeout=60)  # both workers are up and idle
        executor = pool._pool
        work_item = futures_process._WorkItem
        held = []

        def kill_a_worker_first(*args):
            if not held:
                os.kill(next(iter(executor._processes)), signal.SIGKILL)
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline and not executor._broken:
                    time.sleep(0.01)
                held.append(bool(executor._broken))
            return work_item(*args)

        monkeypatch.setattr(futures_process, "_WorkItem", kill_a_worker_first)
        result = pool.submit(second).result(timeout=60)
    finally:
        pool.close()
    assert held == [True], "the pool never broke"
    assert _same([result], [run_cell(second)])


def test_cache_put_is_atomic_and_prunes_dead_writers(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _specs(1)[0]
    result = run_cell(spec)

    # A tmp file from a dead writer pid must be swept on the next put.
    stale = tmp_path / "deadbeef.pkl.tmp.999999999"
    tmp_path.mkdir(exist_ok=True)
    stale.write_bytes(b"partial")
    # Our own (live) tmp files are left alone.
    own = tmp_path / f"cafef00d.pkl.tmp.{os.getpid()}"
    own.write_bytes(b"in-flight")

    cache.put(spec, result)
    assert not stale.exists()
    assert own.exists()
    hit = cache.get(spec)
    assert hit is not None and hit.cycles == result.cycles

    # A truncated pickle under the final name is treated as a miss, not
    # an error.
    path = cache._path(spec)
    path.write_bytes(pickle.dumps(result)[:10])
    assert cache.get(spec) is None


def test_worker_env_propagates_fault_spec(monkeypatch):
    import repro.sim.parallel as parallel

    monkeypatch.setenv("REPRO_FAULTS", "seed:1,mem_delay:40")
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    spec = _specs(1)[0]
    env = parallel._worker_env()
    assert "REPRO_FAULTS" not in env  # the plan travels in the spec
    assert "REPRO_SANITIZE" not in env

    # A worker initialised from that env reproduces it exactly, and the
    # spec it unpickles still names the plan.
    monkeypatch.delenv("REPRO_FAULTS")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    parallel._worker_init(env)
    assert "REPRO_SANITIZE" not in os.environ
    shipped = pickle.loads(pickle.dumps(spec))
    assert shipped.config.faults == "seed:1,mem_delay:40"


def test_fault_spec_keys_the_cache(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    clean_path = cache._path(_specs(1)[0])
    monkeypatch.setenv("REPRO_FAULTS", "seed:1,mem_delay:40")
    assert cache._path(_specs(1)[0]) != clean_path


def test_knob_validation():
    for env, getter in (("REPRO_JOB_TIMEOUT", job_timeout),
                        ("REPRO_RETRIES", max_retries)):
        os.environ[env] = "nonsense"
        try:
            with pytest.raises(ValueError):
                getter()
            os.environ[env] = "-1"
            with pytest.raises(ValueError):
                getter()
        finally:
            del os.environ[env]
    assert job_timeout() == 0.0
    assert max_retries() == 2
