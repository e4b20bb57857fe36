"""The sweep service core: spec codec, dedupe, bit-identity, failure,
and recovery from crashed and hung pool workers."""

from __future__ import annotations

import asyncio
import dataclasses
import time

import pytest

from repro.serve.service import (
    SweepRequestError,
    SweepService,
    config_from_dict,
    config_to_dict,
    expand_sweep,
    spec_from_dict,
    spec_to_dict,
    summarize,
)
from repro.serve import service
from repro.serve.store import ContentStore
from repro.sim.config import MECHANISMS, FUPool, MachineConfig
from repro.sim.parallel import run_cell
from tests.serve.helpers import make_grid, make_service, make_spec


class TestCodec:
    def test_config_round_trips(self):
        config = MachineConfig(
            mechanism="multithreaded",
            idle_threads=2,
            fu_pool=FUPool(alu=3),
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_spec_round_trips(self):
        spec = make_spec(mechanism="hardware", user_insts=777)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_mix_workload_round_trips(self):
        spec = dataclasses.replace(make_spec(), workload=("compress", "murphi"))
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_unknown_config_key_is_rejected(self):
        with pytest.raises(SweepRequestError, match="unknown config key"):
            config_from_dict({"mechanism": "traditional", "warp_drive": 9})

    def test_unknown_workload_is_rejected(self):
        with pytest.raises(SweepRequestError, match="unknown workload"):
            spec_from_dict({"workload": "doom"})

    def test_warm_from_cannot_cross_the_wire(self):
        """A checkpoint *path* is local state; the wire format rejects
        it (clients use the sweep-level ``warm`` flag instead)."""
        with pytest.raises(SweepRequestError, match="unknown cell key"):
            spec_from_dict({"workload": "compress", "warm_from": "/tmp/x"})

    def test_warm_cells_have_no_wire_format(self):
        """Warm cells run where their checkpoint was derived: neither
        side of the codec carries one, but the null ``warm_hash`` that
        older job files hold still decodes."""
        warm = dataclasses.replace(make_spec(), warm_hash="ab" * 8)
        with pytest.raises(ValueError, match="warm"):
            spec_to_dict(warm)
        with pytest.raises(SweepRequestError, match="warm_hash must be null"):
            spec_from_dict({"workload": "compress", "warm_hash": "ab" * 8})
        cold = make_spec()
        assert "warm_hash" not in spec_to_dict(cold)
        assert spec_from_dict({**spec_to_dict(cold), "warm_hash": None}) == cold

    def test_negative_lengths_are_rejected(self):
        with pytest.raises(SweepRequestError, match="user_insts"):
            spec_from_dict({"workload": "compress", "user_insts": -1})


class TestExpandSweep:
    def test_grid_is_the_cross_product(self):
        specs, options = expand_sweep(
            {
                "workloads": ["compress", "murphi"],
                "mechanisms": ["traditional", "multithreaded"],
                "user_insts": 300,
                "warm": True,
            }
        )
        assert len(specs) == 4
        assert options == {"warm": True, "include_results": True}
        assert {s.config.mechanism for s in specs} == {
            "traditional",
            "multithreaded",
        }

    def test_grid_builds_one_config_per_override_and_mechanism(
        self, monkeypatch
    ):
        calls = []

        def counting(data):
            calls.append(data)
            return config_from_dict(data)

        monkeypatch.setattr(service, "config_from_dict", counting)
        specs, _ = expand_sweep(
            {
                "workloads": ["compress", "gcc", "murphi", "vortex"],
                "mechanisms": list(MECHANISMS),
            }
        )
        assert len(specs) == 20
        assert len(calls) == 5
        assert [s.config.mechanism for s in specs[:5]] == list(MECHANISMS)
        assert specs[0].config is specs[5].config

    def test_explicit_cells(self):
        spec = make_spec()
        specs, options = expand_sweep(
            {"cells": [spec_to_dict(spec)], "include_results": False}
        )
        assert specs == [spec]
        assert options["include_results"] is False

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"workloads": []}, "non-empty workloads"),
            ({"workloads": ["compress"], "mechanisms": ["warp"]}, "unknown mechanism"),
            ({"cells": []}, "non-empty list"),
            ({"sweeps": [1]}, "unknown sweep key"),
            ([1, 2], "must be a JSON object"),
            ({"workloads": ["compress"], "configs": [[1]]}, "must be an object"),
            ({"workloads": ["compress"], "configs": ["abc"]}, "must be an object"),
            ({"workloads": [1]}, "name or list of names"),
            ({"workloads": ["compress"], "warm": "false"}, "warm must be"),
            ({"workloads": ["compress"], "include_results": 1}, "include_results"),
            ({"workloads": ["compress"], "configs": [{"fu_pool": 5}]}, "fu_pool must"),
            (
                {"workloads": ["compress"], "configs": [{"hierarchy": []}]},
                "hierarchy must be an object",
            ),
            (
                {"workloads": ["compress"], "configs": [{"limits": "x"}]},
                "limits must be an object",
            ),
            (
                {"workloads": ["compress"], "configs": [{"idle_threads": "x"}]},
                "idle_threads must be a int",
            ),
            (
                {"workloads": ["compress"], "configs": [{"width": True}]},
                "width must be a int",
            ),
            (
                {"workloads": ["compress"], "configs": [{"align_check": 1}]},
                "align_check must be a bool",
            ),
            (
                {
                    "workloads": ["compress"],
                    "configs": [{"limits": {"instant_fetch": "yes"}}],
                },
                "instant_fetch must be a bool",
            ),
            (
                {"workloads": ["compress"], "configs": [{"faults": 5}]},
                "faults must be a str",
            ),
        ],
    )
    def test_bad_requests_are_rejected(self, payload, match):
        with pytest.raises(SweepRequestError, match=match):
            expand_sweep(payload)

    def test_cell_limit_is_enforced(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_CELLS", "3")
        with pytest.raises(SweepRequestError, match="REPRO_SERVE_MAX_CELLS"):
            expand_sweep(
                {
                    "workloads": ["compress", "murphi"],
                    "mechanisms": ["traditional", "multithreaded"],
                }
            )


class TestResolution:
    def test_results_match_serial_run_cell(self, tmp_path):
        """Service outcomes are bit-identical to in-process runs."""
        service = make_service(tmp_path)
        specs = make_grid()[:2]
        outcomes = asyncio.run(service.run_cells(specs))
        for spec, outcome in zip(specs, outcomes):
            assert outcome.spec == spec
            assert dataclasses.asdict(outcome.result) == dataclasses.asdict(
                run_cell(spec)
            )
            assert not outcome.cached and not outcome.deduped
        assert service.cells_simulated == 2

    def test_wire_cell_runs_the_clients_fault_plan(self, tmp_path, monkeypatch):
        """The plan travels in the config: a server whose environment
        has no ``REPRO_FAULTS`` runs a decoded cell under the client's
        plan, as the client would locally."""
        monkeypatch.setenv("REPRO_FAULTS", "seed:5,tlb_evict:30,pte_corrupt:60")
        spec = make_spec(user_insts=1500, warmup_insts=400)
        local = run_cell(spec)
        wire = spec_to_dict(spec)
        monkeypatch.delenv("REPRO_FAULTS")
        service = make_service(tmp_path)
        (outcome,) = asyncio.run(service.run_cells([spec_from_dict(wire)]))
        assert dataclasses.asdict(outcome.result) == dataclasses.asdict(local)

    def test_duplicates_in_one_request_are_deduped(self, tmp_path):
        """N copies of one cell in a request cost one simulation; the
        extra copies are flagged deduped and counted as in-flight hits."""
        service = make_service(tmp_path)
        spec = make_spec()
        outcomes = asyncio.run(service.run_cells([spec, spec, spec]))
        assert service.cells_simulated == 1
        assert service.store.stats.inflight_hits == 2
        assert [o.deduped for o in outcomes] == [False, True, True]
        results = [dataclasses.asdict(o.result) for o in outcomes]
        assert results[0] == results[1] == results[2]

    def test_concurrent_requests_share_simulations(self, tmp_path):
        """Overlapping requests from different clients never repeat a
        cell: total simulations == unique cells."""
        service = make_service(tmp_path)
        specs = make_grid()[:2]

        async def both():
            return await asyncio.gather(
                service.run_cells(specs), service.run_cells(specs)
            )

        first, second = asyncio.run(both())
        assert service.cells_simulated == len(specs)
        for a, b in zip(first, second):
            assert dataclasses.asdict(a.result) == dataclasses.asdict(b.result)
        # Every resolution beyond the first per cell came from the
        # store or the in-flight table, never a second simulation.
        stats = service.store.stats
        assert stats.inflight_hits + stats.hits == len(specs)

    def test_second_request_is_served_from_store(self, tmp_path):
        service = make_service(tmp_path)
        specs = make_grid()[:2]
        asyncio.run(service.run_cells(specs))
        outcomes = asyncio.run(service.run_cells(specs))
        assert all(o.cached for o in outcomes)
        assert service.cells_simulated == len(specs)  # no re-runs

    def test_hot_sweep_reads_the_store_in_one_executor_call(
        self, tmp_path, monkeypatch
    ):
        """A request's store reads cost one thread round trip, however
        many cells it has, and every read still goes through
        ``store.get``."""
        service = make_service(tmp_path)
        specs = [make_spec(user_insts=300 + n) for n in range(20)]
        result = run_cell(specs[0])
        for spec in specs:
            service.store.put(spec, result)
        calls = []
        original = asyncio.BaseEventLoop.run_in_executor

        def counting(loop, executor, func, *args):
            calls.append(func)
            return original(loop, executor, func, *args)

        monkeypatch.setattr(asyncio.BaseEventLoop, "run_in_executor", counting)
        outcomes = asyncio.run(service.run_cells(specs))
        assert len(calls) == 1
        assert all(o.cached and not o.deduped for o in outcomes)
        assert service.store.stats.hits == 20
        assert service.cells_simulated == 0

    def test_mixed_sweep_yields_each_index_once(self, tmp_path):
        """Hits, a duplicated miss and a lone miss in one request: every
        index comes back once, flagged by how it was resolved."""
        service = make_service(tmp_path)
        hit_a, hit_b = make_spec(user_insts=301), make_spec(user_insts=302)
        for spec in (hit_a, hit_b):
            service.store.put(spec, run_cell(spec))
        miss, lone = make_spec(user_insts=303), make_spec(mechanism="hardware")
        specs = [hit_a, miss, hit_b, miss, lone]

        async def collect():
            return [item async for item in service.stream_cells(specs)]

        items = asyncio.run(collect())
        assert sorted(index for index, _ in items) == list(range(len(specs)))
        flags = {index: (o.cached, o.deduped) for index, o in items}
        assert flags == {
            0: (True, False),
            1: (False, False),
            2: (True, False),
            3: (False, True),
            4: (False, False),
        }
        outcomes = dict(items)
        for index, spec in enumerate(specs):
            assert outcomes[index].spec == spec
            assert outcomes[index].result.cycles == run_cell(spec).cycles
        stats = service.store.stats
        assert (stats.hits, stats.misses, stats.inflight_hits) == (2, 3, 1)
        assert service.cells_simulated == 2

    def test_failing_cell_resolves_waiters_with_the_error(
        self, tmp_path, monkeypatch
    ):
        """A cell that fails deterministically must error out every
        waiter -- including deduped ones -- never hang them."""
        import repro.sim.parallel as parallel

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(parallel, "run_cell_batch", boom)
        monkeypatch.setattr(parallel, "run_cell", boom)
        service = make_service(tmp_path)
        spec = make_spec()

        async def run():
            return await asyncio.wait_for(
                service.run_cells([spec, spec]), timeout=60
            )

        with pytest.raises(RuntimeError, match="engine exploded"):
            asyncio.run(run())

    def test_killed_pool_worker_is_recovered_per_cell(
        self, tmp_path, monkeypatch
    ):
        """A real pool worker dies with four distinct cells in flight:
        every cell still resolves, bit-identical to a serial run, each
        simulated exactly once, and nothing is left in flight."""
        latch = tmp_path / "kill.latch"
        latch.touch()
        monkeypatch.setenv("REPRO_TEST_WORKER_FAULT", f"kill:{latch}")
        service = SweepService(
            store=ContentStore(tmp_path / "store"), pools=1, workers=2
        )
        pools_made = []
        make_pool = service.pool._new_pool
        monkeypatch.setattr(
            service.pool, "_new_pool", lambda: pools_made.append(1) or make_pool()
        )
        specs = make_grid()

        async def run():
            try:
                return await asyncio.wait_for(
                    service.run_cells(specs), timeout=300
                )
            finally:
                service.close()

        outcomes = asyncio.run(run())
        assert not latch.exists(), "the sabotage never fired"
        for spec, outcome in zip(specs, outcomes):
            assert dataclasses.asdict(outcome.result) == dataclasses.asdict(
                run_cell(spec)
            )
        assert service.cells_simulated == 4
        assert service._inflight == {}
        # The first pool plus one rebuild: cells that failed on the same
        # broken pool retry on its replacement instead of each building
        # (and shutting down) another.
        assert len(pools_made) == 2

    # The manager thread that dies mid-sweep is the scenario, not a bug.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    @pytest.mark.parametrize("recorded", ["after_the_sweep", "during_the_sweep"])
    def test_cell_submitted_as_its_pool_breaks_is_retried(
        self, recorded, tmp_path, monkeypatch
    ):
        """ProcessPoolExecutor does not lock ``submit`` against a broken
        pool's manager thread.  The second submit is held between its
        broken check and recording its cell while the killed worker's
        pool fails the pending cells, then released after that sweep
        (which never sees the cell) or during it (the changed dict kills
        the manager before it stops the workers).  Either way the cell
        must retry and resolve, and no worker may outlive its pool."""
        import concurrent.futures.process as futures_process

        latch = tmp_path / "kill.latch"
        latch.touch()
        monkeypatch.setenv("REPRO_TEST_WORKER_FAULT", f"kill:{latch}")
        service = SweepService(
            store=ContentStore(tmp_path / "store"), pools=1, workers=2
        )
        pools = []
        make_pool = service.pool._new_pool
        monkeypatch.setattr(
            service.pool, "_new_pool", lambda: pools.append(make_pool()) or pools[-1]
        )
        work_item = futures_process._WorkItem
        held, workers = [], []

        def released(pool):
            if recorded == "during_the_sweep":
                return bool(pool._broken)
            return bool(pool._broken) and not pool._pending_work_items

        def hold_second_submit(*args):
            held.append(False)
            if len(held) == 2:
                first = pools[0]
                workers.extend(first._processes.values())
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline and not released(first):
                    time.sleep(0.01)
                held[-1] = released(first)
            return work_item(*args)

        monkeypatch.setattr(futures_process, "_WorkItem", hold_second_submit)
        if recorded == "during_the_sweep":
            # The sweep's first callback (the killed cell's) pauses the
            # manager, GIL released, with the held submit about to record.
            settle, paused = service.pool._settle, []

            def pause_the_sweep(*args):
                if not paused:
                    paused.append(True)
                    time.sleep(0.5)
                return settle(*args)

            monkeypatch.setattr(service.pool, "_settle", pause_the_sweep)
        specs = make_grid()

        async def run():
            try:
                return await asyncio.wait_for(
                    service.run_cells(specs), timeout=60
                )
            finally:
                service.close()

        try:
            outcomes = asyncio.run(run())
        finally:
            for proc in workers:
                proc.join(10)
            alive = [proc for proc in workers if proc.is_alive()]
            for proc in alive:
                proc.kill()  # a straggler would hang the interpreter's exit
        assert held[1], "the second submit never saw its pool break"
        assert not alive, "a worker outlived its broken pool"
        for spec, outcome in zip(specs, outcomes):
            assert dataclasses.asdict(outcome.result) == dataclasses.asdict(
                run_cell(spec)
            )
        assert service.cells_simulated == 4
        assert service._inflight == {}
        assert len(pools) == 2

    def test_hung_pool_worker_times_out_per_cell(self, tmp_path, monkeypatch):
        """A real pool worker hangs with four distinct cells in flight:
        REPRO_JOB_TIMEOUT interrupts that one cell inside its worker and
        the cell is retried, so every waiter resolves, bit-identical,
        and nothing is left in flight."""
        latch = tmp_path / "hang.latch"
        latch.touch()
        monkeypatch.setenv("REPRO_TEST_WORKER_FAULT", f"hang:{latch}")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "5")
        service = SweepService(
            store=ContentStore(tmp_path / "store"), pools=1, workers=2
        )
        specs = make_grid()

        async def run():
            try:
                return await asyncio.wait_for(
                    service.run_cells(specs), timeout=120
                )
            finally:
                service.close()

        outcomes = asyncio.run(run())
        assert not latch.exists(), "the sabotage never fired"
        for spec, outcome in zip(specs, outcomes):
            assert dataclasses.asdict(outcome.result) == dataclasses.asdict(
                run_cell(spec)
            )
        assert service.cells_simulated == 4
        assert service._inflight == {}

    def test_exhausted_retries_finish_lost_cells_in_process(
        self, tmp_path, monkeypatch
    ):
        """With REPRO_RETRIES=0 the cells lost with a killed worker are
        never resubmitted to a pool: they complete in process, still
        bit-identical."""
        import repro.sim.parallel as parallel

        latch = tmp_path / "kill.latch"
        latch.touch()
        monkeypatch.setenv("REPRO_TEST_WORKER_FAULT", f"kill:{latch}")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        in_process = []
        real_run_cell = parallel.run_cell
        monkeypatch.setattr(
            parallel,
            "run_cell",
            lambda spec, *a: in_process.append(spec) or real_run_cell(spec, *a),
        )
        service = SweepService(
            store=ContentStore(tmp_path / "store"), pools=1, workers=2
        )
        submitted = []
        make_pool = service.pool._new_pool

        def counting_pool():
            pool = make_pool()
            submit = pool.submit
            pool.submit = lambda fn, specs, **kw: submitted.append(specs) or submit(
                fn, specs, **kw
            )
            return pool

        monkeypatch.setattr(service.pool, "_new_pool", counting_pool)
        specs = make_grid()

        async def run():
            try:
                return await asyncio.wait_for(
                    service.run_cells(specs), timeout=300
                )
            finally:
                service.close()

        outcomes = asyncio.run(run())
        assert not latch.exists(), "the sabotage never fired"
        # One pool, each cell submitted to it once; whatever it lost
        # (at least the killed worker's cell) ran here instead.
        assert len(submitted) == len(specs)
        assert in_process
        for spec, outcome in zip(specs, outcomes):
            assert dataclasses.asdict(outcome.result) == dataclasses.asdict(
                real_run_cell(spec)
            )
        assert service.cells_simulated == 4
        assert service._inflight == {}

    def test_pools_take_only_zero_or_one(self, tmp_path):
        with pytest.raises(ValueError, match="pools must be 0"):
            SweepService(store=ContentStore(tmp_path), pools=2)

    def test_bad_knob_fails_at_construction(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_JOB_TIMEOUT"):
            make_service(tmp_path)

    def test_stats_dict_shape(self, tmp_path):
        service = make_service(tmp_path)
        asyncio.run(service.run_cells([make_spec()]))
        stats = service.stats_dict()
        assert stats["kind"] == "repro-serve-stats"
        assert stats["requests"] == 1
        assert stats["cells_requested"] == 1
        assert stats["cells_simulated"] == 1
        assert stats["inflight"] == 0
        assert stats["cache"]["puts"] == 1


class TestSummarize:
    def test_summary_counts_resolutions(self, tmp_path):
        service = make_service(tmp_path)
        spec = make_spec()
        outcomes = asyncio.run(service.run_cells([spec, spec]))
        again = asyncio.run(service.run_cells([spec]))
        summary = summarize(outcomes + again)
        assert summary["kind"] == "summary"
        assert summary["cells"] == 3
        assert summary["simulated"] == 1
        assert summary["deduped"] == 1
        assert summary["cached"] == 1
        row = summary["table"][0]
        assert row["workload"] == "compress"
        assert row["cycles"] > 0
        assert isinstance(row["exceptions_taken"], dict)
