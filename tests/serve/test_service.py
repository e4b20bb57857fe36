"""The sweep service core: spec codec, dedupe, bit-identity, failure,
and recovery from a crashed pool worker."""

from __future__ import annotations

import asyncio
import dataclasses

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
from repro.serve.store import ContentStore
from repro.sim.config import FUPool, MachineConfig
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

    def test_failing_cell_resolves_waiters_with_the_error(
        self, tmp_path, monkeypatch
    ):
        """A cell that fails deterministically must error out every
        waiter -- including deduped ones -- never hang them."""
        import repro.serve.service as service_mod

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(service_mod, "run_cell_batch", boom)
        monkeypatch.setattr(service_mod, "run_cell", boom)
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
        make_pool = service._make_pool
        monkeypatch.setattr(
            service, "_make_pool", lambda: pools_made.append(1) or make_pool()
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
