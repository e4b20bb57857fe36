"""Smoke + shape tests for the experiment harnesses.

Each harness runs with a tiny Settings (two benchmarks, short runs) to
verify plumbing; the fig5 shape test asserts the paper's headline
ordering on the two most miss-heavy benchmarks.  The grid tests pin how
the cells are resolved: one resolver call per experiment, and every
cell through it (so ``--server`` reaches all of them).
"""

import sys
from types import SimpleNamespace

import pytest

from repro.experiments import (
    common,
    fig2_pipeline,
    fig3_width,
    fig5_mechanisms,
    fig6_quickstart,
    fig7_multiprogram,
    table2_suite,
    table3_limits,
    table4_speedups,
)
from repro.experiments.common import ExperimentResult, Row, Settings
from repro.sim import parallel
from repro.sim.config import MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads.suite import build_benchmark

TINY = Settings(
    user_insts=2_500,
    warmup_insts=800,
    max_cycles=4_000_000,
    benchmarks=("compress", "vortex"),
)


class TestFig2:
    def test_penalty_grows_with_pipe_depth(self):
        result = fig2_pipeline.run(TINY)
        for bench in TINY.benchmarks:
            shallow = result.cell(bench, "3 stages").penalty_per_miss
            deep = result.cell(bench, "11 stages").penalty_per_miss
            assert deep > shallow, bench

    def test_rows_complete(self):
        result = fig2_pipeline.run(TINY)
        assert len(result.rows) == len(TINY.benchmarks) * 3


class TestFig3:
    def test_overhead_grows_with_width(self):
        result = fig3_width.run(TINY)
        for bench in TINY.benchmarks:
            norm = fig3_width.normalized_overheads(result, bench)
            assert norm["2-wide"] == pytest.approx(1.0)
            assert norm["8-wide"] > 1.0, bench


class TestFig5:
    def test_paper_headline_ordering(self):
        result = fig5_mechanisms.run(TINY)
        for bench in TINY.benchmarks:
            trad = result.cell(bench, "traditional").penalty_per_miss
            mt1 = result.cell(bench, "multithreaded(1)").penalty_per_miss
            mt3 = result.cell(bench, "multithreaded(3)").penalty_per_miss
            hw = result.cell(bench, "hardware").penalty_per_miss
            assert trad > mt1 > hw, bench
            assert mt3 <= mt1 * 1.1, bench

    def test_multithreading_roughly_halves_the_penalty(self):
        result = fig5_mechanisms.run(TINY)
        trad = result.average_penalty("traditional")
        mt1 = result.average_penalty("multithreaded(1)")
        assert 1.3 < trad / mt1 < 3.5


class TestTable3:
    def test_instant_fetch_is_the_big_knob(self):
        result = table3_limits.run(TINY)
        multi = result.average_penalty("Multithreaded")
        instant = result.average_penalty("Multi w/ instant handler fetch/decode")
        hardware = result.average_penalty("Hardware TLB miss handler")
        assert instant < multi
        assert hardware <= instant


class TestFig6:
    def test_quickstart_lands_between_multithreaded_and_hardware(self):
        result = fig6_quickstart.run(TINY)
        mt = result.average_penalty("multithreaded(1)")
        qs = result.average_penalty("quick start(1)")
        hw = result.average_penalty("hardware")
        assert hw < qs < mt


class TestTables:
    def test_table2_reports_all_benchmarks(self):
        rows = table2_suite.run(TINY)
        assert [r.name for r in rows] == list(TINY.benchmarks)
        assert all(r.tlb_misses > 0 for r in rows)

    def test_table4_speedups_positive_for_miss_heavy_benchmarks(self):
        rows = table4_speedups.run(TINY)
        for row in rows:
            assert row.speedups["Perfect"] > 0
            assert row.speedups["Multi(1)"] > 0


class TestResultHelpers:
    def _tiny_result(self):
        result = ExperimentResult(name="x")
        result.rows = [
            Row("a", "m1", 120, 100, 10, 10, 1.0),
            Row("a", "m2", 140, 100, 10, 10, 1.0),
            Row("b", "m1", 130, 100, 10, 10, 1.0),
        ]
        return result

    def test_labels_ordered(self):
        assert self._tiny_result().labels() == ["m1", "m2"]

    def test_average_penalty(self):
        result = self._tiny_result()
        assert result.average_penalty("m1") == pytest.approx(2.5)

    def test_format_table_contains_cells(self):
        text = self._tiny_result().format_table()
        assert "benchmark" in text and "average" in text
        assert "2.00" in text and "4.00" in text

    def test_cell_lookup(self):
        result = self._tiny_result()
        assert result.cell("a", "m2").cycles == 140
        assert result.cell("zz", "m1") is None


STUB = SimpleNamespace(
    cycles=1_000, committed_fills=10, ipc=1.0, miss_rate_per_kilo_inst=1.0
)


class TestOneGridPerExperiment:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Replace the resolver everywhere it is bound; record each call's
        specs and answer every cell with a stub result."""
        calls = []

        def fake(specs):
            calls.append(list(specs))
            return [STUB] * len(specs)

        for module in (common, table2_suite, table4_speedups):
            monkeypatch.setattr(module, "resolve_cells", fake)
        return calls

    @pytest.mark.parametrize(
        "module, cells",
        [
            (fig2_pipeline, 12),
            (fig3_width, 12),
            (table2_suite, 4),
            (fig5_mechanisms, 10),
            (table3_limits, 16),
            (fig6_quickstart, 8),
            (fig7_multiprogram, 40),
            (table4_speedups, 14),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)).rsplit(".", 1)[-1],
    )
    def test_one_resolver_call(self, calls, module, cells):
        module.run(TINY)
        assert [len(specs) for specs in calls] == [cells]

    def test_table2_rows_equal_direct_simulator_runs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = MachineConfig(mechanism="hardware")

        def direct(name, cfg):
            return Simulator(build_benchmark(name), cfg).run(
                user_insts=TINY.user_insts,
                warmup_insts=TINY.warmup_insts,
                max_cycles=TINY.max_cycles,
            )

        expected = []
        for name in TINY.benchmarks:
            result = direct(name, config)
            perfect = direct(name, config.with_mechanism("perfect"))
            spec = table2_suite.BENCHMARKS[name]
            expected.append(
                table2_suite.SuiteRow(
                    name=spec.name,
                    abbrev=spec.abbrev,
                    description=spec.description,
                    tlb_misses=result.committed_fills,
                    misses_per_kilo_inst=result.miss_rate_per_kilo_inst,
                    base_ipc=perfect.ipc,
                )
            )
        assert table2_suite.run(TINY) == expected

    def test_server_resolves_table2_and_table4(self, monkeypatch, tmp_path):
        """With REPRO_SERVER set, every table2 and table4 cell goes to
        the server and none is simulated by the local runner."""
        monkeypatch.setenv("REPRO_SERVER", "http://127.0.0.1:9")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        sent = []

        def fake_server(url, specs, warm=False):
            sent.append(list(specs))
            return [parallel.run_cell(spec) for spec in specs]

        def local(*args, **kwargs):
            raise AssertionError("cells resolved by the local runner")

        monkeypatch.setattr("repro.serve.client.run_cells_via_server", fake_server)
        original = parallel.run_cells
        for module in list(sys.modules.values()):
            if module.__name__.startswith("repro") and (
                getattr(module, "run_cells", None) is original
            ):
                monkeypatch.setattr(module, "run_cells", local)

        small = Settings(
            user_insts=600, warmup_insts=200, max_cycles=4_000_000,
            benchmarks=("compress",),
        )
        suite_rows = table2_suite.run(small)
        speedup_rows = table4_speedups.run(small)
        assert [len(specs) for specs in sent] == [2, 7]
        assert suite_rows[0].tlb_misses > 0
        assert speedup_rows[0].speedups["Perfect"] > 0

    def test_server_call_carries_the_warm_knob(self, monkeypatch):
        """REPRO_WARM_CKPT=1 asks the server for warm cells, as it asks
        the local runner, so both print the same tables."""
        monkeypatch.setenv("REPRO_SERVER", "http://127.0.0.1:9")
        monkeypatch.setenv("REPRO_WARM_CKPT", "1")
        warm_flags = []

        def fake_server(url, specs, warm=False):
            warm_flags.append(warm)
            return []

        monkeypatch.setattr("repro.serve.client.run_cells_via_server", fake_server)
        assert common.resolve_cells([]) == []
        assert warm_flags == [True]
