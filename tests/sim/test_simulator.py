"""Tests for the Simulator driver and SimResult."""

import gc

import pytest

from repro.memory.tlb import PerfectTLB, TLB
from repro.sim.config import MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark


def _cache_module_objects() -> int:
    return sum(
        1 for o in gc.get_objects() if type(o).__module__ == "repro.memory.cache"
    )


class TestConstruction:
    def test_perfect_mechanism_uses_perfect_tlb(self):
        sim = Simulator(build_benchmark("compress"), MachineConfig(mechanism="perfect"))
        assert isinstance(sim.dtlb, PerfectTLB)
        assert sim.mechanism is None

    def test_real_mechanism_uses_real_tlb(self):
        sim = Simulator(
            build_benchmark("compress"), MachineConfig(mechanism="multithreaded")
        )
        assert isinstance(sim.dtlb, TLB)
        assert sim.dtlb.capacity == 64

    def test_idle_threads_added_to_contexts(self):
        sim = Simulator(
            build_benchmark("compress"),
            MachineConfig(mechanism="multithreaded", idle_threads=3),
        )
        assert len(sim.core.threads) == 4

    def test_workload_pages_mapped(self):
        sim = Simulator(build_benchmark("compress"), MachineConfig())
        assert sim.page_table.mapped_pages > 64  # exceeds TLB reach

    def test_prewarm_installs_hot_data_in_l2(self):
        sim = Simulator(build_benchmark("compress"), MachineConfig())
        program = sim.programs[0]
        base, _ = program.warm_ranges[0]
        assert sim.hierarchy.l2.probe(base)

    def test_empty_program_list_rejected(self):
        with pytest.raises(ValueError):
            Simulator([], MachineConfig())

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_construction_allocates_no_per_line_objects(self, name):
        # The L2 prewarm installs 9-15k lines; a cache line must stay a
        # dict entry, not an object (caches, buses, stats and DRAM only).
        program = build_benchmark(name)
        gc.collect()
        gc.disable()
        try:
            before = _cache_module_objects()
            sim = Simulator(program, MachineConfig())
            created = _cache_module_objects() - before
        finally:
            gc.enable()
        assert sim.hierarchy.l2.stats.accesses == 0  # prewarm is untimed
        assert created <= 16


class TestRuns:
    def test_run_reaches_instruction_target(self):
        sim = Simulator(build_benchmark("vortex"), MachineConfig(mechanism="perfect"))
        result = sim.run(user_insts=500, warmup_insts=100, max_cycles=200_000)
        assert result.retired_user >= 500
        assert result.cycles > 0

    def test_warmup_excluded_from_measurement(self):
        sim = Simulator(build_benchmark("vortex"), MachineConfig(mechanism="perfect"))
        result = sim.run(user_insts=500, warmup_insts=500, max_cycles=200_000)
        assert result.stats.retired_user >= 1000  # raw counter: whole run
        assert result.retired_user < result.stats.retired_user

    def test_determinism(self):
        def one_run():
            sim = Simulator(
                build_benchmark("murphi"),
                MachineConfig(mechanism="multithreaded"),
            )
            return sim.run(user_insts=800, warmup_insts=200, max_cycles=400_000)

        a, b = one_run(), one_run()
        assert a.cycles == b.cycles
        assert a.committed_fills == b.committed_fills

    def test_max_cycles_guard_raises(self):
        sim = Simulator(build_benchmark("compress"), MachineConfig())
        with pytest.raises(RuntimeError, match="exceeded"):
            sim.run(user_insts=10_000_000, max_cycles=500)

    def test_result_fields_consistent(self):
        sim = Simulator(
            build_benchmark("compress"), MachineConfig(mechanism="multithreaded")
        )
        result = sim.run(user_insts=600, warmup_insts=200, max_cycles=400_000)
        assert result.mechanism == "multithreaded"
        assert result.committed_fills > 0
        assert result.miss_rate_per_kilo_inst > 0
        assert 0 < result.ipc <= 8
        assert result.per_thread_user[0] >= 800
