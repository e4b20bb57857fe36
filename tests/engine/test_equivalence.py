"""Kernel equivalence: a cell run on the ``fused`` kernel must be
bit-identical to the reference kernel for every mechanism -- same
``SimResult``, same full ``SimStats`` dict, same architectural digest --
and so must a fused core driven one ``step()`` at a time."""

import dataclasses

import pytest

from repro.engine import core_class
from repro.faults.fuzz import arch_digest
from repro.pipeline.thread import ThreadState
from repro.sim.config import MECHANISMS, MachineConfig
from repro.sim.parallel import CellSpec, run_cell
from repro.sim.simulator import Simulator

USER_INSTS = 1200
WARMUP_INSTS = 300
MAX_CYCLES = 2_000_000


def _spec(mechanism, workload="compress"):
    return CellSpec(
        workload=workload,
        config=MachineConfig(mechanism=mechanism, idle_threads=1),
        user_insts=USER_INSTS,
        warmup_insts=WARMUP_INSTS,
        max_cycles=MAX_CYCLES,
    )


def _assert_same_cell(spec):
    reference = run_cell(dataclasses.replace(spec, engine="reference"))
    fused = run_cell(dataclasses.replace(spec, engine="fused"))
    assert fused == reference
    assert fused.stats.as_dict() == reference.stats.as_dict()


def _digest(spec, engine):
    """Architectural digest of ``spec`` run on ``engine``'s kernel."""
    sim = Simulator(
        spec.build_programs(), spec.config, core_cls=core_class(engine)
    )
    sim.run(
        user_insts=spec.user_insts,
        warmup_insts=spec.warmup_insts,
        max_cycles=spec.max_cycles,
    )
    return arch_digest(sim)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_batch_of_one_matches_reference(mechanism):
    spec = _spec(mechanism)
    _assert_same_cell(spec)
    assert _digest(spec, "fused") == _digest(spec, "reference")


@pytest.mark.parametrize("workload", ["gcc", "murphi", ("compress", "gcc")])
def test_batch_of_one_matches_reference_across_workloads(workload):
    _assert_same_cell(_spec("multithreaded", workload=workload))


def test_no_warmup_cell_matches_reference():
    _assert_same_cell(
        CellSpec(
            workload="compress",
            config=MachineConfig(mechanism="traditional", idle_threads=1),
            user_insts=800,
            warmup_insts=0,
            max_cycles=MAX_CYCLES,
        )
    )


def _stepped(spec, engine):
    """Drive ``spec`` on ``engine``'s kernel through a fixed schedule of
    single ``step()`` calls and ``run_to`` chunks, then to completion
    with the one-step nudge the fuzzer and the scenario runner use when
    ``run_to`` makes no progress."""
    sim = Simulator(
        spec.build_programs(), spec.config, core_cls=core_class(engine)
    )
    core = sim.core
    apps = [t for t in core.threads if t.state is ThreadState.NORMAL]
    never = [(thread, MAX_CYCLES) for thread in apps]
    for _ in range(12):
        for _ in range(25):
            core.step()
        core.run_to(never, core.cycle + 400)
    targets = [(thread, thread.retired_user + USER_INSTS) for thread in apps]
    while core.cycle < MAX_CYCLES and not all(
        thread.halted or thread.retired_user >= target
        for thread, target in targets
    ):
        before = core.cycle
        core.run_to(targets, MAX_CYCLES)
        if core.cycle == before:
            core.step()
    return sim


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_stepped_fused_core_matches_reference(mechanism):
    fused = _stepped(_spec(mechanism), "fused")
    reference = _stepped(_spec(mechanism), "reference")
    assert type(fused.core) is core_class("fused")
    assert arch_digest(fused) == arch_digest(reference)
    assert fused.core.stats.as_dict() == reference.core.stats.as_dict()
    assert fused.core.cycle == reference.core.cycle
