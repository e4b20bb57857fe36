"""Kernel equivalence: a cell run on the fused ``batched`` kernel must be
bit-identical to the reference kernel for every mechanism -- same
``SimResult``, same full ``SimStats`` dict, same architectural digest."""

import pytest

from repro.engine import core_class
from repro.faults.fuzz import arch_digest
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
    reference = run_cell(spec, engine="reference")
    batched = run_cell(spec, engine="batched")
    assert batched == reference
    assert batched.stats.as_dict() == reference.stats.as_dict()


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
    assert _digest(spec, "batched") == _digest(spec, "reference")


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
