"""Unit tests for the dynamic-instruction record."""

import gc

import pytest

from repro.engine import core_class
from repro.isa.instructions import Instruction, Opcode
from repro.pipeline.uop import Uop, UopState
from repro.sim.config import MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads.suite import build_benchmark


def _uop(op=Opcode.ADD, seq=0, **kw):
    return Uop(seq, 0, 0, Instruction(op=op, **kw))


class TestReadiness:
    def test_literal_sources_always_ready(self):
        uop = _uop()
        uop.src_a_value = 1
        uop.src_b_value = 2
        assert uop.src_ready(now=0)
        assert uop.src_values() == (1, 2)

    def test_producer_not_issued_blocks(self):
        producer = _uop(seq=1)
        consumer = _uop(seq=2)
        consumer.src_a_uop = producer
        assert not consumer.src_ready(now=10)

    def test_producer_ready_at_finish_cycle(self):
        producer = _uop(seq=1)
        producer.issued = True
        producer.finish_cycle = 5
        producer.value = 42
        consumer = _uop(seq=2)
        consumer.src_a_uop = producer
        assert not consumer.src_ready(now=4)
        assert consumer.src_ready(now=5)
        assert consumer.src_values()[0] == 42

    def test_value_ready(self):
        uop = _uop()
        assert not uop.value_ready(0)
        uop.issued = True
        uop.finish_cycle = 3
        assert not uop.value_ready(2)
        assert uop.value_ready(3)

    def test_missing_values_default_to_zero(self):
        uop = _uop()
        assert uop.src_values() == (0, 0)


class TestLifecycle:
    def test_initial_state(self):
        uop = _uop()
        assert uop.state == UopState.FETCH_BUF
        assert uop.in_flight
        assert not uop.renamed and not uop.issued

    def test_terminal_states_not_in_flight(self):
        uop = _uop()
        uop.state = UopState.RETIRED
        assert not uop.in_flight
        uop.state = UopState.SQUASHED
        assert not uop.in_flight

    def test_repr_is_stable(self):
        assert "add" in repr(_uop())


@pytest.mark.parametrize("engine", ["reference", "fused"])
def test_retired_and_squashed_uops_hold_no_links(engine):
    """A dead uop's dataflow links are cleared at retire and squash, so
    no completed uop keeps its producers (or a cycle) alive."""
    sim = Simulator(
        build_benchmark("gcc"),
        MachineConfig(mechanism="traditional"),
        core_cls=core_class(engine),
    )
    watch = [(t, 1 << 40) for t in sim.core.threads if t.program is not None]
    dead = {UopState.RETIRED: 0, UopState.SQUASHED: 0}
    for stop in range(200, 3000, 200):
        sim.core.run_to(watch, stop)
        gc.collect()
        for obj in gc.get_objects():
            if type(obj) is Uop and obj.state in dead:
                dead[obj.state] += 1
                assert obj.src_a_uop is None and obj.src_b_uop is None, obj
                assert obj.consumers is None, obj
    # Live consumers still reach retired producers, and live producers'
    # consumer lists reach squashed uops: both kinds were inspected.
    assert all(dead.values()), dead
