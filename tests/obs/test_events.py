"""Tests for the event bus: fan-out semantics and core emission sites."""

import dataclasses

import pytest

from repro.isa.program import DataSegment
from repro.obs.events import EVENT_KINDS, EventBus, ObsEvent, attach_bus
from repro.sim.config import MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads import build_benchmark
from tests.conftest import ALL_MECHANISMS, make_sim, run_to_halt


class _Recorder:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def _miss_sim(data_base, mechanism):
    return make_sim(
        f"""
        main:
            li   r1, {data_base}
            ld   r2, 0(r1)
            add  r3, r2, 1
            halt
        """,
        mechanism=mechanism,
        segments=[DataSegment(base=data_base, words=[41])],
    )


class TestEventBus:
    def test_subscribe_is_idempotent(self):
        bus = EventBus()
        sub = _Recorder()
        bus.subscribe(sub)
        bus.subscribe(sub)
        bus.emit(ObsEvent("fetch", 0, 0))
        assert len(sub.events) == 1

    def test_unsubscribe_any_order(self):
        bus = EventBus()
        a, b = _Recorder(), _Recorder()
        bus.subscribe(a)
        bus.subscribe(b)
        bus.unsubscribe(a)  # not LIFO
        bus.emit(ObsEvent("retire", 1, 0))
        assert not a.events and len(b.events) == 1
        bus.unsubscribe(a)  # double-unsubscribe is a no-op
        assert len(bus) == 1

    def test_emit_fans_out_in_subscription_order(self):
        bus = EventBus()
        order = []
        for tag in ("first", "second"):
            sub = _Recorder()
            sub.on_event = lambda e, tag=tag: order.append(tag)
            bus.subscribe(sub)
        bus.emit(ObsEvent("issue", 0, 0))
        assert order == ["first", "second"]

    def test_attach_bus_reuses_existing(self, data_base):
        sim = _miss_sim(data_base, "perfect")
        bus = attach_bus(sim.core)
        assert attach_bus(sim.core) is bus
        assert sim.core.listeners is bus


class TestCoreEmission:
    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    def test_kind_coverage_per_mechanism(self, data_base, mechanism):
        sim = _miss_sim(data_base, mechanism)
        recorder = attach_bus(sim.core).subscribe(_Recorder())
        run_to_halt(sim)
        kinds = {e.kind for e in recorder.events}
        assert {"fetch", "issue", "retire", "exception", "spawn", "splice"} <= kinds
        assert kinds <= set(EVENT_KINDS)

    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    def test_spawn_splice_paired_with_matching_path(self, data_base, mechanism):
        sim = _miss_sim(data_base, mechanism)
        recorder = attach_bus(sim.core).subscribe(_Recorder())
        run_to_halt(sim)
        spawns = {e.exc_id: e for e in recorder.events if e.kind == "spawn"}
        splices = [e for e in recorder.events if e.kind == "splice"]
        assert spawns and splices
        for splice in splices:
            assert splice.exc_id in spawns
            spawn = spawns[splice.exc_id]
            assert splice.cycle >= spawn.cycle
            # A clean completion echoes the spawn path.
            if splice.path in ("thread", "trap", "walk"):
                assert splice.path == spawn.path

    def test_exception_event_precedes_spawn(self, data_base):
        sim = _miss_sim(data_base, "multithreaded")
        recorder = attach_bus(sim.core).subscribe(_Recorder())
        run_to_halt(sim)
        first_exc = next(
            i for i, e in enumerate(recorder.events) if e.kind == "exception"
        )
        first_spawn = next(
            i for i, e in enumerate(recorder.events) if e.kind == "spawn"
        )
        assert first_exc < first_spawn
        assert recorder.events[first_exc].exc_type == "dtlb_miss"

    @pytest.mark.parametrize(
        "mechanism, on_tid0", [("multithreaded", False), ("traditional", True)]
    )
    def test_common_case_handler_retires_ten_instructions(
        self, data_base, mechanism, on_tid0
    ):
        # A traditional trap runs its handler on the faulting thread,
        # tid 0; the multithreaded mechanism on an exception thread.
        sim = _miss_sim(data_base, mechanism)
        recorder = attach_bus(sim.core).subscribe(_Recorder())
        run_to_halt(sim)
        handler = [e for e in recorder.events if e.kind == "retire" and e.is_handler]
        ops = [e.op for e in handler]
        assert len(ops) == 10
        assert ops.count("reti") == 1 and ops[-1] == "reti"
        assert ({e.tid for e in handler} == {0}) == on_tid0

    def test_core_subscribers_detach_in_any_order(self, data_base):
        sim = _miss_sim(data_base, "multithreaded")
        bus = attach_bus(sim.core)
        outer = bus.subscribe(_Recorder())
        inner = bus.subscribe(_Recorder())
        bus.unsubscribe(outer)  # not LIFO
        run_to_halt(sim)
        bus.unsubscribe(inner)
        assert not outer.events
        assert any(e.kind == "retire" for e in inner.events)

    def test_cycles_monotonic(self, data_base):
        sim = _miss_sim(data_base, "traditional")
        recorder = attach_bus(sim.core).subscribe(_Recorder())
        run_to_halt(sim)
        cycles = [e.cycle for e in recorder.events]
        assert cycles == sorted(cycles)


class TestZeroOverhead:
    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    def test_results_bit_identical_with_bus_on(self, mechanism):
        plain = Simulator(
            build_benchmark("compress"), MachineConfig(mechanism=mechanism)
        )
        r_plain = plain.run(user_insts=1500, warmup_insts=200)
        observed = Simulator(
            build_benchmark("compress"), MachineConfig(mechanism=mechanism)
        )
        attach_bus(observed.core).subscribe(_Recorder())
        r_observed = observed.run(user_insts=1500, warmup_insts=200)
        assert dataclasses.asdict(r_plain) == dataclasses.asdict(r_observed)

    def test_halt_cycle_identical_with_bus_on(self, data_base):
        # Stepped cycle by cycle to the halt, with a handler thread
        # spawned and spliced on the way, the observed run ends on the
        # same cycle as the plain one.
        cycles_plain = run_to_halt(_miss_sim(data_base, "multithreaded"))
        observed = _miss_sim(data_base, "multithreaded")
        recorder = attach_bus(observed.core).subscribe(_Recorder())
        assert run_to_halt(observed) == cycles_plain
        kinds = {e.kind for e in recorder.events}
        assert {"retire", "issue", "spawn", "splice"} <= kinds
