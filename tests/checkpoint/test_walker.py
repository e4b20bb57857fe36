"""The field walker: capture follows the fields, not a hand-kept list."""

from __future__ import annotations

import json

import pytest

from repro.checkpoint.format import CheckpointFormatError
from repro.checkpoint.state import SnapshotError, capture_machine, restore_machine
from repro.sim.config import MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads.suite import build_benchmark


def make() -> Simulator:
    return Simulator(
        build_benchmark("compress"), MachineConfig(mechanism="multithreaded")
    )


def roundtrip(body: dict) -> dict:
    return json.loads(json.dumps(body))


def test_attribute_added_after_construction_is_captured():
    sim = make()
    sim.core.run(200, 10_000_000)
    sim.page_table.audit_log = {7: [1, 2.5], 9: []}  # no other edit anywhere
    body = roundtrip(capture_machine(sim))

    fresh = make()
    restore_machine(fresh, body)
    assert fresh.page_table.audit_log == {7: [1, 2.5], 9: []}


def test_unknown_value_type_is_refused_by_name():
    sim = make()
    sim.core.run(200, 10_000_000)
    sim.core.on_cycle = lambda: None
    with pytest.raises(SnapshotError, match=r"SMTCore\.on_cycle.*function"):
        capture_machine(sim)


def test_body_naming_a_type_outside_the_table_is_refused():
    sim = make()
    sim.core.run(200, 10_000_000)
    body = roundtrip(capture_machine(sim))
    uop = next(fields for _, fields in body["uops"] if fields["checkpoint"])
    uop["checkpoint"]["v"][0] = "Popen"
    with pytest.raises(CheckpointFormatError, match="Popen"):
        restore_machine(make(), body)


def test_restore_keeps_the_fresh_machines_objects():
    """State objects are restored in place: aliases built at construction
    (the fallback engine's shared stats, the core's L1-I fetch probe)
    still point at the live objects."""
    sim = make()
    sim.core.run(400, 10_000_000)
    body = roundtrip(capture_machine(sim))

    fresh = make()
    stats, l1i, window = fresh.mechanism.stats, fresh.hierarchy.l1i, fresh.core.window
    restore_machine(fresh, body)
    assert fresh.mechanism.stats is stats
    assert fresh.mechanism.traditional.stats is stats
    assert fresh.hierarchy.l1i is l1i and fresh.core._ifetch.__self__ is l1i
    assert fresh.core.window is window
    assert stats.misses_seen == sim.mechanism.stats.misses_seen
