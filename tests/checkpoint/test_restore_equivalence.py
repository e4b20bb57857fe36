"""The headline invariant: restore-then-run is bit-identical to
straight-through for every mechanism.

Three simulators per mechanism:

* ``s0`` runs straight through (no checkpoint code touched);
* ``s1`` saves a checkpoint mid-run and keeps going -- proving capture
  is a pure read that perturbs nothing;
* ``s2`` is a fresh machine restored from ``s1``'s checkpoint, then run
  the same distance -- proving restore reproduces the machine exactly.

``s0 == s1`` and ``s1 == s2``, compared over the *complete* result
fingerprint (every counter of every component), is the invariant.  A
subprocess variant repeats the check with the restore in a genuinely
fresh interpreter, so no in-process leftovers can mask a hole in the
snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from collections import deque

import pytest

from repro.checkpoint.format import _canonical_body
from repro.checkpoint.state import _layout, capture_machine, restore_machine
from repro.engine import core_class
from repro.faults.fuzz import arch_digest
from repro.scenarios.spec import generate_matrix
from repro.sim.config import MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads.builder import make_program
from repro.workloads.suite import build_benchmark

MECHANISMS = ("traditional", "multithreaded", "hardware", "quickstart", "perfect")

PHASE_A = 800  # user insts before the snapshot
PHASE_B = 800  # user insts after it


def fingerprint(sim: Simulator) -> str:
    """Every counter the machine produced, as one canonical string."""
    result = dataclasses.asdict(sim.result())
    result.pop("checkpoint", None)  # lineage differs by construction
    return json.dumps(result, sort_keys=True, default=str)


def make(mechanism: str) -> Simulator:
    return Simulator(build_benchmark("compress"), MachineConfig(mechanism=mechanism))


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_restore_then_run_bit_identical(mechanism, tmp_path):
    path = tmp_path / "mid.ckpt"

    s0 = make(mechanism)
    s0.core.run(PHASE_A, 10_000_000)
    s0.core.run(PHASE_B, 10_000_000)

    s1 = make(mechanism)
    s1.core.run(PHASE_A, 10_000_000)
    s1.save_checkpoint(path)
    s1.core.run(PHASE_B, 10_000_000)

    s2 = make(mechanism)
    s2.restore_checkpoint(path)
    s2.core.run(PHASE_B, 10_000_000)

    assert fingerprint(s0) == fingerprint(s1), "capture perturbed the run"
    assert fingerprint(s1) == fingerprint(s2), "restore diverged from straight-through"


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_restore_into_fresh_process(mechanism, tmp_path):
    """Same invariant with the restore side in a brand-new interpreter."""
    path = tmp_path / "mid.ckpt"

    s1 = make(mechanism)
    s1.core.run(PHASE_A, 10_000_000)
    s1.save_checkpoint(path)
    s1.core.run(PHASE_B, 10_000_000)
    expected = fingerprint(s1)

    script = f"""
from tests.checkpoint.test_restore_equivalence import make, fingerprint
s2 = make({mechanism!r})
s2.restore_checkpoint({json.dumps(str(path))})
s2.core.run({PHASE_B}, 10_000_000)
print(fingerprint(s2))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=str(_repo_root()),
        env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == expected


def _repo_root():
    from pathlib import Path

    return Path(__file__).resolve().parents[2]


def _env_with_src() -> dict:
    import os

    env = dict(os.environ)
    root = _repo_root()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return env


def test_snapshot_refused_mid_step():
    """Snapshots are only legal at step boundaries; mid-step state
    (the transient execution heap) must never leak into a file."""
    sim = make("traditional")
    sim.core.run(200, 10_000_000)
    sim.core._exec_heap = []  # simulate being inside step()
    with pytest.raises(RuntimeError, match="between step"):
        capture_machine(sim)
    sim.core._exec_heap = None


def test_restore_rejects_wrong_thread_count(tmp_path):
    path = tmp_path / "a.ckpt"
    sim = make("traditional")
    sim.core.run(200, 10_000_000)
    sim.save_checkpoint(path)

    other = Simulator(
        build_benchmark("compress"),
        MachineConfig(mechanism="traditional", idle_threads=5),
    )
    from repro.checkpoint.format import CheckpointError

    with pytest.raises((CheckpointError, ValueError)):
        other.restore_checkpoint(path)


# ----------------------------------------------------------------------
# Beyond DTLB misses: every scenario cause and a fault plan, mid-run.
# ----------------------------------------------------------------------
ALL_CAUSES = next(
    spec for spec in generate_matrix(seed=1999) if spec.name == "all-nested"
)
FAULTS = "seed:5,tlb_evict:30,pte_corrupt:60,handler_fault:45"


def make_scenario(mechanism: str, engine: str) -> Simulator:
    case = ALL_CAUSES.case()
    program = make_program(
        case.program.source, regions=case.program.regions, scenario_causes=True
    )
    config = MachineConfig(
        mechanism=mechanism, faults=FAULTS, **case.config_overrides
    )
    return Simulator(program, config, core_cls=core_class(engine))


def run_until(sim: Simulator, stop_cycle: int) -> None:
    """Drive the machine to ``stop_cycle`` or to halt, as the fuzzer does."""
    core = sim.core
    users = [t for t in core.threads if t.program is not None]
    watch = [(t, 1 << 40) for t in users]
    while core.cycle < stop_cycle and not all(t.halted for t in users):
        before = core.cycle
        core.run_to(watch, stop_cycle)
        if core.cycle == before and not all(t.halted for t in users):
            core.step()


def outcome(sim: Simulator) -> tuple:
    return (
        arch_digest(sim),
        sim.core.cycle,
        sim.core.stats.as_dict(),
        dict(sim.core.faults.counts),
    )


def captured_types_match(saved, restored, where: str, seen: set) -> None:
    """Every captured field of ``restored`` has its ``saved`` twin's type."""
    assert type(restored) is type(saved), where
    if (id(saved), id(restored)) in seen:
        return
    seen.add((id(saved), id(restored)))
    if isinstance(saved, (list, tuple, deque)):
        for i, pair in enumerate(zip(saved, restored)):
            captured_types_match(*pair, f"{where}[{i}]", seen)
    elif isinstance(saved, set):
        assert len(saved) == len(restored), where
        assert set(map(type, saved)) == set(map(type, restored)), where
    elif isinstance(saved, dict):
        assert list(saved) == list(restored), where  # insertion order kept
        for key in saved:
            captured_types_match(saved[key], restored[key], f"{where}[{key!r}]", seen)
    elif hasattr(type(saved), "_SNAPSHOT_TRANSIENT"):
        slots, transient = _layout(type(saved))
        names = [n for n in slots if hasattr(saved, n)]
        names += [n for n in getattr(saved, "__dict__", {}) if n not in transient]
        for name in names:
            captured_types_match(
                getattr(saved, name),
                getattr(restored, name),
                f"{where}.{name}",
                seen,
            )


@pytest.mark.parametrize("engine", ["reference", "fused"])
def test_all_cause_restore_matches_straight_through(engine):
    """ITLB, alignment, emulation-trap and injector state restore exactly:
    a snapshot at half the straight run's cycles, restored into a fresh
    machine and run to halt, ends where the straight run ends."""
    for mechanism in MECHANISMS:
        straight = make_scenario(mechanism, engine)
        run_until(straight, 10_000_000)
        assert all(t.halted for t in straight.core.threads if t.program), mechanism

        source = make_scenario(mechanism, engine)
        run_until(source, straight.core.cycle // 2)
        body = capture_machine(source)

        restored = make_scenario(mechanism, engine)
        restore_machine(restored, json.loads(json.dumps(body)))
        assert _canonical_body(capture_machine(restored)) == _canonical_body(body), (
            f"{mechanism}: recapture after restore is not a fixpoint"
        )
        captured_types_match(source.core, restored.core, "core", set())
        if source.core.mechanism is not None:
            captured_types_match(
                source.core.mechanism, restored.core.mechanism, "mechanism", set()
            )

        run_until(restored, 10_000_000)
        assert outcome(restored) == outcome(straight), mechanism
