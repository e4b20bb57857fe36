"""Autosave + resume: an interrupted run finishes with identical stats."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.checkpoint import machine_config_from_dict, run_with_autosave
from repro.checkpoint.format import (
    CheckpointFormatError,
    read_checkpoint,
    write_checkpoint,
)
from repro.sim.config import MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads.suite import build_benchmark

USER, WARMUP, EVERY = 1500, 600, 400
PLAN = "seed:5,tlb_evict:30,pte_corrupt:60"


def make(mechanism: str = "multithreaded") -> Simulator:
    return Simulator(build_benchmark("compress"), MachineConfig(mechanism=mechanism))


def fingerprint(result) -> str:
    data = dataclasses.asdict(result)
    data.pop("checkpoint", None)
    return json.dumps(data, sort_keys=True, default=str)


class _Die(Exception):
    pass


def test_uninterrupted_autosave_matches_straight_run(tmp_path):
    straight = make().run(user_insts=USER, warmup_insts=WARMUP)
    saved = run_with_autosave(
        make(),
        tmp_path / "a.ckpt",
        user_insts=USER,
        warmup_insts=WARMUP,
        autosave_every=EVERY,
    )
    assert fingerprint(straight) == fingerprint(saved)


@pytest.mark.parametrize("die_after", [1, 2, 3])
def test_killed_run_resumes_to_identical_stats(tmp_path, die_after):
    """Kill after the Nth autosave (any N: mid-warmup or mid-measure);
    the resumed run's final result is bit-identical to never dying."""
    straight = make().run(user_insts=USER, warmup_insts=WARMUP)

    path = tmp_path / "a.ckpt"
    count = 0

    def killer(_cycle: int) -> None:
        nonlocal count
        count += 1
        if count >= die_after:
            raise _Die

    with pytest.raises(_Die):
        run_with_autosave(
            make(),
            path,
            user_insts=USER,
            warmup_insts=WARMUP,
            autosave_every=EVERY,
            on_autosave=killer,
        )
    # Resume in a brand-new machine; saved run parameters are
    # authoritative, so deliberately pass garbage ones here.
    resumed = run_with_autosave(
        make(), path, user_insts=1, warmup_insts=99999, autosave_every=EVERY
    )
    assert fingerprint(straight) == fingerprint(resumed)


def test_faulted_run_resumes_without_the_fault_plan_variable(
    tmp_path, monkeypatch
):
    """The plan is part of the saved config, so a run faulted through
    ``REPRO_FAULTS`` resumes under it in a process that lacks it."""
    monkeypatch.setenv("REPRO_FAULTS", PLAN)
    straight = make().run(user_insts=USER, warmup_insts=WARMUP)
    path = tmp_path / "a.ckpt"
    count = 0

    def killer(_cycle: int) -> None:
        nonlocal count
        count += 1
        if count >= 2:
            raise _Die

    with pytest.raises(_Die):
        run_with_autosave(
            make(),
            path,
            user_insts=USER,
            warmup_insts=WARMUP,
            autosave_every=EVERY,
            on_autosave=killer,
        )
    monkeypatch.delenv("REPRO_FAULTS")
    # Rebuild the machine from the file alone, as `repro-ckpt resume` does.
    _, body = read_checkpoint(path)
    config = machine_config_from_dict(body["config"])
    resumed = run_with_autosave(
        Simulator(build_benchmark("compress"), config), path
    )
    assert fingerprint(straight) == fingerprint(resumed)


def test_no_warmup_baseline_matches_simulator_run(tmp_path):
    straight = make().run(user_insts=USER, warmup_insts=0)
    saved = run_with_autosave(
        make(),
        tmp_path / "a.ckpt",
        user_insts=USER,
        warmup_insts=0,
        autosave_every=EVERY,
    )
    assert fingerprint(straight) == fingerprint(saved)


def test_autosave_callback_sees_progress(tmp_path):
    cycles: list[int] = []
    run_with_autosave(
        make(),
        tmp_path / "a.ckpt",
        user_insts=USER,
        warmup_insts=WARMUP,
        autosave_every=EVERY,
        on_autosave=cycles.append,
    )
    assert cycles, "run too short to autosave even once"
    assert cycles == sorted(cycles)


def test_resume_rejects_non_autosave_checkpoint(tmp_path):
    path = tmp_path / "a.ckpt"
    sim = make()
    sim.core.run(300, 10_000_000)
    sim.save_checkpoint(path)  # an exact checkpoint, but not an autosave
    with pytest.raises(CheckpointFormatError, match="not an autosave"):
        run_with_autosave(make(), path, user_insts=USER, warmup_insts=WARMUP)


def test_fresh_run_ignores_existing_file_when_resume_off(tmp_path):
    path = tmp_path / "a.ckpt"
    write_checkpoint(path, {"not": "machine state"}, meta={"kind": "junk"})
    straight = make().run(user_insts=USER, warmup_insts=WARMUP)
    fresh = run_with_autosave(
        make(),
        path,
        user_insts=USER,
        warmup_insts=WARMUP,
        autosave_every=EVERY,
        resume=False,
    )
    assert fingerprint(straight) == fingerprint(fresh)
