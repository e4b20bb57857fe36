"""Warm cells in the parallel runner: shared warmup, hash-keyed cache,
manifest lineage."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.obs.manifest import validate_manifest
from repro.sim.config import MachineConfig
from repro.sim.parallel import (
    CellSpec,
    ResultCache,
    derive_warm_cells,
    run_cell,
    run_cells,
)

MECHS = ("traditional", "multithreaded", "hardware", "quickstart")


def make_specs() -> list[CellSpec]:
    return [
        CellSpec(
            workload="compress",
            config=MachineConfig(mechanism=mech),
            user_insts=800,
            warmup_insts=400,
            max_cycles=2_000_000,
        )
        for mech in MECHS
    ]


@pytest.fixture
def env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path / "ckpt"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_JOBS", "1")
    return tmp_path


def test_derive_warm_cells_shares_one_checkpoint(env):
    warm = derive_warm_cells(make_specs())
    paths = {spec.warm_from for spec in warm}
    hashes = {spec.warm_hash for spec in warm}
    assert len(paths) == 1 and None not in paths
    assert len(hashes) == 1 and None not in hashes
    assert len(list((env / "ckpt").glob("warm-*.ckpt"))) == 1


def test_warm_hash_is_part_of_the_cache_key(env):
    cold = make_specs()[0]
    warm = derive_warm_cells([cold])[0]
    assert cold.cache_token() != warm.cache_token()
    # ...but the *location* of the checkpoint is not: moving the store
    # must not invalidate cached results.
    moved = dataclasses.replace(warm, warm_from="/elsewhere/warm.ckpt")
    assert moved.cache_token() == warm.cache_token()


def test_sweep_results_carry_lineage_into_manifests(env, monkeypatch):
    monkeypatch.setenv("REPRO_WARM_CKPT", "1")
    specs = make_specs()
    results = run_cells(specs)
    hashes = {r.checkpoint["hash"] for r in results}
    assert len(hashes) == 1, "cells did not share one warm state"

    shared_hash = hashes.pop()
    cache = ResultCache()
    for spec in derive_warm_cells(specs):
        manifest = json.loads(cache.manifest_path(spec).read_text())
        assert validate_manifest(manifest) == []
        assert manifest["checkpoint"]["hash"] == shared_hash
        assert manifest["checkpoint"]["warmup_insts"] == 400


def test_warm_sweep_hits_cache_on_second_run(env, monkeypatch):
    monkeypatch.setenv("REPRO_WARM_CKPT", "1")
    first = run_cells(make_specs())
    second = run_cells(make_specs())
    assert [r.cycles for r in first] == [r.cycles for r in second]


def test_warm_cells_match_across_kernels(env, monkeypatch):
    # The donor always warms on the reference core; cells attach to it
    # under the default (fused) kernel and must equal the reference run.
    monkeypatch.setenv("REPRO_WARM_CKPT", "1")
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    fused = run_cells(make_specs())
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    reference = run_cells(make_specs())
    for got, want in zip(fused, reference):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert len({r.checkpoint["hash"] for r in fused + reference}) == 1


def test_fault_free_cell_never_reuses_a_faulted_warm_state(env, monkeypatch):
    """The plan is part of the config a warm token hashes: a warm state
    derived under ``REPRO_FAULTS`` is not one a fault-free cell of the
    same family may attach to."""
    def cell():
        return CellSpec(
            workload="gcc",
            config=MachineConfig(mechanism="traditional"),
            user_insts=1000,
            warmup_insts=1500,
            max_cycles=2_000_000,
        )

    monkeypatch.setenv("REPRO_FAULTS", "seed:5,tlb_evict:30,pte_corrupt:60")
    derive_warm_cells([cell()])
    monkeypatch.delenv("REPRO_FAULTS")
    shared = run_cell(derive_warm_cells([cell()])[0])
    monkeypatch.setenv("REPRO_CKPT_DIR", str(env / "fresh"))
    fresh = run_cell(derive_warm_cells([cell()])[0])
    # Every counter agrees; only the lineage hash names another file.
    assert dataclasses.replace(shared, checkpoint=None) == dataclasses.replace(
        fresh, checkpoint=None
    )


def test_cold_runs_record_null_lineage(env):
    results = run_cells(make_specs()[:1])
    assert results[0].checkpoint is None
    cache = ResultCache()
    manifest = json.loads(cache.manifest_path(make_specs()[0]).read_text())
    assert validate_manifest(manifest) == []
    assert manifest["checkpoint"] is None
