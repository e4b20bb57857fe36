"""Tests for run manifests and their cache integration."""

import json

from repro.obs.attribution import CycleAttribution
from repro.obs.manifest import (
    build_manifest,
    config_hash,
    validate_manifest,
    write_manifest,
)
from repro.sim.config import MachineConfig
from repro.sim.parallel import CellSpec, ResultCache, run_cells
from repro.sim.simulator import Simulator
from repro.workloads import build_benchmark


def _run(mechanism="traditional", attribute=False):
    sim = Simulator(
        build_benchmark("compress"), MachineConfig(mechanism=mechanism)
    )
    attribution = CycleAttribution.attach(sim.core) if attribute else None
    result = sim.run(user_insts=1200, warmup_insts=200)
    table = attribution.finalize(sim.core.cycle) if attribution else None
    return sim, result, table


class TestBuildAndValidate:
    def test_round_trip(self, tmp_path):
        sim, result, table = _run(attribute=True)
        manifest = build_manifest(
            result, sim.config, attribution=table, workload="compress"
        )
        assert validate_manifest(manifest) == []
        path = tmp_path / "run.json"
        write_manifest(str(path), manifest)
        assert validate_manifest(json.loads(path.read_text())) == []

    def test_manifest_records_engine_backend(self, monkeypatch):
        sim, result, _ = _run()
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert build_manifest(result, sim.config)["engine_backend"] == (
            "fused"
        )
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert build_manifest(result, sim.config)["engine_backend"] == (
            "reference"
        )
        # A caller that built its own Simulator names its kernel.
        monkeypatch.delenv("REPRO_ENGINE")
        assert build_manifest(
            result, sim.config, engine_backend="reference"
        )["engine_backend"] == "reference"

    def test_validator_requires_engine_backend(self):
        sim, result, _ = _run()
        manifest = build_manifest(result, sim.config)
        del manifest["engine_backend"]
        assert any(
            "engine_backend" in p for p in validate_manifest(manifest)
        )

    def test_counters_carry_every_sim_stat(self):
        sim, result, _ = _run()
        manifest = build_manifest(result, sim.config)
        sim_counters = manifest["counters"]["sim"]
        assert sim_counters == result.stats.as_dict()
        assert "emulation_events" in sim_counters

    def test_counters_carry_per_cause_attribution(self):
        # The scenario causes flow into manifests through the same
        # introspective as_dict() path as every scalar counter.
        from repro.scenarios.spec import ScenarioSpec
        from repro.workloads.builder import make_program

        spec = ScenarioSpec(
            name="manifest-causes", seed=6, causes=("brev", "swint"),
            length=16, iters=4,
        )
        generated = spec.case().program
        program = make_program(
            generated.source, regions=generated.regions, scenario_causes=True
        )
        sim = Simulator(program, MachineConfig(mechanism="traditional"))
        result = sim.run(user_insts=2000, warmup_insts=0)
        manifest = build_manifest(result, sim.config)
        counters = manifest["counters"]["sim"]
        for key in ("cause_taken", "cause_squashes", "cause_handler_cycles"):
            assert key in counters
        assert counters["cause_taken"].get("brev", 0) > 0
        assert counters["cause_taken"].get("swint", 0) > 0
        assert validate_manifest(manifest) == []

    def test_config_hash_stable_and_sensitive(self):
        a = MachineConfig(mechanism="traditional")
        b = MachineConfig(mechanism="multithreaded")
        assert config_hash(a) == config_hash(MachineConfig(mechanism="traditional"))
        assert config_hash(a) != config_hash(b)
        assert len(config_hash(a)) == 16

    def test_validator_flags_problems(self):
        assert validate_manifest([]) == ["manifest is not an object"]
        problems = validate_manifest({"kind": "nope", "schema": 99})
        assert any("bad kind" in p for p in problems)
        assert any("unknown schema" in p for p in problems)
        sim, result, table = _run(attribute=True)
        manifest = build_manifest(result, sim.config, attribution=table)
        manifest["attribution"]["cycles"]["user"] += 1
        assert any(
            "do not sum" in p for p in validate_manifest(manifest)
        )


class TestCacheManifests:
    def _spec(self):
        return CellSpec(
            workload="compress",
            config=MachineConfig(mechanism="traditional"),
            user_insts=800,
            warmup_insts=100,
            max_cycles=400_000,
        )

    def test_put_writes_manifest_beside_pickle(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = self._spec()
        results = run_cells([spec], jobs=1, cache=cache)
        manifest_path = cache.manifest_path(spec)
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert validate_manifest(manifest) == []
        assert manifest["workload"] == "compress"
        assert manifest["cycles"] == results[0].cycles
