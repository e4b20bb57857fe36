"""Engine registry: name resolution, env override, core-class lookup,
and the kernel a directly built ``Simulator`` runs."""

import pytest

from repro.engine import (
    ENGINES,
    FusedSMTCore,
    core_class,
    resolve_engine,
)
from repro.pipeline.core import SMTCore
from repro.sim.config import MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads import build_benchmark


class TestResolveEngine:
    def test_default_is_fused(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == "fused"
        assert resolve_engine(None) == "fused"
        assert resolve_engine("") == "fused"

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine() == "reference"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine("fused") == "fused"

    def test_unknown_name_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("warp-drive")

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp-drive")
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine()

    def test_registry_lists_reference_first(self):
        assert ENGINES == ("reference", "fused")

    def test_old_name_resolves_to_fused(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine("batched") == "fused"
        assert core_class("batched") is FusedSMTCore
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        assert resolve_engine() == "fused"
        assert core_class() is FusedSMTCore


class TestBackendLookup:
    def test_core_class_per_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert core_class("reference") is None
        assert core_class("fused") is FusedSMTCore
        assert core_class() is FusedSMTCore
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert core_class() is None

    @pytest.mark.parametrize("env", [None, "fused", "reference"])
    def test_plain_simulator_builds_the_reference_core(self, monkeypatch, env):
        # Only run_cell consults the registry; Simulator(program, config)
        # is the reference kernel whatever REPRO_ENGINE says, which is
        # what the end-to-end benchmark's kernel workload measures.
        if env is None:
            monkeypatch.delenv("REPRO_ENGINE", raising=False)
        else:
            monkeypatch.setenv("REPRO_ENGINE", env)
        sim = Simulator(build_benchmark("compress"), MachineConfig())
        assert type(sim.core) is SMTCore
