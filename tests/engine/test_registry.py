"""Engine registry: name resolution, env override, core-class lookup."""

import pytest

from repro.engine import (
    ENGINES,
    BatchedSMTCore,
    core_class,
    resolve_engine,
)


class TestResolveEngine:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == "reference"
        assert resolve_engine(None) == "reference"
        assert resolve_engine("") == "reference"

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        assert resolve_engine() == "batched"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        assert resolve_engine("reference") == "reference"

    def test_unknown_name_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("warp-drive")

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp-drive")
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine()

    def test_registry_lists_reference_first(self):
        assert ENGINES == ("reference", "batched")


class TestBackendLookup:
    def test_core_class_per_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert core_class("reference") is None
        assert core_class("batched") is BatchedSMTCore
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        assert core_class() is BatchedSMTCore
