"""Make the benchmark importable as ``benchmarks.e2e`` and keep the
scratch space of each test inside its own temporary directory."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[3]
for path in (_ROOT / "src", _ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def _scratch(tmp_path, monkeypatch):
    from benchmarks.e2e import common

    monkeypatch.setattr(common, "WORK", tmp_path / "work")
