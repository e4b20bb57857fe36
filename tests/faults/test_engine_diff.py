"""Engine-diff fuzzing: the fused kernel fuzzed against the reference
kernel, plus the oracle self-test proving a skewed kernel is caught."""

import pytest

import repro.faults.fuzz as fuzz_mod
from repro.engine.core import FusedSMTCore
from repro.faults.cli import main as fuzz_main
from repro.faults.fuzz import fuzz, make_case, run_engine_diff_case


def test_clean_engines_agree():
    result = run_engine_diff_case(
        make_case(1, length=20, iters=8), max_cycles=600_000
    )
    assert result.ok, result.divergences


def test_fuzz_engine_diff_mode_reports_itself():
    report = fuzz(
        seed=3, max_programs=1, engine_diff=True, log=lambda msg: None
    )
    assert report.ok, report.failures
    assert report.engine_diff
    assert report.to_json()["engine_diff"] is True


def test_cli_engine_diff_smoke(capsys):
    assert fuzz_main(["--engine-diff", "--programs", "1", "--quiet"]) == 0
    assert "0 failure(s)" in capsys.readouterr().out


class _SkewedCore(FusedSMTCore):
    """A deliberately broken kernel: one phantom squash per run_to."""

    def run_to(self, watch, stop_cycle):
        done = super().run_to(watch, stop_cycle)
        self.stats.squashed += 1
        return done


def test_oracle_catches_a_skewed_kernel(monkeypatch):
    monkeypatch.setattr(
        "repro.engine.core_class", lambda name=None: _SkewedCore
    )
    result = run_engine_diff_case(
        make_case(1, length=20, iters=8), max_cycles=600_000
    )
    assert not result.ok
    divergence = result.divergences[0]
    assert divergence.reason == "engine"
    assert "sim counters differ" in divergence.detail


def test_engine_diff_counts_faults_once_per_reference_run():
    # The diff mode runs every mechanism twice, but injected-fault
    # totals must count each schedule once or reports would double.
    case = make_case(2, length=20, iters=8)
    diff = run_engine_diff_case(case, max_cycles=600_000)
    normal = fuzz_mod.run_case(case, max_cycles=600_000)
    assert diff.ok and normal.ok
    assert diff.fault_counts == normal.fault_counts
