"""Cause-aware fuzzing: the seed rotation reaches every restartable
cause, explicit ``--causes`` filters work end to end, and cause-bearing
cases stay digest-clean across the whole mechanism matrix."""

import json

import pytest

from repro.engine import ENGINES
from repro.faults.cli import main as fuzz_main
from repro.faults.fuzz import (
    CAUSE_ROTATION,
    CAUSES,
    fuzz,
    make_case,
    overrides_for_causes,
    run_case,
    run_program,
)


class TestRotation:
    def test_rotation_reaches_every_cause(self):
        covered = set()
        for entry in CAUSE_ROTATION:
            covered.update(entry)
        # dtlb_miss and emul are always present in the base generator;
        # the rotation only needs to add the scenario causes.
        assert covered == set(CAUSES) - {"dtlb_miss", "emul"}

    def test_rotation_keeps_a_legacy_slot(self):
        # Slot 0 is the pre-scenario generator, so old seeds keep their
        # exact historical programs.
        assert CAUSE_ROTATION[0] == ()

    def test_case_causes_follow_the_seed(self):
        for seed in range(len(CAUSE_ROTATION)):
            case = make_case(seed, length=16, iters=4)
            assert case.causes == CAUSE_ROTATION[seed % len(CAUSE_ROTATION)]

    def test_explicit_causes_override_rotation(self):
        case = make_case(0, length=16, iters=4, causes=("brev",))
        assert case.causes == ("brev",)


class TestOverrides:
    def test_itlb_pressure_knob(self):
        assert overrides_for_causes(("itlb_miss",))["itlb_entries"] >= 1

    def test_alignment_knob(self):
        assert overrides_for_causes(("unaligned",)) == {"align_check": True}

    def test_no_knobs_without_causes(self):
        assert overrides_for_causes(()) == {}

    def test_case_carries_its_overrides(self):
        case = make_case(3, length=16, iters=4, causes=("itlb_miss",))
        assert case.config_overrides.get("itlb_entries") == 1


@pytest.mark.parametrize("causes", [("brev", "swint"), ("unaligned",),
                                    ("itlb_miss",)])
def test_cause_cases_are_digest_clean(causes):
    case = make_case(5, length=20, iters=6, causes=causes)
    result = run_case(case, max_cycles=600_000)
    assert result.ok, result.divergences


@pytest.mark.parametrize("engine", ENGINES)
def test_itlb_handler_page_fault_after_waking_master_halts(engine):
    # Case 2003 used to livelock the multithreaded machine: a handler's
    # speculative itlbwr woke the master, the handler then took a hard
    # exception and was reclaimed without a trap, so nothing ran the
    # page-fault fix-up and every refetch respawned a doomed handler.
    case = make_case(2003)
    perfect = run_program(case, "perfect", "", None, 200_000)
    outcome = run_program(
        case, "multithreaded", "seed:2003,pte_corrupt:140", None, 200_000,
        engine,
    )
    assert outcome.ok, outcome.detail
    assert outcome.digest == perfect.digest


def test_fuzz_rejects_unknown_cause():
    with pytest.raises(ValueError):
        fuzz(seed=0, max_programs=1, causes=["bogus"], log=lambda m: None)


class TestCli:
    def test_causes_filter_round_trip(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        status = fuzz_main(
            ["--programs", "1", "--seed", "2", "--causes", "brev,swint",
             "--stats-out", str(stats), "--quiet"]
        )
        assert status == 0
        report = json.loads(stats.read_text())
        assert report["failures"] == []
        assert report["causes"] == ["brev", "swint"]
        capsys.readouterr()

    def test_unknown_cause_is_bad_usage(self, capsys):
        assert fuzz_main(["--causes", "nope", "--programs", "1"]) == 2
        assert "nope" in capsys.readouterr().err
