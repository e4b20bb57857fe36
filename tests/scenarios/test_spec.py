"""Scenario-spec contract: deterministic matrices, lint-clean programs,
and cause-aware knobs that leave the default machine untouched."""

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.guest import analyze_source
from repro.faults.fuzz import overrides_for_causes
from repro.faults.progen import CAUSES, ITLB_STRIDE, MIX_STYLES
from repro.scenarios.spec import SCENARIO_CAUSES, ScenarioSpec, generate_matrix
from repro.workloads.builder import make_program


def _errors(source):
    diags = analyze_source(source, unit="scenario-test")
    return [d for d in diags if d.severity is Severity.ERROR]


class TestMatrix:
    def test_matrix_is_deterministic(self):
        a = generate_matrix(seed=3)
        b = generate_matrix(seed=3)
        assert a == b
        assert generate_matrix(seed=4) != a

    def test_matrix_shape(self):
        specs = generate_matrix(seed=0)
        singles = [s for s in specs if len(s.causes) == 1]
        pairs = [s for s in specs if len(s.causes) == 2]
        sweeps = [s for s in specs if len(s.causes) > 2]
        # Every scenario cause appears alone, every pair back-to-back,
        # and the all-cause sweeps cover every mix style once.
        assert sorted(s.causes[0] for s in singles) == sorted(SCENARIO_CAUSES)
        assert len(pairs) == 6
        assert all(s.mix == "back_to_back" for s in pairs)
        assert sorted(s.mix for s in sweeps) == sorted(MIX_STYLES)

    def test_quick_matrix_keeps_one_spec_per_shape(self):
        quick = generate_matrix(seed=0, quick=True)
        assert len(quick) < len(generate_matrix(seed=0))
        assert any(len(s.causes) == 1 for s in quick)
        assert any(len(s.causes) == 2 for s in quick)
        assert any(len(s.causes) > 2 for s in quick)

    def test_specs_carry_the_knobs_their_causes_need(self):
        for spec in generate_matrix(seed=1):
            if "itlb_miss" in spec.causes:
                assert spec.config_overrides.get("itlb_entries") in (1, 2, 4)
            if "unaligned" in spec.causes:
                assert spec.config_overrides.get("align_check") is True

    def test_all_causes_are_known(self):
        for spec in generate_matrix(seed=2):
            assert set(spec.causes) <= set(CAUSES)


class TestPrograms:
    @pytest.mark.parametrize("mix", MIX_STYLES)
    def test_generated_programs_are_lint_clean(self, mix):
        spec = ScenarioSpec(
            name=f"t-{mix}", seed=9, causes=SCENARIO_CAUSES, mix=mix
        )
        program = spec.case().program
        assert _errors(program.source) == []

    def test_build_is_deterministic(self):
        spec = ScenarioSpec(name="t", seed=5, causes=("brev", "swint"))
        assert spec.case().program.source == spec.case().program.source

    def test_itlb_specs_stride_across_text_pages(self):
        spec = ScenarioSpec(name="t", seed=5, causes=("itlb_miss",))
        program = spec.case().program
        assert program.itlb_stride == ITLB_STRIDE
        plain = ScenarioSpec(name="t", seed=5, causes=("brev",))
        assert plain.case().program.itlb_stride == 0

    def test_unaligned_specs_add_the_load_region(self):
        spec = ScenarioSpec(name="t", seed=5, causes=("unaligned",))
        assert len(spec.case().program.regions) == 2

    def test_overrides_without_rng_are_stable(self):
        assert overrides_for_causes(("itlb_miss", "unaligned")) == {
            "itlb_entries": 1,
            "align_check": True,
        }
        assert overrides_for_causes(("brev",)) == {}


class TestSeedCompatibility:
    def test_default_program_has_no_scenario_handlers(self):
        # The seed machine's image must stay byte-identical unless a
        # scenario explicitly opts in to the new causes.
        program = make_program("main:\n  halt\n")
        assert sorted(program.pal_entries) == ["dtlb_miss", "emul"]

    def test_scenario_program_installs_every_cause_handler(self):
        program = make_program("main:\n  halt\n", scenario_causes=True)
        assert sorted(program.pal_entries) == sorted(CAUSES)
