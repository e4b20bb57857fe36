"""Tests for the kernel-parity pass (``repro.analysis.parity``).

The pass diffs the mutation/hook fact sets of the reference pipeline
against the fused kernel.  The shipped tree must verify clean,
the self-test must catch a seeded drift, and the diff checker is
exercised on synthetic inputs.
"""

from __future__ import annotations

from repro.analysis.parity import (
    FactSet,
    ParityModel,
    SELFTEST_FACT,
    diff_model,
    extract_model,
    run_parity,
    scan_ledger,
    selftest,
)


class TestShippedTree:
    def test_shipped_tree_is_clean(self):
        assert run_parity() == []

    def test_fact_sets_are_substantial(self):
        # Guard against the extractor silently degrading to a no-op: both
        # kernels mutate a lot of state, and a collapse in either fact set
        # would make the diff vacuously clean.
        model = extract_model()
        assert len(model.ref) > 50
        assert len(model.fused) > 50

    def test_fused_side_is_subset_plus_ledger(self):
        model = extract_model()
        fused_only = model.fused.keys() - model.ref.keys()
        assert fused_only == set(), (
            "fused kernel must not mutate state the reference never touches"
        )
        ledgered = {fact for fact, _reason, _line in model.ledger}
        ref_only = {f.split(":", 1)[1] for f in model.ref.keys() - model.fused.keys()}
        assert ref_only == ledgered

    def test_selftest_catches_seeded_drift(self):
        ok, report = selftest()
        assert ok, report
        assert SELFTEST_FACT.split(":", 1)[1] in report


def _model(ref_facts, fused_facts, ledger=()):
    ref = FactSet()
    for f in ref_facts:
        ref.record(f, ("Ref.method", 10))
    fused = FactSet()
    for f in fused_facts:
        fused.record(f, ("Fused.method", 20))
    return ParityModel(
        ref=ref,
        fused=fused,
        ledger=list(ledger),
        fused_file="<fused>",
        ref_file="<ref>",
    )


class TestDiffModel:
    def test_matching_sets_are_clean(self):
        model = _model(["mut:A.x", "hook:h.f"], ["mut:A.x", "hook:h.f"])
        assert diff_model(model) == []

    def test_reference_only_mutation_is_error(self):
        model = _model(["mut:A.x"], [])
        diags = diff_model(model)
        assert [d.code for d in diags] == ["parity-mutation-drift"]
        assert diags[0].is_error
        assert "A.x" in diags[0].message
        assert "Ref.method:10" in diags[0].message

    def test_reference_only_hook_is_error(self):
        diags = diff_model(_model(["hook:listeners.fetch"], []))
        assert [d.code for d in diags] == ["parity-hook-drift"]
        assert diags[0].is_error

    def test_ledger_entry_accepts_drift(self):
        model = _model(
            ["hook:listeners.fetch"],
            [],
            ledger=[("listeners.fetch", "fused bails to reference", 5)],
        )
        assert diff_model(model) == []

    def test_unused_ledger_entry_is_error(self):
        model = _model(
            ["mut:A.x"],
            ["mut:A.x"],
            ledger=[("listeners.fetch", "stale reason", 5)],
        )
        diags = diff_model(model)
        assert [d.code for d in diags] == ["parity-elided-unused"]
        assert diags[0].is_error
        assert diags[0].line == 5

    def test_fused_only_hook_is_error(self):
        diags = diff_model(_model([], ["hook:faults.observe"]))
        assert [d.code for d in diags] == ["parity-hook-drift"]
        assert diags[0].is_error

    def test_fused_only_mutation_is_warning(self):
        diags = diff_model(_model([], ["mut:A.scratch"]))
        assert [d.code for d in diags] == ["parity-unmatched-site"]
        assert not diags[0].is_error

    def test_ledger_does_not_excuse_fused_only_hooks(self):
        model = _model(
            [],
            ["hook:faults.observe"],
            ledger=[("faults.observe", "bogus", 3)],
        )
        codes = sorted(d.code for d in diff_model(model))
        assert codes == ["parity-elided-unused", "parity-hook-drift"]


class TestScanLedger:
    def test_parses_fact_reason_and_line(self):
        text = "x = 1\n# parity: elided(listeners.fetch, fused path bails)\n"
        assert scan_ledger(text) == [("listeners.fetch", "fused path bails", 2)]

    def test_ignores_unrelated_comments(self):
        assert scan_ledger("# parity is great\n# elided(x, y)\n") == []
