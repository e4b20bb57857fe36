"""Gate logic tests for the engine perf-regression check: each kernel
is gated against its own entry in the ledger, and a baseline that lacks
anything the report gates fails the gate."""

import copy

from repro.sim.perfbench import check_gate, format_gate_summary


def _report(scale=1.0, fused_scale=None):
    ips = {"perfect": 16000.0, "traditional": 14000.0}
    scales = {"reference": scale, "fused": scale if fused_scale is None else fused_scale}
    return {
        "engines": {
            kernel: {
                "instrs_per_sec": {k: v * s for k, v in ips.items()},
                "aggregate": 14933.3 * s,
            }
            for kernel, s in scales.items()
        }
    }


BASELINE = _report()

ROWS = {
    f"{kernel}/{name}"
    for kernel in ("reference", "fused")
    for name in ("perfect", "traditional", "aggregate")
}


def _failing(rows):
    return {name for name, *_, within in rows if not within}


def test_equal_throughput_passes():
    rows, ok = check_gate(_report(), BASELINE, max_drop=0.15)
    assert ok
    assert {name for name, *_ in rows} == ROWS
    assert all(within for *_, within in rows)


def test_small_drop_within_tolerance_passes():
    rows, ok = check_gate(_report(0.90), BASELINE, max_drop=0.15)
    assert ok


def test_large_drop_fails():
    rows, ok = check_gate(_report(0.80), BASELINE, max_drop=0.15)
    assert not ok
    assert all(not within for *_, within in rows)


def test_single_mechanism_regression_fails():
    report = _report()
    report["engines"]["reference"]["instrs_per_sec"]["traditional"] = 10000.0
    rows, ok = check_gate(report, BASELINE, max_drop=0.15)
    assert not ok
    assert _failing(rows) == {"reference/traditional"}


def test_each_kernel_gates_against_its_own_entry():
    # The fused kernel at the reference kernel's old speed is a drop
    # for the fused kernel, however fast the reference entry was.
    baseline = _report(fused_scale=1.5)
    rows, ok = check_gate(_report(), baseline, max_drop=0.15)
    assert not ok
    assert _failing(rows) == {
        "fused/perfect", "fused/traditional", "fused/aggregate"
    }


def test_improvement_never_trips_the_gate():
    rows, ok = check_gate(_report(2.0), BASELINE, max_drop=0.15)
    assert ok


def test_unknown_mechanisms_in_baseline_are_ignored():
    baseline = copy.deepcopy(BASELINE)
    baseline["engines"]["fused"]["instrs_per_sec"]["retired_mech"] = 1.0
    rows, ok = check_gate(_report(), baseline, max_drop=0.15)
    assert ok
    assert "fused/retired_mech" not in {name for name, *_ in rows}


def test_empty_baseline_fails_and_names_everything():
    rows, ok = check_gate(_report(), {}, max_drop=0.15)
    assert not ok
    assert _failing(rows) == ROWS
    assert all(base is None and delta is None for _, base, _, delta, _ in rows)


def test_baseline_missing_a_kernel_fails():
    baseline = copy.deepcopy(BASELINE)
    del baseline["engines"]["fused"]
    rows, ok = check_gate(_report(), baseline, max_drop=0.15)
    assert not ok
    assert _failing(rows) == {
        "fused/perfect", "fused/traditional", "fused/aggregate"
    }


def test_baseline_missing_a_mechanism_or_aggregate_fails():
    baseline = copy.deepcopy(BASELINE)
    del baseline["engines"]["reference"]["instrs_per_sec"]["perfect"]
    del baseline["engines"]["fused"]["aggregate"]
    rows, ok = check_gate(_report(), baseline, max_drop=0.15)
    assert not ok
    assert _failing(rows) == {"reference/perfect", "fused/aggregate"}


def test_old_single_kernel_ledger_fails():
    # The pre-ledger BENCH_engine.json shape: one kernel, top-level keys.
    old = {
        "instrs_per_sec": {"perfect": 16000.0, "traditional": 14000.0},
        "aggregate": 14933.3,
    }
    rows, ok = check_gate(_report(), old, max_drop=0.15)
    assert not ok
    assert _failing(rows) == ROWS


def test_summary_is_markdown_with_deltas():
    rows, ok = check_gate(_report(0.80), BASELINE, max_drop=0.15)
    text = format_gate_summary(rows, ok, 0.15)
    assert "FAIL" in text
    assert "**REGRESSION**" in text
    assert "| kernel/mechanism |" in text
    assert "| fused/perfect |" in text
    assert "-20.0%" in text


def test_summary_names_what_the_baseline_lacks():
    baseline = copy.deepcopy(BASELINE)
    del baseline["engines"]["fused"]
    rows, ok = check_gate(_report(), baseline, max_drop=0.15)
    text = format_gate_summary(rows, ok, 0.15)
    assert "| fused/aggregate | missing |" in text
    assert "**MISSING FROM BASELINE**" in text
