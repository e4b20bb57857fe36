"""Figure 3: relative TLB overhead vs superscalar width.

The paper runs 2-wide/32-window, 4-wide/64-window, and 8-wide/128-window
machines and reports the *relative TLB execution percentage*: the
fraction of run time spent on TLB miss handling, normalised to the
2-wide machine.  Wider machines speed the application up more than they
speed the (serial) trap path up, so the percentage grows with width.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    PenaltyTable,
    Settings,
    penalty_grid,
)
from repro.sim.config import MachineConfig

WIDTHS = (2, 4, 8)


def run(settings: Settings | None = None) -> ExperimentResult:
    """Measure every row of Figure 3; returns the result grid."""
    settings = settings or Settings.from_env()
    base = MachineConfig(mechanism="traditional")
    tables = [
        PenaltyTable(name, {f"{width}-wide": base.with_width(width)})
        for name in settings.benchmarks
        for width in WIDTHS
    ]
    return ExperimentResult("fig3_width", penalty_grid(tables, settings))


def normalized_overheads(result: ExperimentResult, benchmark: str) -> dict[str, float]:
    """Per-width TLB overhead fraction normalised to the 2-wide machine."""
    rows = {r.label: r for r in result.rows if r.benchmark == benchmark}
    base = rows.get("2-wide")
    if base is None or base.relative_overhead == 0.0:
        return {label: 0.0 for label in rows}
    return {
        label: row.relative_overhead / base.relative_overhead
        for label, row in rows.items()
    }


def main() -> ExperimentResult:
    """Regenerate and print Figure 3 (the CLI entry point)."""
    result = run()
    print("Figure 3: relative TLB execution percentage vs machine width")
    print("(TLB overhead fraction, normalised to the 2-wide machine)\n")
    benchmarks = sorted({r.benchmark for r in result.rows})
    labels = [f"{w}-wide" for w in WIDTHS]
    width = max(10, *(len(b) for b in benchmarks))
    print(f"{'benchmark':{width}s} " + " ".join(f"{label:>10s}" for label in labels))
    sums = {label: 0.0 for label in labels}
    for bench in benchmarks:
        norm = normalized_overheads(result, bench)
        print(
            f"{bench:{width}s} "
            + " ".join(f"{norm.get(label, 0.0):10.2f}" for label in labels)
        )
        for label in labels:
            sums[label] += norm.get(label, 0.0)
    print(
        f"{'average':{width}s} "
        + " ".join(f"{sums[label] / len(benchmarks):10.2f}" for label in labels)
    )
    print("\nExpected shape: overhead fraction grows with width (TLB")
    print("handling does not benefit from issue width as much as the app).")
    return result


if __name__ == "__main__":
    main()
