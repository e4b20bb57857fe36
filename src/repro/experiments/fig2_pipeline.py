"""Figure 2: traditional trap cost vs pipeline length.

The paper sweeps the number of stages between fetch and execute
(3/7/11) on the 8-wide machine with the traditional software handler,
and finds the penalty growing with a slope of roughly 2x the depth: one
pipeline refill at the trap, and a second one after the (unpredicted)
exception return.  Each depth gets its own perfect-TLB baseline.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    PenaltyTable,
    Settings,
    penalty_grid,
)
from repro.sim.config import MachineConfig

PIPE_DEPTHS = (3, 7, 11)


def run(settings: Settings | None = None) -> ExperimentResult:
    """Measure every row of Figure 2; returns the result grid."""
    settings = settings or Settings.from_env()
    base = MachineConfig(mechanism="traditional")
    tables = [
        PenaltyTable(name, {f"{depth} stages": base.with_pipe_depth(depth)})
        for name in settings.benchmarks
        for depth in PIPE_DEPTHS
    ]
    return ExperimentResult("fig2_pipeline", penalty_grid(tables, settings))


def main() -> ExperimentResult:
    """Regenerate and print Figure 2 (the CLI entry point)."""
    result = run()
    print("Figure 2: software TLB miss overhead vs pipeline length")
    print("(penalty cycles per TLB miss, traditional handler)\n")
    print(result.format_table())
    print("\nExpected shape: penalty grows roughly linearly with depth;")
    print("the slope is ~2 per stage (two pipeline refills per trap).")
    return result


if __name__ == "__main__":
    main()
