"""Figure 7: TLB miss penalties with three applications on the SMT.

The paper co-schedules three benchmarks plus one idle context and
repeats the mechanism comparison on its eight mixes.  Expected shape:
the benefit of the multithreaded mechanism shrinks to roughly a 25%
penalty reduction (30% with quick-start) because the SMT already
tolerates trap latency with the other threads' work -- but the saved
fetch/decode bandwidth still matters.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    PenaltyTable,
    Settings,
    penalty_grid,
)
from repro.sim.config import MachineConfig
from repro.workloads.suite import FIG7_MIXES


def configs() -> dict[str, MachineConfig]:
    """The machine configurations this figure compares."""
    return {
        "traditional": MachineConfig(mechanism="traditional", idle_threads=1),
        "multithreaded(1)": MachineConfig(mechanism="multithreaded", idle_threads=1),
        "quick start(1)": MachineConfig(mechanism="quickstart", idle_threads=1),
        "hardware": MachineConfig(mechanism="hardware", idle_threads=1),
    }


def run(settings: Settings | None = None) -> ExperimentResult:
    """Measure every row of Figure 7; returns the result grid."""
    settings = settings or Settings.from_env()
    tables = [
        PenaltyTable("-".join(mix), configs(), reference_label="hardware", workload=mix)
        for mix in FIG7_MIXES
    ]
    return ExperimentResult("fig7_multiprogram", penalty_grid(tables, settings))


def main() -> ExperimentResult:
    """Regenerate and print Figure 7 (the CLI entry point)."""
    result = run()
    print("Figure 7: average TLB miss penalties with 3 applications")
    print("running on the SMT (penalty cycles per miss)\n")
    print(result.format_table())
    trad = result.average_penalty("traditional")
    mt = result.average_penalty("multithreaded(1)")
    qs = result.average_penalty("quick start(1)")
    if trad:
        print(f"\nMultithreading reduces the average penalty by "
              f"{100 * (trad - mt) / trad:.0f}% "
              f"({100 * (trad - qs) / trad:.0f}% with quick-start);")
        print("the paper reports 25% (30% with quick-start).")
    return result


if __name__ == "__main__":
    main()
