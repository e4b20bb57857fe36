"""Figure 6: the quick-starting multithreaded implementation.

Quick-start prefetches the predicted next handler into an idle thread's
fetch buffer, removing (most of) the handler's fetch latency -- the
dominant overhead identified by Table 3.  Expected shape: quick-start
lands between multithreaded(1) and the hardware walker, recovering most
of the gap (the paper: ~1.7 of the 2.5-cycle instant-fetch headroom).
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    PenaltyTable,
    Settings,
    penalty_grid,
)
from repro.sim.config import MachineConfig


def configs() -> dict[str, MachineConfig]:
    """The machine configurations this figure compares."""
    return {
        "multithreaded(1)": MachineConfig(mechanism="multithreaded", idle_threads=1),
        "quick start(1)": MachineConfig(mechanism="quickstart", idle_threads=1),
        "hardware": MachineConfig(mechanism="hardware", idle_threads=1),
    }


def run(settings: Settings | None = None) -> ExperimentResult:
    """Measure every row of Figure 6; returns the result grid."""
    settings = settings or Settings.from_env()
    tables = [
        PenaltyTable(name, configs(), reference_label="hardware")
        for name in settings.benchmarks
    ]
    return ExperimentResult("fig6_quickstart", penalty_grid(tables, settings))


def main() -> ExperimentResult:
    """Regenerate and print Figure 6 (the CLI entry point)."""
    result = run()
    print("Figure 6: performance of the quick-starting multithreaded")
    print("implementation (penalty cycles per TLB miss)\n")
    print(result.format_table())
    mt = result.average_penalty("multithreaded(1)")
    qs = result.average_penalty("quick start(1)")
    hw = result.average_penalty("hardware")
    if mt > hw:
        recovered = (mt - qs) / (mt - hw)
        print(f"\nQuick-start recovers {100 * recovered:.0f}% of the")
        print("multithreaded-to-hardware gap (the paper reports ~80%/~68%).")
    return result


if __name__ == "__main__":
    main()
