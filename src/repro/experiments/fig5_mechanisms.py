"""Figure 5: traditional vs multithreaded(1/3) vs hardware handlers.

The paper's headline comparison.  Expected shape: the hardware walker is
cheapest; multithreaded with one idle context roughly halves the
traditional penalty; extra idle contexts add only a little; gcc is the
outlier where the multithreaded mechanism beats the hardware walker
(wrong-path TLB misses fill the TLB under the hardware scheme, and the
perfect-TLB baseline absorbs extra speculative cache pollution).
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    PenaltyTable,
    Settings,
    penalty_grid,
)
from repro.sim.config import MachineConfig

LABELS = ("traditional", "multithreaded(1)", "multithreaded(3)", "hardware")


def configs() -> dict[str, MachineConfig]:
    """The machine configurations this figure compares."""
    return {
        "traditional": MachineConfig(mechanism="traditional", idle_threads=1),
        "multithreaded(1)": MachineConfig(mechanism="multithreaded", idle_threads=1),
        "multithreaded(3)": MachineConfig(mechanism="multithreaded", idle_threads=3),
        "hardware": MachineConfig(mechanism="hardware", idle_threads=1),
    }


def run(settings: Settings | None = None) -> ExperimentResult:
    """Measure every row of Figure 5; returns the result grid."""
    settings = settings or Settings.from_env()
    tables = [
        PenaltyTable(name, configs(), reference_label="hardware")
        for name in settings.benchmarks
    ]
    return ExperimentResult("fig5_mechanisms", penalty_grid(tables, settings))


def main() -> ExperimentResult:
    """Regenerate and print Figure 5 (the CLI entry point)."""
    result = run()
    print("Figure 5: relative TLB miss performance of traditional,")
    print("multithreaded, and hardware handlers (penalty cycles per miss)\n")
    print(result.format_table())
    print("\nExpected shape: hardware < multithreaded(3) <= multithreaded(1)")
    print("<< traditional; multithreaded(1) is about half of traditional.")
    return result


if __name__ == "__main__":
    main()
