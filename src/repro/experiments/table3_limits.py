"""Table 3: limit studies of the multithreaded mechanism's overheads.

Each row removes one overhead from the multithreaded(3) configuration:
execute bandwidth, window occupancy, fetch/decode bandwidth, or the
entire handler fetch/decode latency ("instant").  The paper finds the
fetch/decode *latency* dominant -- the observation that motivates
quick-start -- with every bandwidth knob worth only a few tenths of a
cycle.  Traditional and hardware bracket the table.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions.limits import LimitKnobs
from repro.experiments.common import (
    ExperimentResult,
    PenaltyTable,
    Settings,
    penalty_grid,
)
from repro.sim.config import MachineConfig

#: Idle contexts for the limit studies (the paper uses 3 to maximise
#: multithreaded performance).
IDLE_THREADS = 3


def configs() -> dict[str, MachineConfig]:
    multi = MachineConfig(mechanism="multithreaded", idle_threads=IDLE_THREADS)
    return {
        "Traditional Software": MachineConfig(mechanism="traditional"),
        "Multithreaded": multi,
        "Multi w/o execute bandwidth overhead": dataclasses.replace(
            multi, limits=LimitKnobs(no_execute_bandwidth=True)
        ),
        "Multi w/o window overhead": dataclasses.replace(
            multi, limits=LimitKnobs(no_window_overhead=True)
        ),
        "Multi w/o fetch/decode bandwidth overhead": dataclasses.replace(
            multi, limits=LimitKnobs(no_fetch_bandwidth=True)
        ),
        "Multi w/ instant handler fetch/decode": dataclasses.replace(
            multi, limits=LimitKnobs(instant_fetch=True)
        ),
        "Hardware TLB miss handler": MachineConfig(mechanism="hardware"),
    }


def run(settings: Settings | None = None) -> ExperimentResult:
    """Measure every row of Table 3; returns the rows."""
    settings = settings or Settings.from_env()
    tables = [
        PenaltyTable(name, configs(), reference_label="Hardware TLB miss handler")
        for name in settings.benchmarks
    ]
    return ExperimentResult("table3_limits", penalty_grid(tables, settings))


def measured_attribution(settings: Settings | None = None) -> str:
    """Where the cycles actually went, per mechanism (one benchmark).

    Complements the table's what-if rows with the direct measurement:
    a :class:`~repro.obs.attribution.CycleAttribution` run per
    mechanism, rendered side by side.  The qualitative Table-3 story is
    visible in the columns -- traditional's squash/refetch share,
    multithreaded's handler-fetch share, quick-start shrinking it.
    """
    from repro.experiments.report import format_attribution
    from repro.obs.attribution import CycleAttribution
    from repro.sim.simulator import Simulator
    from repro.workloads import build_benchmark

    settings = settings or Settings.from_env()
    bench = settings.benchmarks[0]
    tables = {}
    fills = {}
    for mech in ("traditional", "multithreaded", "quickstart", "hardware"):
        config = MachineConfig(mechanism=mech, idle_threads=IDLE_THREADS)
        sim = Simulator(build_benchmark(bench), config)
        attribution = CycleAttribution.attach(sim.core)
        result = sim.run(settings.user_insts, 10_000_000)
        tables[mech] = attribution.finalize(sim.core.cycle)
        fills[mech] = result.committed_fills
    header = f"Measured cycle attribution ({bench}):"
    return header + "\n" + format_attribution(tables, fills)


def main() -> ExperimentResult:
    """Regenerate and print Table 3 (the CLI entry point)."""
    result = run()
    print("Table 3: average penalty cycles per miss, limit studies")
    print("(multithreaded with one overhead removed at a time)\n")
    width = max(len(label) for label in result.labels())
    print(f"{'Configuration':{width}s}  Average Penalty/Miss")
    print("-" * (width + 22))
    for label in result.labels():
        print(f"{label:{width}s}  {result.average_penalty(label):10.1f}")
    print("\nExpected shape: instant fetch/decode is the only knob with a")
    print("large effect; bandwidth knobs are worth only fractions of a cycle.")
    print()
    print(measured_attribution())
    return result


if __name__ == "__main__":
    main()
