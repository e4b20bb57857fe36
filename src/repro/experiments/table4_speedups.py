"""Table 4: speedups over the traditional software handler.

For every benchmark: base IPC, TLB miss count, and the percentage
speedup of {perfect TLB, hardware, multithreaded(1/3), quick-start(1/3)}
over the traditional software mechanism.  The paper notes these small
absolute speedups follow directly from the penalty-per-miss results and
each benchmark's miss rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import Settings, resolve_cells
from repro.sim.config import MachineConfig

COLUMNS = ("Perfect", "H/W", "Multi(1)", "Multi(3)", "Quick(1)", "Quick(3)")


def configs() -> dict[str, MachineConfig]:
    """The machine configurations this table compares."""
    return {
        "Perfect": MachineConfig(mechanism="perfect"),
        "H/W": MachineConfig(mechanism="hardware"),
        "Multi(1)": MachineConfig(mechanism="multithreaded", idle_threads=1),
        "Multi(3)": MachineConfig(mechanism="multithreaded", idle_threads=3),
        "Quick(1)": MachineConfig(mechanism="quickstart", idle_threads=1),
        "Quick(3)": MachineConfig(mechanism="quickstart", idle_threads=3),
    }


@dataclass
class SpeedupRow:
    benchmark: str
    base_ipc: float
    tlb_misses: int
    #: column label -> percent speedup over traditional.
    speedups: dict[str, float] = field(default_factory=dict)


def run(settings: Settings | None = None) -> list[SpeedupRow]:
    """Measure every row of Table 4; returns the rows."""
    settings = settings or Settings.from_env()
    grid = dict(configs())
    labels = ["traditional", *grid]
    grid["traditional"] = MachineConfig(mechanism="traditional")

    outcomes = resolve_cells(
        [settings.cell(name, grid[label])
         for name in settings.benchmarks for label in labels]
    )

    rows = []
    for bench_idx, name in enumerate(settings.benchmarks):
        cells = dict(
            zip(labels, outcomes[bench_idx * len(labels) : (bench_idx + 1) * len(labels)])
        )
        traditional = cells.pop("traditional")
        row = SpeedupRow(benchmark=name, base_ipc=0.0, tlb_misses=0)
        for label, result in cells.items():
            row.speedups[label] = 100.0 * (
                traditional.cycles / result.cycles - 1.0
            )
            if label == "Perfect":
                row.base_ipc = result.ipc
            if label == "H/W":
                row.tlb_misses = result.committed_fills
        rows.append(row)
    return rows


def main() -> list[SpeedupRow]:
    """Regenerate and print Table 4 (the CLI entry point)."""
    rows = run()
    print("Table 4: speedups over traditional software, TLB miss counts,")
    print("and base IPC\n")
    header = f"{'benchmark':12s} {'IPC':>5s} {'misses':>7s} " + " ".join(
        f"{c:>9s}" for c in COLUMNS
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row.benchmark:12s} {row.base_ipc:5.1f} {row.tlb_misses:7d} "
            + " ".join(f"{row.speedups[c]:8.1f}%" for c in COLUMNS)
        )
    print("\nExpected shape: speedups track miss rate; compress and vortex")
    print("benefit most; Perfect >= Multi/Quick >= 0 everywhere.")
    return rows


if __name__ == "__main__":
    main()
