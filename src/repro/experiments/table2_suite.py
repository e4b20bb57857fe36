"""Table 2: the benchmark suite summary.

The paper's Table 2 lists each benchmark's origin and its approximate
data-TLB miss count over a 100M-instruction run.  Our runs are shorter
with proportionally denser misses (see DESIGN.md section 3), so this
harness reports the measured miss count of the configured run length
plus the miss rate per 1000 instructions, preserving the suite's
*relative ordering* (compress and vortex highest, alphadoom lowest).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Settings, resolve_cells
from repro.sim.config import MachineConfig
from repro.workloads.suite import BENCHMARKS


@dataclass
class SuiteRow:
    name: str
    abbrev: str
    description: str
    tlb_misses: int
    misses_per_kilo_inst: float
    base_ipc: float


def run(settings: Settings | None = None) -> list[SuiteRow]:
    """Measure every row of Table 2; returns the rows."""
    settings = settings or Settings.from_env()
    config = MachineConfig(mechanism="hardware")
    outcomes = iter(resolve_cells(
        [settings.cell(name, cfg) for name in settings.benchmarks
         for cfg in (config, config.with_mechanism("perfect"))]
    ))
    rows = []
    for name in settings.benchmarks:
        spec = BENCHMARKS[name]
        result, perfect = next(outcomes), next(outcomes)
        rows.append(
            SuiteRow(
                name=spec.name,
                abbrev=spec.abbrev,
                description=spec.description,
                tlb_misses=result.committed_fills,
                misses_per_kilo_inst=result.miss_rate_per_kilo_inst,
                base_ipc=perfect.ipc,
            )
        )
    return rows


def main() -> list[SuiteRow]:
    """Regenerate and print Table 2 (the CLI entry point)."""
    rows = run()
    print("Table 2: benchmark summary")
    print(f"\n{'name':12s} {'abbr':5s} {'TLB misses':>10s} {'miss/kinst':>10s} "
          f"{'base IPC':>8s}  description")
    print("-" * 100)
    for row in rows:
        print(
            f"{row.name:12s} {row.abbrev:5s} {row.tlb_misses:10d} "
            f"{row.misses_per_kilo_inst:10.2f} {row.base_ipc:8.2f}  "
            f"{row.description}"
        )
    return rows


if __name__ == "__main__":
    main()
