"""Shared experiment plumbing.

The central routine is :func:`penalty_grid`: for each
:class:`PenaltyTable` of an experiment (one benchmark under a set of
machine configurations) it runs a perfect-TLB baseline plus each
configuration and reports **penalty cycles per TLB miss**.  Following the
paper (whose Table 2 miss counts are a property of the *benchmark*, not
the mechanism), the divisor is a single per-benchmark reference count --
the committed fills of a designated reference run -- so mechanisms are
compared on identical footing.

Every experiment resolves its whole grid in **one** :func:`resolve_cells`
call: one worker pool (or one sweep-service request) sees all of the
experiment's cells, so the workers stay busy to the end of the grid and
the parent process simulates nothing itself.

Run lengths scale with the ``REPRO_SCALE`` environment variable
(default 1) so the same harness serves quick smoke runs and long
measurement runs.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Sequence

from repro.sim.config import MachineConfig
from repro.sim.parallel import CellSpec, run_cells, warm_checkpoints
from repro.sim.simulator import SimResult
from repro.workloads.suite import BENCHMARK_NAMES


def _scale() -> float:
    raw = os.environ.get("REPRO_SCALE", "1")
    try:
        value = float(raw)
    except ValueError:
        return 1.0
    if value < 0.1:
        warnings.warn(
            f"REPRO_SCALE={raw!r} is below the minimum; clamping to 0.1",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.1
    return value


@dataclass
class Settings:
    """Run-length knobs for every experiment."""

    user_insts: int = 12_000
    warmup_insts: int = 3_000
    max_cycles: int = 8_000_000
    benchmarks: Sequence[str] = BENCHMARK_NAMES

    @classmethod
    def from_env(cls) -> "Settings":
        scale = _scale()
        return cls(
            user_insts=int(12_000 * scale),
            warmup_insts=int(3_000 * scale),
            max_cycles=int(8_000_000 * max(1.0, scale)),
        )

    def cell(self, workload: str | tuple[str, ...], config: MachineConfig) -> CellSpec:
        """One simulation of ``workload`` under ``config`` at these run lengths."""
        return CellSpec(
            workload=workload,
            config=config,
            user_insts=self.user_insts,
            warmup_insts=self.warmup_insts,
            max_cycles=self.max_cycles,
        )


@dataclass
class Row:
    """One measured cell: a (benchmark, configuration) pair."""

    benchmark: str
    label: str
    cycles: int
    perfect_cycles: int
    reference_misses: int
    committed_fills: int
    ipc: float

    @property
    def penalty_per_miss(self) -> float:
        if not self.reference_misses:
            return 0.0
        return (self.cycles - self.perfect_cycles) / self.reference_misses

    @property
    def relative_overhead(self) -> float:
        """Fraction of run time spent on TLB handling."""
        if not self.cycles:
            return 0.0
        return (self.cycles - self.perfect_cycles) / self.cycles


@dataclass
class ExperimentResult:
    """All rows of one experiment, with helpers for printing."""

    name: str
    rows: list[Row] = field(default_factory=list)

    def by_label(self, label: str) -> list[Row]:
        return [r for r in self.rows if r.label == label]

    def labels(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            if row.label not in seen:
                seen.append(row.label)
        return seen

    def average_penalty(self, label: str) -> float:
        rows = self.by_label(label)
        if not rows:
            return 0.0
        return sum(r.penalty_per_miss for r in rows) / len(rows)

    def cell(self, benchmark: str, label: str) -> Row | None:
        for row in self.rows:
            if row.benchmark == benchmark and row.label == label:
                return row
        return None

    def format_table(self, value: str = "penalty_per_miss") -> str:
        """Render benchmarks x labels as an aligned text table."""
        labels = self.labels()
        benchmarks: list[str] = []
        for row in self.rows:
            if row.benchmark not in benchmarks:
                benchmarks.append(row.benchmark)
        width = max(10, *(len(b) for b in benchmarks)) if benchmarks else 10
        header = f"{'benchmark':{width}s} " + " ".join(
            f"{label:>12s}" for label in labels
        )
        lines = [header, "-" * len(header)]
        for bench in benchmarks:
            cells = []
            for label in labels:
                row = self.cell(bench, label)
                cells.append(f"{getattr(row, value):12.2f}" if row else " " * 12)
            lines.append(f"{bench:{width}s} " + " ".join(cells))
        averages = []
        for label in labels:
            rows = self.by_label(label)
            avg = sum(getattr(r, value) for r in rows) / len(rows) if rows else 0.0
            averages.append(f"{avg:12.2f}")
        lines.append("-" * len(header))
        lines.append(f"{'average':{width}s} " + " ".join(averages))
        return "\n".join(lines)


def resolve_cells(specs: list[CellSpec]) -> list[SimResult]:
    """Resolve one experiment's whole grid, in spec order.

    Against a sweep service when ``REPRO_SERVER`` is set
    (``repro-experiments --server URL``; see docs/SERVICE.md), else with
    the local pool runner.  Both are bit-identical: the server runs the
    same cells under the same cache keys.
    """
    server = os.environ.get("REPRO_SERVER", "").strip()
    if server:
        from repro.serve.client import run_cells_via_server

        return run_cells_via_server(server, specs, warm=warm_checkpoints())
    return run_cells(specs)


@dataclass
class PenaltyTable:
    """One benchmark measured under several configurations.

    ``configs`` maps display labels to machine configurations (all
    non-perfect).  A perfect-TLB baseline derived from the first config
    is run automatically.  The reference miss count comes from
    ``reference_label``'s run (default: the first config's run).
    ``workload`` names the benchmark (or mix tuple) to build; it
    defaults to ``name``.
    """

    name: str
    configs: dict[str, MachineConfig]
    reference_label: str | None = None
    workload: str | tuple[str, ...] | None = None


def penalty_grid(tables: Sequence[PenaltyTable], settings: Settings) -> list[Row]:
    """Measure every table of an experiment with one :func:`resolve_cells`
    call; returns the rows table by table, configs in label order."""
    specs = []
    for table in tables:
        workload = table.workload if table.workload is not None else table.name
        base = next(iter(table.configs.values()))
        specs.append(settings.cell(workload, base.with_mechanism("perfect")))
        specs += [settings.cell(workload, c) for c in table.configs.values()]
    outcomes = iter(resolve_cells(specs))
    rows = []
    for table in tables:
        perfect = next(outcomes)
        results = {label: next(outcomes) for label in table.configs}
        ref_label = table.reference_label or next(iter(table.configs))
        reference = max(1, results[ref_label].committed_fills)
        rows += [
            Row(
                benchmark=table.name,
                label=label,
                cycles=result.cycles,
                perfect_cycles=perfect.cycles,
                reference_misses=reference,
                committed_fills=result.committed_fills,
                ipc=perfect.ipc,
            )
            for label, result in results.items()
        ]
    return rows
