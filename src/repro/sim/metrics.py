"""The paper's metrics.

The central metric is **penalty cycles per TLB miss** (Section 3): run a
workload twice -- once with the mechanism under study, once with a
perfect TLB -- and divide the cycle difference by the number of committed
TLB fills.  Unlike CPI contribution, this normalises away each
benchmark's miss *rate* and exposes the cost of each miss, which is what
the exception architecture actually changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.program import Program
from repro.sim.config import MachineConfig
from repro.sim.simulator import SimResult, Simulator


@dataclass
class PenaltyResult:
    """Penalty-per-miss comparison of one mechanism against perfect."""

    mechanism: str
    cycles: int
    perfect_cycles: int
    fills: int
    retired_user: int

    @property
    def penalty_cycles(self) -> int:
        return self.cycles - self.perfect_cycles

    @property
    def penalty_per_miss(self) -> float:
        if not self.fills:
            return 0.0
        return self.penalty_cycles / self.fills

    @property
    def speedup_over(self) -> Callable[["PenaltyResult"], float]:
        """``result.speedup_over(other)``: other.cycles / self.cycles."""
        return lambda other: other.cycles / self.cycles if self.cycles else 0.0

    @property
    def relative_overhead(self) -> float:
        """Fraction of execution time attributable to TLB handling."""
        if not self.cycles:
            return 0.0
        return self.penalty_cycles / self.cycles


def penalty_per_miss(result: SimResult, perfect: SimResult) -> PenaltyResult:
    """Package the paper's metric from two finished runs."""
    return PenaltyResult(
        mechanism=result.mechanism,
        cycles=result.cycles,
        perfect_cycles=perfect.cycles,
        fills=result.committed_fills,
        retired_user=result.stats.retired_user,
    )


def run_pair(
    program_factory: Callable[[], Program | list[Program]],
    config: MachineConfig,
    user_insts: int,
    max_cycles: int = 10_000_000,
) -> tuple[SimResult, SimResult, PenaltyResult]:
    """Run a workload under ``config`` and under a perfect TLB.

    ``program_factory`` is invoked once per run so each simulation gets a
    fresh, identical program image (runs must not share mutable state).
    Returns ``(mechanism_result, perfect_result, penalty)``.
    """
    sim = Simulator(program_factory(), config)
    mech_result = sim.run(user_insts, max_cycles)
    perfect_config = config.with_mechanism("perfect")
    perfect_result = Simulator(program_factory(), perfect_config).run(
        user_insts, max_cycles
    )
    penalty = penalty_per_miss(mech_result, perfect_result)
    return mech_result, perfect_result, penalty
