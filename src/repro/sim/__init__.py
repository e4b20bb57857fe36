"""Simulation driver: configuration, statistics, runner, and metrics."""

from repro.sim.config import FUPool, MachineConfig
from repro.sim.metrics import PenaltyResult, penalty_per_miss, run_pair
from repro.sim.simulator import SimResult, Simulator
from repro.sim.stats import SimStats

__all__ = [
    "FUPool",
    "MachineConfig",
    "PenaltyResult",
    "penalty_per_miss",
    "run_pair",
    "SimResult",
    "Simulator",
    "SimStats",
]
