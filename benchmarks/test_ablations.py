"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper, but quantifications of mechanisms the paper
describes qualitatively:

* handler-length prediction (Section 4.4's ~0.5 cycles/miss of wasted
  fetch without it),
* handler fetch priority (Section 4.4's prioritisation argument),
* hardware-walker FSM latency (how aggressive must the walker be),
* DTLB reach (the Section 2 motivation: misses come from TLB reach),
* window size (how much latency tolerance hides miss cost).
"""

import dataclasses

import pytest

from benchmarks.conftest import run_once
from repro.experiments.common import PenaltyTable, Settings, penalty_grid
from repro.sim.config import MachineConfig

ABLATION_SETTINGS = Settings(
    user_insts=6_000, warmup_insts=2_000, max_cycles=8_000_000,
    benchmarks=("compress", "vortex", "murphi"),
)


def _suite_penalty(configs, reference_label):
    rows = penalty_grid(
        [PenaltyTable(name, configs, reference_label=reference_label)
         for name in ABLATION_SETTINGS.benchmarks],
        ABLATION_SETTINGS,
    )
    by_label = {}
    for row in rows:
        by_label.setdefault(row.label, []).append(row.penalty_per_miss)
    return {label: sum(v) / len(v) for label, v in by_label.items()}


def test_handler_length_prediction(benchmark):
    """Without length prediction the handler thread overfetches past
    reti, wasting fetch bandwidth (Section 4.4)."""
    def run():
        return _suite_penalty(
            {
                "predicted": MachineConfig(mechanism="multithreaded"),
                "overfetch": MachineConfig(
                    mechanism="multithreaded", predict_handler_length=False
                ),
            },
            reference_label="predicted",
        )

    result = run_once(benchmark, run)
    print(f"\nhandler length prediction: {result}")
    # Overfetch costs something, but bounded (the paper: ~0.5 cycles).
    assert result["overfetch"] >= result["predicted"] - 0.3
    assert result["overfetch"] - result["predicted"] < 4.0


def test_handler_fetch_priority(benchmark):
    """Handler threads must outrank application threads for fetch."""
    def run():
        return _suite_penalty(
            {
                "priority": MachineConfig(mechanism="multithreaded"),
                "no-priority": MachineConfig(
                    mechanism="multithreaded", handler_fetch_priority=False
                ),
            },
            reference_label="priority",
        )

    result = run_once(benchmark, run)
    print(f"\nhandler fetch priority: {result}")
    assert result["no-priority"] >= result["priority"] - 0.5


def test_walker_latency_sweep(benchmark):
    """The hardware walker's advantage degrades with FSM latency."""
    def run():
        return _suite_penalty(
            {
                f"walker+{lat}": MachineConfig(
                    mechanism="hardware", walker_latency=lat
                )
                for lat in (0, 4, 16, 48)
            },
            reference_label="walker+4",
        )

    result = run_once(benchmark, run)
    print(f"\nwalker latency sweep: {result}")
    assert result["walker+0"] <= result["walker+16"] <= result["walker+48"]


def test_dtlb_reach_sweep(benchmark):
    """Growing the DTLB removes the misses themselves (Section 2: the
    orthogonal attack the paper is *not* taking)."""
    def run():
        sizes = (32, 64, 256)
        rows = penalty_grid(
            [PenaltyTable(name, {str(entries): MachineConfig(
                mechanism="multithreaded", dtlb_entries=entries)})
             for entries in sizes for name in ABLATION_SETTINGS.benchmarks],
            ABLATION_SETTINGS,
        )
        return {
            entries: sum(r.committed_fills for r in rows if r.label == str(entries))
            for entries in sizes
        }

    result = run_once(benchmark, run)
    print(f"\nDTLB reach sweep (total fills): {result}")
    assert result[32] > result[64] > result[256]


def test_window_size_hides_miss_latency(benchmark):
    """A larger window tolerates more of each miss's latency."""
    def run():
        return _suite_penalty(
            {
                "win32": MachineConfig(mechanism="hardware", window_size=32),
                "win128": MachineConfig(mechanism="hardware", window_size=128),
            },
            reference_label="win128",
        )

    result = run_once(benchmark, run)
    print(f"\nwindow size: {result}")
    assert result["win32"] >= result["win128"] - 0.5
