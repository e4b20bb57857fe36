"""Randomized restartable-exception scenarios beyond DTLB misses.

The seed machine's exception story is built around one cause (the DTLB
miss) plus instruction emulation.  This package composes *all* the
restartable causes -- ITLB misses, unaligned-access fixups, emulated
instructions (``brev``/``swint``), software interrupts -- into seeded,
reproducible stress scenarios.  Each scenario is a fault-free case of
the differential trial (:func:`repro.faults.fuzz.run_case`), run across
every exception mechanism and both engine kernels, with Table-3-style
per-cause cycle attribution.  See ``docs/SCENARIOS.md``.
"""

from repro.scenarios.spec import SCENARIO_CAUSES, ScenarioSpec, generate_matrix

__all__ = [
    "SCENARIO_CAUSES",
    "ScenarioSpec",
    "generate_matrix",
]
