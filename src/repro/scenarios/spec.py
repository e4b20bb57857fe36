"""Seeded scenario specs: cause sets, mix styles, config variants.

A *scenario* is one reproducible stress recipe for the restartable-
exception machinery: a generated guest program targeting a set of
exception causes (:data:`repro.faults.progen.CAUSES`), a *mix style*
shaping how their triggers interleave
(:data:`repro.faults.progen.MIX_STYLES`), and the machine configuration
those causes need to actually fire (ITLB size, alignment checking).

:func:`generate_matrix` expands a seed into the standard scenario
matrix: every cause in isolation, seeded pairs, and all-cause sweeps in
every mix style, each with seeded config variants (ITLB sizes, idle
thread counts).  Specs are pure data: :meth:`ScenarioSpec.case` turns
one into a fault-free fuzz case, which the differential trial
(:func:`repro.faults.fuzz.run_case`) runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.fuzz import FuzzCase, overrides_for_causes
from repro.faults.progen import CAUSES, MIX_STYLES, Rng, generate_program

__all__ = [
    "SCENARIO_CAUSES",
    "ScenarioSpec",
    "generate_matrix",
]

#: The causes beyond the seed machine's DTLB story (tentpole set).
SCENARIO_CAUSES = ("itlb_miss", "unaligned", "brev", "swint")


@dataclass(frozen=True)
class ScenarioSpec:
    """One runnable scenario: program recipe + machine configuration."""

    name: str
    seed: int
    causes: tuple
    mix: str = "uniform"
    length: int = 36
    iters: int = 24
    #: MachineConfig overrides every run of the scenario uses (applied
    #: to the perfect reference too, so digests stay comparable).
    config_overrides: dict = field(default_factory=dict)

    def case(self) -> FuzzCase:
        """The scenario as a fault-free fuzz case."""
        return FuzzCase(
            seed=self.seed,
            program=generate_program(
                self.seed, self.length, self.iters, self.causes, self.mix
            ),
            faults="",
            causes=tuple(self.causes),
            config_overrides=dict(self.config_overrides),
        )

    def describe(self) -> str:
        knobs = ",".join(f"{k}={v}" for k, v in sorted(self.config_overrides.items()))
        return (
            f"{self.name}: causes={'+'.join(self.causes) or 'dtlb-only'} "
            f"mix={self.mix} seed={self.seed}"
            + (f" [{knobs}]" if knobs else "")
        )


def generate_matrix(seed: int = 0, quick: bool = False) -> list[ScenarioSpec]:
    """The standard scenario matrix for one base seed.

    Singles cover each scenario cause in isolation; pairs and the
    all-cause sweeps compose them, with the ``back_to_back`` and
    ``nested`` mixes exercising overlapping and speculatively-nested
    handlers.  ``quick`` trims to one spec per shape for smoke/CI runs.
    """
    rng = Rng(seed ^ 0x3A7E11CE)
    specs: list[ScenarioSpec] = []
    for cause in SCENARIO_CAUSES:
        specs.append(
            ScenarioSpec(
                name=f"single-{cause}",
                seed=seed + len(specs),
                causes=(cause,),
                config_overrides=overrides_for_causes((cause,), rng),
            )
        )
    pair_pool = [
        (a, b)
        for i, a in enumerate(SCENARIO_CAUSES)
        for b in SCENARIO_CAUSES[i + 1:]
    ]
    pairs = pair_pool if not quick else [pair_pool[rng.below(len(pair_pool))]]
    if quick:
        specs = [specs[rng.below(len(specs))]]
    for pair in pairs:
        specs.append(
            ScenarioSpec(
                name=f"pair-{pair[0]}+{pair[1]}",
                seed=seed + 100 + len(specs),
                causes=pair,
                mix="back_to_back",
                config_overrides=overrides_for_causes(pair, rng),
            )
        )
    all_causes = tuple(c for c in CAUSES if c in SCENARIO_CAUSES or c == "emul")
    for mix in MIX_STYLES if not quick else ("back_to_back", "nested"):
        specs.append(
            ScenarioSpec(
                name=f"all-{mix.replace('_', '-')}",
                seed=seed + 200 + len(specs),
                causes=all_causes,
                mix=mix,
                config_overrides={
                    **overrides_for_causes(all_causes, rng),
                    # Environment variant: vary the handler-context pool.
                    "idle_threads": 1 + rng.below(2),
                },
            )
        )
    return specs
