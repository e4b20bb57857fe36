"""Simulation statistics.

:class:`SimStats` collects core-level event counts during a run; the
:class:`~repro.sim.simulator.Simulator` packages it together with the
branch, cache, TLB, and mechanism counters into a
:class:`~repro.sim.simulator.SimResult` at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class SimStats:
    """Core pipeline event counters."""

    cycles: int = 0
    fetched: int = 0
    retired_user: int = 0
    retired_handler: int = 0
    squashed: int = 0
    mispredicts: int = 0
    dtlb_miss_events: int = 0
    itlb_miss_events: int = 0
    emulation_events: int = 0
    unaligned_events: int = 0
    store_forwards: int = 0
    overfetch_discarded: int = 0
    # Per-cause exception accounting (docs/SCENARIOS.md), keyed by the
    # exception-cause string ("dtlb_miss", "itlb_miss", "unaligned",
    # "emul", "brev", "swint").  Maintained by the mechanisms, which see
    # every trap regardless of which engine kernel is driving the core.
    cause_taken: dict[str, int] = field(default_factory=dict)
    cause_squashes: dict[str, int] = field(default_factory=dict)
    cause_handler_cycles: dict[str, int] = field(default_factory=dict)

    _SNAPSHOT_TRANSIENT = ()

    @property
    def retired_total(self) -> int:
        return self.retired_user + self.retired_handler

    @property
    def ipc(self) -> float:
        """User-instruction IPC (handler work is overhead, not progress)."""
        return self.retired_user / self.cycles if self.cycles else 0.0

    @property
    def fetch_waste_fraction(self) -> float:
        """Fraction of fetched instructions that never retired."""
        if not self.fetched:
            return 0.0
        return self.squashed / self.fetched

    def as_dict(self) -> dict[str, float]:
        """Every counter field plus every derived property.

        Built by introspection so a new field can never be silently
        dropped from reports and manifests (a hand-maintained version of
        this dict once omitted ``emulation_events`` and the derived
        totals).
        """
        out: dict[str, float] = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in dir(type(self)):
            if isinstance(getattr(type(self), name), property):
                out[name] = getattr(self, name)
        return out
