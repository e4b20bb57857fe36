"""The shared instruction window with exception reservations.

All threads share one centralized window (Table 1).  The multithreaded
exception mechanism *reserves* enough slots for the (perfectly predicted)
handler length when an exception spawns; application threads may not
claim those slots, which is the paper's first line of defence against the
out-of-order-fetch deadlock.  The second line -- squashing the main
thread's tail when a handler instruction still cannot enter -- lives in
the core, which calls :meth:`InstructionWindow.can_insert_app` /
:meth:`InstructionWindow.insert` here.

Occupancy is held from insertion (decode) to retirement, per the paper
("instructions maintain entries in the instruction window until
retirement").  Uops flagged ``free_slot`` (limit studies) are tracked but
never counted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.uop import Uop


class InstructionWindow:
    """Centralized instruction window plus reservation accounting."""

    __slots__ = (
        "capacity",
        "_uops",
        "_occupancy",
        "_reservations",
        "_reserved_total",
        "peak_occupancy",
        "tail_squashes",
        "sanitizer",
    )

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        #: Runtime invariant checker, attached by the core when enabled
        #: (``None`` costs a single identity check per insert).
        self.sanitizer = None
        #: Occupying uops (unordered; scheduling order lives in the
        #: core's event queue, so membership is all that matters here).
        self._uops: set["Uop"] = set()
        self._occupancy = 0
        #: exception-instance id -> window slots still reserved for it.
        self._reservations: dict[int, int] = {}
        self._reserved_total = 0
        self.peak_occupancy = 0
        self.tail_squashes = 0

    # ------------------------------------------------------------------
    @property
    def uops(self) -> list["Uop"]:
        """Occupying uops in fetch order (oldest first); for inspection."""
        return sorted(self._uops, key=lambda u: u.seq)

    @property
    def occupancy(self) -> int:
        return self._occupancy

    @property
    def reserved_total(self) -> int:
        return self._reserved_total

    def can_insert_app(self) -> bool:
        """May an application-thread uop take a slot this cycle?"""
        return self._occupancy + self._reserved_total < self.capacity

    def insert(self, uop: "Uop", exc_id: int | None = None) -> None:
        """Place a uop into the window (caller checked admissibility).

        A handler uop consumes one unit of its instance's reservation, if
        any remains.
        """
        if self.sanitizer is not None:
            self.sanitizer.on_insert(self, uop)
        self._uops.add(uop)
        if not uop.free_slot:
            occ = self._occupancy + 1
            self._occupancy = occ
            if occ > self.peak_occupancy:
                self.peak_occupancy = occ
        if exc_id is not None and self._reservations.get(exc_id, 0) > 0:
            self._reservations[exc_id] -= 1
            self._reserved_total -= 1

    def remove(self, uop: "Uop") -> None:
        """Remove a uop (retirement or squash)."""
        uops = self._uops
        if uop not in uops:
            return
        uops.remove(uop)
        if not uop.free_slot:
            self._occupancy -= 1

    # ------------------------------------------------------------------
    def reserve(self, exc_id: int, slots: int) -> None:
        """Reserve ``slots`` window entries for exception ``exc_id``."""
        slots = max(0, slots)
        self._reservations[exc_id] = self._reservations.get(exc_id, 0) + slots
        self._reserved_total += slots

    def release(self, exc_id: int) -> None:
        """Drop any remaining reservation for ``exc_id``."""
        remaining = self._reservations.pop(exc_id, 0)
        self._reserved_total -= remaining

    def counters(self) -> dict[str, int]:
        """Occupancy/reservation snapshot for manifests and debugging."""
        return {
            "capacity": self.capacity,
            "occupancy": self._occupancy,
            "reserved_total": self._reserved_total,
            "open_reservations": len(self._reservations),
            "peak_occupancy": self.peak_occupancy,
            "tail_squashes": self.tail_squashes,
        }

    def __len__(self) -> int:
        return len(self._uops)

    #: ``sanitizer`` is reattached by the core when enabled.
    _SNAPSHOT_TRANSIENT = ("sanitizer",)
