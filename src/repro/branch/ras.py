"""Checkpointing return address stack (Jourdan et al. [10] in the paper).

A circular 64-entry stack.  Speculative pushes/pops happen at fetch; a
*checkpoint* taken at every fetched branch records the top-of-stack
pointer **and** the top entry's value, which is enough to undo any
sequence of wrong-path pushes and pops (a wrong-path push may have
overwritten the entry the correct path still needs -- saving the value
repairs exactly that case).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RASCheckpoint:
    """State needed to restore the RAS across a squash."""

    tos: int
    top_value: int


class ReturnAddressStack:
    """Circular speculative return-address stack with checkpoint repair."""

    def __init__(self, entries: int = 64) -> None:
        if entries <= 0:
            raise ValueError("RAS needs at least one entry")
        self.size = entries
        self._stack = [0] * entries
        self._tos = 0  # monotonically increasing; index = tos % size
        self.pushes = 0
        self.pops = 0

    def push(self, return_pc: int) -> None:
        """Speculatively push a return address (at fetch of a call)."""
        self._tos += 1
        self._stack[self._tos % self.size] = return_pc
        self.pushes += 1

    def pop(self) -> int:
        """Speculatively pop the predicted return target (at fetch of ret)."""
        value = self._stack[self._tos % self.size]
        self._tos -= 1
        self.pops += 1
        return value

    def peek(self) -> int:
        """Top value without popping."""
        return self._stack[self._tos % self.size]

    def checkpoint(self) -> RASCheckpoint:
        """Capture (pointer, top value) -- taken before a branch's own effect."""
        return RASCheckpoint(tos=self._tos, top_value=self._stack[self._tos % self.size])

    def restore(self, cp: RASCheckpoint) -> None:
        """Undo all speculative activity after ``cp`` was taken."""
        self._tos = cp.tos
        self._stack[self._tos % self.size] = cp.top_value

    #: ``size`` is configuration (fixed 64-entry sizing).
    _SNAPSHOT_TRANSIENT = ("size",)
