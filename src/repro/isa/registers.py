"""Architectural registers.

The ISA has three register spaces:

* 32 integer registers ``r0``-``r31``.  ``r0`` is hardwired to zero, as on
  MIPS/Alpha.  By convention ``r29`` is the stack pointer and ``r30`` the
  return-address register (used implicitly by ``call``/``ret``).
* 32 floating-point registers ``f0``-``f31``.
* A small privileged (PAL) register space, used only by exception
  handlers: the faulting virtual address, the page-table base, the
  exception return PC, and the processor status word.

Register operands are plain integers in the instruction encoding; the two
spaces are disambiguated by the opcode (FP opcodes name FP registers).
"""

from __future__ import annotations

import enum

#: 32 user registers plus 8 PAL shadow registers (see :func:`pal_reg`).
INT_REG_COUNT = 40
FP_REG_COUNT = 32

#: First PAL shadow register index.
SHADOW_BASE = 32

#: Integer register hardwired to zero.
ZERO_REG = 0
#: Conventional stack pointer.
SP_REG = 29
#: Return-address register written by ``call``/``calli`` and read by ``ret``.
RA_REG = 30

_INT_MASK = (1 << 64) - 1


def pal_reg(reg: int) -> int:
    """Map a handler-named integer register onto the PAL shadow bank.

    Alpha PALcode executes with shadow registers so the trap handler does
    not clobber application state.  Handler source names ``r1``-``r7``;
    at rename time those resolve to shadow indices 33-39.  ``r0`` stays
    the hardwired zero and registers >= 8 pass through (handlers never
    use them).
    """
    if 0 < reg < 8:
        return reg + SHADOW_BASE
    return reg


class PrivReg(enum.IntEnum):
    """Privileged (PAL) register indices.

    These model the handful of internal processor registers a software TLB
    miss handler needs, mirroring the Alpha 21164 PALcode environment the
    paper simulates (``VA``/``MM_STAT``-style fault information plus a
    page-table base register).
    """

    #: Faulting virtual address, latched by hardware when a DTLB miss traps.
    VA = 0
    #: Page-table base physical address.
    PTBR = 1
    #: PC of the excepting instruction (the ``reti`` target).
    EXC_PC = 2
    #: Processor status (bit 0: privileged mode).
    PS = 3
    #: Scratch register available to PALcode.
    SCRATCH = 4
    #: Source-operand value of the excepting instruction (Section 6 of
    #: the paper: register read access for generalized handlers).
    EXC_SRC = 5
    #: Destination logical register index of the excepting instruction.
    EXC_DST = 6


class RegisterFile:
    """The architectural (committed) register state for one thread.

    The pipeline keeps speculative values inside in-flight instructions;
    this class holds only *retired* state, which squash recovery rebuilds
    the rename map from.

    Integer values are stored as unsigned 64-bit Python ints; helpers are
    provided for signed interpretation.  Floating-point registers hold
    Python floats.
    """

    __slots__ = ("ints", "fps", "privs")

    def __init__(self) -> None:
        self.ints: list[int] = [0] * INT_REG_COUNT
        self.fps: list[float] = [0.0] * FP_REG_COUNT
        self.privs: list[int] = [0] * len(PrivReg)

    def read_int(self, idx: int) -> int:
        """Return the unsigned 64-bit value of integer register ``idx``."""
        return self.ints[idx]

    def write_int(self, idx: int, value: int) -> None:
        """Write integer register ``idx``; writes to ``r0`` are discarded."""
        if idx != ZERO_REG:
            self.ints[idx] = value & _INT_MASK

    def read_fp(self, idx: int) -> float:
        """Return the value of floating-point register ``idx``."""
        return self.fps[idx]

    def write_fp(self, idx: int, value: float) -> None:
        """Write floating-point register ``idx``."""
        self.fps[idx] = float(value)

    def read_priv(self, reg: int) -> int:
        """Return the value of privileged register ``reg``."""
        return self.privs[reg]

    def write_priv(self, reg: int, value: int) -> None:
        """Write privileged register ``reg``."""
        self.privs[reg] = value & _INT_MASK

    def snapshot(self) -> "RegisterFile":
        """Return an independent copy of the full architectural state."""
        copy = RegisterFile()
        copy.ints = list(self.ints)
        copy.fps = list(self.fps)
        copy.privs = list(self.privs)
        return copy

    _SNAPSHOT_TRANSIENT = ()


def to_signed(value: int) -> int:
    """Interpret an unsigned 64-bit integer as two's-complement signed."""
    value &= _INT_MASK
    if value >= 1 << 63:
        return value - (1 << 64)
    return value


def to_unsigned(value: int) -> int:
    """Wrap a Python integer into the unsigned 64-bit domain."""
    return value & _INT_MASK
