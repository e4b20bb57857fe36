"""Per-hardware-context thread state.

Each SMT context owns a program counter, fetch buffer, architectural
register file, rename maps, a per-thread in-order list of in-flight uops
(the thread's slice of the reorder machinery), and the paper's Figure 4
exception-linkage state: {state, master thread, sequence number of the
excepting instruction}.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.isa.program import Program
from repro.isa.registers import FP_REG_COUNT, INT_REG_COUNT, PrivReg, RegisterFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.pipeline.uop import Uop


class ThreadState(enum.Enum):
    """Figure 4's per-thread state field."""

    IDLE = "idle"
    NORMAL = "normal"
    EXCEPTION = "exception"


class ThreadContext:
    """One hardware thread context."""

    __slots__ = (
        "tid",
        "state",
        "program",
        "arch",
        "int_map",
        "fp_map",
        "rob",
        "fetch_buffer",
        "fetch_buffer_size",
        "store_queue",
        "pc",
        "fetch_priv",
        "fetch_stall_until",
        "fetch_wait_uop",
        "fetch_done",
        "overfetch_after_reti",
        "halted",
        "priv_regs",
        "master_tid",
        "master_uop",
        "exc_instance",
        "retired_user",
        "retired_handler",
    )

    def __init__(self, tid: int, fetch_buffer_size: int = 16) -> None:
        self.tid = tid
        self.state = ThreadState.IDLE
        self.program: Program | None = None
        self.arch = RegisterFile()
        self.int_map: list["Uop | None"] = [None] * INT_REG_COUNT
        self.fp_map: list["Uop | None"] = [None] * FP_REG_COUNT

        #: Every in-flight uop of this thread, in fetch order.  The head is
        #: the next to retire; squashes truncate the tail.
        self.rob: Deque["Uop"] = deque()
        #: Fetched-but-not-decoded uops (a FIFO prefix of ``rob``).
        self.fetch_buffer: Deque["Uop"] = deque()
        self.fetch_buffer_size = fetch_buffer_size
        #: In-flight store uops in fetch order (subset of ``rob``).
        self.store_queue: list["Uop"] = []

        # Fetch engine state.
        self.pc = 0
        self.fetch_priv = False
        self.fetch_stall_until = 0
        #: A fetched uop whose execution must redirect fetch (reti/halt).
        self.fetch_wait_uop: "Uop | None" = None
        #: Exception thread: stop fetching once the handler is fully fetched.
        self.fetch_done = False
        #: Without handler-length prediction: reti fetched, overfetching.
        self.overfetch_after_reti = False
        self.halted = False

        # Privileged state (latched by hardware at a trap).
        self.priv_regs: list[int] = [0] * len(PrivReg)

        # Figure 4 exception-thread linkage.
        self.master_tid: int | None = None
        self.master_uop: "Uop | None" = None
        self.exc_instance = None

        # Counters.
        self.retired_user = 0
        self.retired_handler = 0

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Instruction count used by the ICOUNT fetch chooser."""
        return len(self.rob)

    @property
    def is_exception_thread(self) -> bool:
        return self.state is ThreadState.EXCEPTION

    def can_fetch(self, now: int) -> bool:
        """True when the fetch engine may pull instructions this cycle."""
        return (
            self.state is not ThreadState.IDLE
            and not self.halted
            and not self.fetch_done
            and self.fetch_wait_uop is None
            and self.fetch_stall_until <= now
            and len(self.fetch_buffer) < self.fetch_buffer_size
            and self.program is not None
        )

    def activate(self, program: Program, entry: int | None = None) -> None:
        """Bind a program and make the context a runnable application thread."""
        self.program = program
        self.pc = program.entry if entry is None else entry
        self.state = ThreadState.NORMAL
        self.halted = False

    def rebuild_rename_maps(self) -> None:
        """Recompute rename maps from surviving renamed uops (post-squash)."""
        self.int_map = [None] * INT_REG_COUNT
        self.fp_map = [None] * FP_REG_COUNT
        from repro.isa.instructions import SRC_FP, SRC_INT  # local: avoid cycle

        for uop in self.rob:
            if not uop.renamed:
                break  # rename happens in order; the rest are un-decoded
            inst = uop.inst
            kind = inst.dest_kind
            if kind == SRC_FP:
                self.fp_map[inst.dest_idx] = uop
            elif kind == SRC_INT:
                self.int_map[inst.dest_idx] = uop
            elif uop.dyn_dest is not None:
                self.int_map[uop.dyn_dest] = uop

    def reset_to_idle(self) -> None:
        """Return an exception context to the idle pool (Fig. 4 state)."""
        self.state = ThreadState.IDLE
        self.program = None
        self.rob.clear()
        self.fetch_buffer.clear()
        self.store_queue.clear()
        self.int_map = [None] * INT_REG_COUNT
        self.fp_map = [None] * FP_REG_COUNT
        self.pc = 0
        self.fetch_priv = False
        self.fetch_stall_until = 0
        self.fetch_wait_uop = None
        self.fetch_done = False
        self.overfetch_after_reti = False
        self.halted = False
        self.master_tid = None
        self.master_uop = None
        self.exc_instance = None

    _SNAPSHOT_TRANSIENT = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Thread {self.tid} {self.state.value} pc={self.pc} rob={len(self.rob)}>"
