"""Dynamic instructions (uops).

A :class:`Uop` is one fetched occurrence of a static instruction.  It
carries its position in global fetch order (``seq``), its front-end
timing, the branch-prediction checkpoint taken when it was fetched, and
its dataflow links: each source is either a *producer* uop reference or a
literal value captured from the architectural file at rename time.

Lifecycle::

    FETCH_BUF --> WINDOW --> DONE --> RETIRED
        \\___________\\________\\--> SQUASHED

Decode/rename moves a uop from the fetch buffer into the window (decode
latency is folded into the earliest-schedule cycle); issue computes the
value functionally and stamps ``finish_cycle``; a consumer may issue in
the producer's ``finish_cycle``.
"""

from __future__ import annotations

import enum

from repro.isa.instructions import Instruction


class UopState(enum.IntEnum):
    FETCH_BUF = 0
    WINDOW = 1
    DONE = 2
    RETIRED = 3
    SQUASHED = 4


class Uop:
    """One in-flight instruction."""

    __slots__ = (
        "seq",
        "thread_id",
        "pc",
        "inst",
        "state",
        "renamed",
        "fetch_cycle",
        "avail_cycle",
        "insert_cycle",
        "min_sched_cycle",
        "issue_cycle",
        "finish_cycle",
        "issued",
        "pred_taken",
        "pred_target",
        "checkpoint",
        "src_a_uop",
        "src_a_value",
        "src_b_uop",
        "src_b_value",
        "value",
        "eff_addr",
        "actual_taken",
        "actual_target",
        "waiting_fill",
        "exc_instance",
        "linked_handler",
        "is_handler",
        "free_slot",
        "quickstarted",
        "discard",
        "dyn_dest",
        "wait_count",
        "src_wake",
        "consumers",
        "scheduled",
    )

    def __init__(self, seq: int, thread_id: int, pc: int, inst: Instruction) -> None:
        self.seq = seq
        self.thread_id = thread_id
        self.pc = pc
        self.inst = inst
        self.state = UopState.FETCH_BUF
        #: True once decode/rename has recorded this uop's dest mapping.
        self.renamed = False

        # Front-end timing.
        self.fetch_cycle = -1
        #: Cycle the uop leaves the fetch pipeline (enters the buffer "ready").
        self.avail_cycle = -1
        self.insert_cycle = -1
        self.min_sched_cycle = -1
        self.issue_cycle = -1
        self.finish_cycle = -1
        self.issued = False

        # Branch prediction (branches only).
        self.pred_taken = False
        self.pred_target: int | None = None
        self.checkpoint = None
        self.actual_taken = False
        self.actual_target: int | None = None

        # Dataflow.  A source is (producer uop, None) or (None, value).
        self.src_a_uop: Uop | None = None
        self.src_a_value: int | float | None = None
        self.src_b_uop: Uop | None = None
        self.src_b_value: int | float | None = None
        self.value: int | float | None = None
        self.eff_addr: int | None = None

        # Exception machinery.
        #: VPN this memory op is waiting on a TLB fill for (None = not waiting).
        self.waiting_fill: int | None = None
        #: The exception instance this uop *raised* (excepting instruction).
        self.exc_instance = None
        #: Exception thread whose retirement must precede this uop's.
        self.linked_handler = None
        #: True for handler-thread (or traditional-handler) instructions.
        self.is_handler = False
        #: True when the uop occupies no window slot (limit studies).
        self.free_slot = False
        #: True when this handler uop was served from a quick-start image.
        self.quickstarted = False
        #: Overfetched handler instruction to be dropped at decode (used
        #: when handler-length prediction is disabled).
        self.discard = False
        #: Dynamic integer destination (``mtdst`` under the traditional
        #: mechanism writes the excepting instruction's register).
        self.dyn_dest: int | None = None

        # Event-driven scheduling (see SMTCore._execute).
        #: Unissued producers still outstanding at window insertion.
        self.wait_count = 0
        #: Earliest cycle both sources and the schedule delay allow issue.
        self.src_wake = -1
        #: Consumers to notify when this uop issues (None until first use).
        self.consumers: list["Uop"] | None = None
        #: True while sitting in a wake bucket, the retry list, or the
        #: in-flight examine heap (guards against double-scheduling).
        self.scheduled = False

    # ------------------------------------------------------------------
    def __lt__(self, other: "Uop") -> bool:
        """Order by global fetch sequence (heap entries in _execute)."""
        return self.seq < other.seq

    def value_ready(self, now: int) -> bool:
        """True when this uop's result is readable at cycle ``now``."""
        return self.issued and self.finish_cycle <= now

    def src_ready(self, now: int) -> bool:
        """True when both sources are available at cycle ``now``."""
        a = self.src_a_uop
        if a is not None and not (a.issued and a.finish_cycle <= now):
            return False
        b = self.src_b_uop
        if b is not None and not (b.issued and b.finish_cycle <= now):
            return False
        return True

    def src_values(self) -> tuple[int | float, int | float]:
        """Source operand values (only valid once :meth:`src_ready`)."""
        a = self.src_a_uop.value if self.src_a_uop is not None else self.src_a_value
        b = self.src_b_uop.value if self.src_b_uop is not None else self.src_b_value
        return (a if a is not None else 0, b if b is not None else 0)

    @property
    def in_flight(self) -> bool:
        return self.state in (UopState.FETCH_BUF, UopState.WINDOW, UopState.DONE)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Uop #{self.seq} t{self.thread_id} pc={self.pc} {self.inst.op.value}"
            f" {self.state.name}>"
        )

    #: Checkpoints capture every slot but ``inst``, static program text
    #: that a restored uop re-fetches from the program image.
    _SNAPSHOT_TRANSIENT = ("inst",)
