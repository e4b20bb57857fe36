"""Opt-in runtime invariant checker for the pipeline.

The paper's correctness story rests on an *ordering invariant*: when an
exception is handled on a separate thread, the handler retires in its
entirety after every pre-exception instruction and before the excepting
and post-exception instructions (the "splice").  The simulator enforces
this in `_retire`, but nothing verified it — a scheduler bug would just
produce silently wrong stats.

:class:`PipelineSanitizer` hooks window insertion and retirement and
asserts, per retired uop:

* **splice ordering** — an excepting uop never retires while its handler
  is still linked, and a handler uop only retires while its master
  thread is parked at the excepting instruction;
* **program order** — the retiring uop is its thread's ROB head and
  per-thread retirement sequence numbers are strictly monotonic;
* **lifecycle** — no uop retires twice, no squashed (wrong-path) uop
  retires, nothing retires before its result is due;
* **occupancy** — the window's occupancy counter matches its contents
  (recounted on a cadence) and never exceeds capacity at insert.

A violation raises :class:`SanitizerError` carrying the cycle and a
trace of recent pipeline events instead of letting the run continue.

The sanitizer is **off by default** and costs nothing when disabled:
the two hooks are guarded by a single ``is not None`` check each (the
measurement is in docs/ANALYSIS.md).  Enable with
``MachineConfig(sanitize=True)`` or ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.pipeline.uop import UopState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.core import SMTCore
    from repro.pipeline.thread import ThreadContext
    from repro.pipeline.uop import Uop
    from repro.pipeline.window import InstructionWindow

#: Recount window occupancy from scratch every N retirements.
_OCCUPANCY_CADENCE = 64

#: How many recent pipeline events the failure trace includes.
_TRACE_DEPTH = 48


class SanitizerError(RuntimeError):
    """A pipeline invariant was violated.

    ``code`` is a stable identifier (``splice-order``, ``rob-order``,
    ``retire-monotonic``, ``uop-lifecycle``, ``retire-early``,
    ``occupancy``); ``cycle`` is the simulated cycle of the violation.
    The message embeds a trace of the most recent pipeline events.
    """

    def __init__(self, code: str, cycle: int, message: str, trace: str) -> None:
        self.code = code
        self.cycle = cycle
        super().__init__(
            f"[cycle {cycle}] {code}: {message}\n"
            f"--- last pipeline events ---\n{trace}"
        )


class PipelineSanitizer:
    """Runtime invariant checks over one :class:`SMTCore`."""

    __slots__ = ("core", "_events", "_last_retired_seq", "_retires")

    def __init__(self, core: "SMTCore") -> None:
        self.core = core
        self._events: deque[str] = deque(maxlen=_TRACE_DEPTH)
        #: tid -> seq of the last uop that thread retired.
        self._last_retired_seq: dict[int, int] = {}
        self._retires = 0

    # ------------------------------------------------------------------
    def _fail(self, code: str, now: int, message: str) -> None:
        trace = "\n".join(self._events) or "(no events recorded)"
        raise SanitizerError(code, now, message, trace)

    @staticmethod
    def _describe(uop: "Uop") -> str:
        kind = "handler" if uop.is_handler else "app"
        return (
            f"t{uop.thread_id} seq={uop.seq} pc={uop.pc} "
            f"{uop.inst.op.value} ({kind}, {uop.state.name})"
        )

    # ------------------------------------------------------------------
    # Hooks (called only when the sanitizer is attached).
    # ------------------------------------------------------------------
    def on_insert(self, window: "InstructionWindow", uop: "Uop") -> None:
        """Called by :meth:`InstructionWindow.insert` before mutation."""
        now = self.core.cycle
        self._events.append(f"[{now:>8}] insert {self._describe(uop)}")
        if uop in window._uops:
            self._fail(
                "uop-lifecycle",
                now,
                f"uop inserted into the window twice: {self._describe(uop)}",
            )
        if not uop.free_slot and window._occupancy >= window.capacity:
            self._fail(
                "occupancy",
                now,
                f"window overflow: occupancy {window._occupancy} at "
                f"capacity {window.capacity} on insert of "
                f"{self._describe(uop)}",
            )

    def on_retire(self, thread: "ThreadContext", uop: "Uop", now: int) -> None:
        """Called by :meth:`SMTCore._do_retire` before mutation."""
        self._events.append(f"[{now:>8}] retire {self._describe(uop)}")

        if uop.state != UopState.WINDOW:
            verb = {
                UopState.RETIRED: "retiring twice",
                UopState.SQUASHED: "retiring off a squashed wrong path",
            }.get(uop.state, f"retiring from state {uop.state.name}")
            self._fail(
                "uop-lifecycle", now, f"uop {verb}: {self._describe(uop)}"
            )
        if not thread.rob or thread.rob[0] is not uop:
            head = self._describe(thread.rob[0]) if thread.rob else "<empty>"
            self._fail(
                "rob-order",
                now,
                f"retiring uop is not its thread's ROB head: "
                f"{self._describe(uop)}; head is {head}",
            )
        if not uop.issued or uop.finish_cycle > now:
            self._fail(
                "retire-early",
                now,
                f"uop retiring before completion (issued={uop.issued}, "
                f"finish_cycle={uop.finish_cycle}): {self._describe(uop)}",
            )

        last = self._last_retired_seq.get(thread.tid)
        if last is not None and uop.seq <= last:
            self._fail(
                "retire-monotonic",
                now,
                f"per-thread retirement order broke: seq {uop.seq} after "
                f"seq {last} on t{thread.tid}",
            )
        self._last_retired_seq[thread.tid] = uop.seq

        # Splice ordering (the paper's central invariant).
        if uop.linked_handler is not None:
            self._fail(
                "splice-order",
                now,
                "excepting uop retiring while its handler thread "
                f"t{uop.linked_handler.tid} is still linked: "
                f"{self._describe(uop)}",
            )
        if thread.is_exception_thread and thread.master_uop is not None:
            # Master-less handlers (itlb_miss: the faulting fetch produced
            # no uop) retire unspliced; the master merely stalls its
            # front end, so there is nothing to park at.
            master = self.core.threads[thread.master_tid]
            if not master.rob or master.rob[0] is not thread.master_uop:
                self._fail(
                    "splice-order",
                    now,
                    f"handler uop retiring while master t{master.tid} is "
                    "not parked at the excepting instruction: "
                    f"{self._describe(uop)}",
                )

        self._retires += 1
        if self._retires % _OCCUPANCY_CADENCE == 0:
            self._verify_occupancy(now)

    # ------------------------------------------------------------------
    def _verify_occupancy(self, now: int) -> None:
        """Recount the window and cross-check its occupancy counter."""
        window = self.core.window
        counted = sum(1 for u in window._uops if not u.free_slot)
        if counted != window._occupancy:
            self._fail(
                "occupancy",
                now,
                f"window occupancy counter {window._occupancy} != "
                f"recounted {counted} (of {len(window._uops)} uops)",
            )
        if window._reserved_total < 0 or any(
            slots < 0 for slots in window._reservations.values()
        ):
            self._fail(
                "occupancy",
                now,
                f"negative window reservation: {window._reservations!r} "
                f"(total {window._reserved_total})",
            )
