"""Common machinery for exception mechanisms.

An :class:`ExceptionMechanism` is a strategy object the SMT core invokes
at well-defined points: when a user-mode memory operation misses the
DTLB, when handler instructions (``tlbwr``/``hardexc``/``reti``) execute
or retire, when uops are squashed, and once per cycle for autonomous
hardware (the FSM walker, quick-start prefetch).

Every dynamic exception is tracked by an :class:`ExceptionInstance`,
which doubles as the *producer* identity for speculative TLB fills: the
fill is confirmed if the instance's handler retires and rolled back if it
is squashed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import SMTCore
    from repro.pipeline.thread import ThreadContext
    from repro.pipeline.uop import Uop


class _InstanceIdSource:
    """Monotonic id allocator whose position can be saved and restored.

    Instance ids are producer tags for speculative TLB fills and keys for
    window reservations, so a restored simulation must resume allocating
    exactly where the snapshot left off or fresh instances could collide
    with ids recorded in restored state.
    """

    __slots__ = ("next_id",)

    def __init__(self, start: int = 1) -> None:
        self.next_id = start

    def __call__(self) -> int:
        value = self.next_id
        self.next_id = value + 1
        return value


_instance_ids = _InstanceIdSource(1)


def instance_id_state() -> int:
    """The next id the process-wide allocator will hand out."""
    return _instance_ids.next_id


def restore_instance_id_state(next_id: int) -> None:
    """Reposition the process-wide allocator (checkpoint restore)."""
    _instance_ids.next_id = next_id


@dataclass
class ExceptionInstance:
    """One dynamic exception from detection to completion."""

    vpn: int
    va: int
    #: The excepting instruction (None for the traditional mechanism,
    #: whose faulting instruction is squashed and refetched).
    master_uop: "Uop | None"
    #: The exception thread running the handler (None for traditional and
    #: hardware handling).
    thread: "ThreadContext | None" = None
    #: Exception cause: "dtlb_miss", "itlb_miss", "unaligned", "emul",
    #: "brev", or "swint" (docs/SCENARIOS.md cause catalog).
    exc_type: str = "dtlb_miss"
    #: Latched source value of the excepting instruction (Section 6
    #: register-read access; emulation exceptions).
    src_value: int = 0
    id: int = field(default_factory=_instance_ids)
    #: Faulting uops (beyond the master) waiting on this fill.
    waiters: list = field(default_factory=list)
    filled: bool = False
    fill_cycle: int = -1
    squashed: bool = False
    spawn_cycle: int = -1

    def alive_waiters(self) -> list:
        """Waiters that have not been squashed."""
        from repro.pipeline.uop import UopState  # local import: cycle guard

        return [w for w in self.waiters if w.state != UopState.SQUASHED]

    #: Checkpoints capture every field, the uops and thread by reference.
    _SNAPSHOT_TRANSIENT = ()


@dataclass
class MechanismStats:
    """Counters shared by every exception mechanism."""

    misses_seen: int = 0
    spawns: int = 0
    traps: int = 0
    committed_fills: int = 0
    secondary_merges: int = 0
    relinks: int = 0
    reverted_no_thread: int = 0
    hard_exceptions: int = 0
    emulations: int = 0
    quickstart_wrong_type: int = 0
    reclaimed_threads: int = 0
    quickstart_hits: int = 0
    quickstart_partial: int = 0
    walks_started: int = 0
    walks_completed: int = 0
    walks_dropped: int = 0
    page_faults: int = 0

    _SNAPSHOT_TRANSIENT = ()


class ExceptionMechanism:
    """Base class: no-op hooks plus the attach protocol."""

    name = "base"

    def __init__(self) -> None:
        self.core: "SMTCore | None" = None
        self.stats = MechanismStats()

    def attach(self, core: "SMTCore") -> None:
        """Bind to a core.  Called once by the simulator before running."""
        self.core = core

    #: ``core`` is rebound by attach().
    _SNAPSHOT_TRANSIENT = ("core",)

    def drain(self, now: int) -> None:
        """Drop all in-flight exception bookkeeping (quiesce support).

        Called after the core has squashed every in-flight uop; purely
        reactive mechanisms have nothing left to forget.
        """

    def drain_resume_pc(self, thread: "ThreadContext") -> int:
        """Architectural resume PC for a thread drained mid-trap-handler.

        Default: the latched exception return PC (re-execute the faulting
        instruction).  Mechanisms whose handlers return *past* the
        excepting instruction (emulation) override this.
        """
        from repro.isa.registers import PrivReg  # local: keep import light

        return thread.priv_regs[PrivReg.EXC_PC]

    # -- observability ---------------------------------------------------
    def _emit_spawn(
        self,
        instance: ExceptionInstance,
        tid: int,
        path: str,
        now: int,
        master_tid: int | None = None,
        master_seq: int | None = None,
    ) -> None:
        """Report to the event bus that handling began (no-op when off).

        ``path`` records the route taken: ``thread`` (handler thread),
        ``trap`` (traditional squash-and-refetch), ``walk`` (hardware
        FSM).  Master identity defaults to ``instance.master_uop`` and
        must be passed explicitly by the traditional engine, whose
        instances do not keep the (squashed) faulting uop.
        """
        bus = self.core.listeners
        if bus is None:
            return
        master = instance.master_uop
        if master_tid is None:
            master_tid = master.thread_id if master is not None else -1
        if master_seq is None:
            master_seq = master.seq if master is not None else -1
        bus.spawn(
            now, tid, instance.id, instance.exc_type, master_tid, master_seq,
            path,
        )

    def _emit_splice(
        self, instance: ExceptionInstance, tid: int, path: str, now: int
    ) -> None:
        """Report that handling ended; ``path`` names the clean route
        (``thread``/``trap``/``walk``) or the abort reason
        (``reclaimed``/``dropped``/``fault``)."""
        bus = self.core.listeners
        if bus is None:
            return
        master = instance.master_uop
        bus.splice(
            now, tid, instance.id, instance.exc_type,
            master.thread_id if master is not None else -1,
            master.seq if master is not None else -1,
            path,
        )

    # -- per-cause accounting (docs/SCENARIOS.md) ------------------------
    def _cause_count(self, table: dict, cause: str, n: int = 1) -> None:
        """Bump one of the core's per-cause counters (``cause_taken`` /
        ``cause_squashes`` / ``cause_handler_cycles``)."""
        if n:
            table[cause] = table.get(cause, 0) + n

    # -- events from the execute stage ---------------------------------
    def on_dtlb_miss(self, uop: "Uop", va: int, vpn: int, now: int) -> None:
        """A user-mode memory op failed translation at issue time."""
        raise NotImplementedError

    def on_tlbwr(self, uop: "Uop", va: int, pte: int, now: int) -> None:
        """A handler executed ``tlbwr`` or ``itlbwr``."""

    def on_emulation(self, uop: "Uop", src_value: int, now: int) -> None:
        """A user-mode ``emul``/``brev``/``swint`` needs software service."""
        raise NotImplementedError

    # -- events from the fetch stage -------------------------------------
    def on_itlb_miss(self, thread: "ThreadContext", pc: int, now: int) -> None:
        """User-mode instruction fetch failed ITLB translation at ``pc``.

        Unlike the data-side hooks there is no faulting uop: the fetch
        produced nothing.  The mechanism must eventually redirect
        ``thread`` into the ``itlb_miss`` handler (traditional trap) or
        stall it while a handler thread installs the translation.
        """
        raise NotImplementedError

    def on_unaligned(self, uop: "Uop", addr: int, now: int) -> None:
        """A user-mode ``ld`` issued with a non-8-aligned effective
        address (``config.align_check``); the fixup handler loads the
        aligned-down word and completes the load via ``mtdst``."""
        raise NotImplementedError

    def on_mtdst(self, uop: "Uop", value: int, now: int) -> None:
        """A handler executed ``mtdst`` (write the excepting dest)."""

    def on_hardexc(self, uop: "Uop", now: int) -> None:
        """A handler executed ``hardexc`` (needs the traditional path)."""

    def on_reti_executed(self, uop: "Uop", now: int) -> None:
        """A handler's ``reti`` executed (fetch redirect point)."""

    # -- events from the retire stage -----------------------------------
    def on_reti_retired(self, uop: "Uop", now: int) -> None:
        """A handler's ``reti`` retired (fills become architectural)."""

    def on_store_retired(self, addr: int, now: int) -> None:
        """A committed store hit the page-table region (coherence hook)."""

    # -- events from squash recovery ------------------------------------
    def on_uop_squashed(self, uop: "Uop", now: int) -> None:
        """Any uop was squashed; mechanisms reclaim linked resources."""

    # -- fault injection --------------------------------------------------
    def inject_handler_fault(self, now: int) -> str | None:
        """Fault one in-flight handler (``repro.faults`` hook).

        Models a transient fault detected inside exception handling: the
        mechanism must abandon the in-progress handling and re-raise it
        through its normal recovery machinery, preserving architectural
        state.  Returns a short description of what was faulted, or
        ``None`` when nothing is in flight (the injection is a no-op).
        The base mechanism has no handler state, so: ``None``.
        """
        return None

    # -- autonomous activity ---------------------------------------------
    def tick(self, now: int) -> None:
        """Called at the top of every cycle."""

    def service_mem_ports(self, now: int, free_ports: int) -> int:
        """Offer leftover load/store ports; returns how many were used."""
        return 0

    def fetch_idle(self, now: int, budget: int) -> int:
        """Offer leftover fetch bandwidth (quick-start); returns used."""
        return 0

    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle after ``now`` at which this mechanism may act
        *spontaneously* (via ``tick``/``service_mem_ports``/``fetch_idle``
        rather than in reaction to a core event).

        Used by the core's idle-cycle fast-forward: after a quiet cycle
        the clock may jump to the next wakeup, and this bound keeps the
        jump from skipping autonomous mechanism work.  Purely reactive
        mechanisms return a far-future sentinel; the conservative default
        returns ``now``, which disables fast-forward entirely for
        mechanisms that do not implement the hook.
        """
        return now
