"""The traditional (trap) exception mechanism -- the paper's baseline.

On a DTLB miss the faulting instruction and everything younger are
squashed; the hardware latches the faulting VA and PC into privileged
registers, redirects fetch to the PAL handler *in the same thread*, and
raises the thread's fetch privilege.  The handler's ``tlbwr`` installs a
speculative TLB entry; ``reti``'s execution redirects fetch back to the
(unpredicted) faulting PC -- the second pipeline refill of Figure 2 --
and its retirement confirms the fill.

Also used as the fallback engine by the multithreaded mechanism (no idle
context / ``hardexc`` reversion) and by the hardware walker on page
faults, via :meth:`TraditionalMechanism.trap`.
"""

from __future__ import annotations

from repro.exceptions.base import ExceptionInstance, ExceptionMechanism
from repro.isa.instructions import Opcode
from repro.isa.registers import PrivReg
from repro.memory.page_table import pte_pfn
from repro.memory.address import vpn_of
from repro.pipeline.thread import ThreadContext
from repro.pipeline.uop import Uop


class TraditionalMechanism(ExceptionMechanism):
    """Squash-and-refetch software trap handling."""

    name = "traditional"

    def __init__(self) -> None:
        super().__init__()
        #: thread id -> in-flight traditional exception instance.
        self._active: dict[int, ExceptionInstance] = {}

    # ------------------------------------------------------------------
    def on_dtlb_miss(self, uop: Uop, va: int, vpn: int, now: int) -> None:
        """Trap: squash from the faulting instruction and refetch."""
        self.stats.misses_seen += 1
        thread = self.core.threads[uop.thread_id]
        self.trap(thread, uop, va, now)

    def trap(self, thread: ThreadContext, uop: Uop, va: int, now: int) -> None:
        """Take a traditional DTLB trap at ``uop``."""
        thread.priv_regs[PrivReg.VA] = va
        thread.priv_regs[PrivReg.EXC_PC] = uop.pc
        instance = ExceptionInstance(vpn=vpn_of(va), va=va, master_uop=None)
        self._enter_handler(thread, uop, instance, "dtlb_miss", now)

    def trap_emul(
        self, thread: ThreadContext, uop: Uop, src_value: int, now: int
    ) -> None:
        """Take a traditional software-service trap at ``uop`` (``emul``,
        ``brev``, or ``swint``; the cause string is the mnemonic).

        The hardware latches the faulting instruction's source value and
        destination register; ``reti`` returns *past* the emulated
        instruction (it never re-executes).
        """
        cause = uop.inst.op.value
        thread.priv_regs[PrivReg.EXC_SRC] = src_value
        thread.priv_regs[PrivReg.EXC_DST] = uop.inst.rd or 0
        thread.priv_regs[PrivReg.EXC_PC] = uop.pc + 1
        instance = ExceptionInstance(
            vpn=-1, va=0, master_uop=None, exc_type=cause, src_value=src_value
        )
        self._enter_handler(thread, uop, instance, cause, now)

    def trap_unaligned(
        self, thread: ThreadContext, uop: Uop, addr: int, now: int
    ) -> None:
        """Take a traditional unaligned-access trap at a user ``ld``.

        Like emulation, the handler completes the load (``mtdst`` of the
        aligned-down word) and ``reti`` returns *past* it.
        """
        thread.priv_regs[PrivReg.VA] = addr
        thread.priv_regs[PrivReg.EXC_DST] = uop.inst.rd or 0
        thread.priv_regs[PrivReg.EXC_PC] = uop.pc + 1
        instance = ExceptionInstance(
            vpn=-1, va=addr, master_uop=None, exc_type="unaligned"
        )
        self._enter_handler(thread, uop, instance, "unaligned", now)

    def trap_itlb(self, thread: ThreadContext, pc: int, now: int) -> None:
        """Take a traditional instruction-TLB miss trap at fetch ``pc``.

        Unlike the data-side traps there is no faulting uop and nothing
        to squash: the fetch produced nothing, and everything older in
        the thread is correct-path work that keeps running while the
        handler refills the ITLB.
        """
        instance = self._active.get(thread.tid)
        if instance is not None and any(u.is_handler for u in thread.rob):
            # An earlier trap's handler is still in flight (its reti has
            # executed but not retired).  Entering a new handler now
            # would tear down its instance bookkeeping; retry the fetch
            # next cycle instead.  (A *stale* wrong-path instance has no
            # handler uops left and does not block.)
            thread.fetch_stall_until = now + 1
            return
        self.stats.traps += 1
        va = pc * 4
        thread.priv_regs[PrivReg.VA] = va
        thread.priv_regs[PrivReg.EXC_PC] = pc
        instance = ExceptionInstance(
            vpn=vpn_of(va), va=va, master_uop=None, exc_type="itlb_miss"
        )
        instance.spawn_cycle = now
        self._active[thread.tid] = instance
        self._cause_count(self.core.stats.cause_taken, "itlb_miss")
        self._emit_spawn(
            instance, thread.tid, "trap", now,
            master_tid=thread.tid, master_seq=-1,
        )
        entry = self.core.pal_entries.get("itlb_miss")
        if entry is None:
            raise RuntimeError("no 'itlb_miss' handler installed in the program")
        thread.pc = entry
        thread.fetch_priv = True
        thread.fetch_stall_until = now + 1
        thread.fetch_wait_uop = None

    def _enter_handler(
        self,
        thread: ThreadContext,
        uop: Uop,
        instance: ExceptionInstance,
        handler: str,
        now: int,
    ) -> None:
        self.stats.traps += 1
        squashed = self.core.squash_from(thread, uop.seq - 1, now)
        instance.spawn_cycle = now
        self._active[thread.tid] = instance
        stats = self.core.stats
        self._cause_count(stats.cause_taken, instance.exc_type)
        self._cause_count(stats.cause_squashes, instance.exc_type, squashed)
        self._emit_spawn(
            instance, thread.tid, "trap", now,
            master_tid=thread.tid, master_seq=uop.seq,
        )
        entry = self.core.pal_entries.get(handler)
        if entry is None:
            raise RuntimeError(f"no {handler!r} handler installed in the program")
        thread.pc = entry
        thread.fetch_priv = True
        thread.fetch_stall_until = now + 1
        thread.fetch_wait_uop = None

    # ------------------------------------------------------------------
    def on_tlbwr(self, uop: Uop, va: int, pte: int, now: int) -> None:
        """Install a speculative fill tagged with the trap instance."""
        thread = self.core.threads[uop.thread_id]
        instance = self._active.get(thread.tid)
        if instance is None:
            return
        uop.exc_instance = instance
        tlb = self.core.itlb if uop.inst.op is Opcode.ITLBWR else self.core.dtlb
        tlb.fill(
            vpn_of(va), pte_pfn(pte), speculative=True, producer=instance.id
        )
        instance.filled = True
        instance.fill_cycle = now

    def on_hardexc(self, uop: Uop, now: int) -> None:
        # Executed traditionally the handler already has full powers:
        # hardexc is a no-op and the fix-up path simply continues.
        return

    def on_reti_executed(self, uop: Uop, now: int) -> None:
        """Redirect fetch to the latched (unpredicted) return PC."""
        thread = self.core.threads[uop.thread_id]
        uop.exc_instance = self._active.get(thread.tid)
        # Redirect fetch to the (unpredicted) faulting PC.
        thread.pc = thread.priv_regs[PrivReg.EXC_PC]
        thread.fetch_priv = False
        thread.fetch_stall_until = now + 1
        if thread.fetch_wait_uop is uop:
            thread.fetch_wait_uop = None

    def on_emulation(self, uop: Uop, src_value: int, now: int) -> None:
        """Software-service exception: trap to the cause's handler."""
        thread = self.core.threads[uop.thread_id]
        self.trap_emul(thread, uop, src_value, now)

    def on_itlb_miss(self, thread: ThreadContext, pc: int, now: int) -> None:
        """Trap: redirect fetch into the ITLB refill handler."""
        self.stats.misses_seen += 1
        self.trap_itlb(thread, pc, now)

    def on_unaligned(self, uop: Uop, addr: int, now: int) -> None:
        """Trap: the fixup handler completes the misaligned load."""
        thread = self.core.threads[uop.thread_id]
        self.trap_unaligned(thread, uop, addr, now)

    def on_reti_retired(self, uop: Uop, now: int) -> None:
        """Confirm the fill (or count the emulation) architecturally."""
        thread = self.core.threads[uop.thread_id]
        instance = uop.exc_instance or self._active.get(thread.tid)
        if instance is not None:
            if instance.exc_type == "dtlb_miss":
                self.core.dtlb.confirm(instance.id)
                self.stats.committed_fills += 1
            elif instance.exc_type == "itlb_miss":
                self.core.itlb.confirm(instance.id)
                self.stats.committed_fills += 1
            else:
                self.stats.emulations += 1
            if instance.spawn_cycle >= 0:
                self._cause_count(
                    self.core.stats.cause_handler_cycles,
                    instance.exc_type,
                    now - instance.spawn_cycle,
                )
            if self._active.get(thread.tid) is instance:
                del self._active[thread.tid]
            self._emit_splice(instance, thread.tid, "trap", now)

    def next_event_cycle(self, now: int) -> int:
        """Purely reactive: traps, fills, and redirects all happen in
        response to core events, never on a timer."""
        return 1 << 60

    def inject_handler_fault(self, now: int) -> str | None:
        """Fault an in-flight trap handler: squash it and refetch it.

        The recovery reuses the handler-internal-misprediction path the
        trap machinery already supports (see :meth:`on_uop_squashed`):
        the handler's in-flight uops are squashed, any speculative fill
        rolls back, and fetch restarts at the handler entry with the
        trap instance still active, so ``tlbwr``/``reti`` re-attach to
        it.  The latched privileged registers (VA, EXC_PC, EXC_SRC) are
        architectural and survive, making the re-execution exact.

        Injection requires the ROB tail to be a *pure* handler region
        whose ``reti`` has not executed yet:

        * Back-to-back traps leave remnants of an earlier handler (its
          executed ``reti`` plus refetched user uops) ahead of the
          active handler; squashing from the oldest handler uop would
          discard user work and replay it against the newer trap's
          ``EXC_PC``.  Requiring every uop from the first handler uop to
          the ROB tail to be a handler uop rejects that shape.
        * Even an all-handler tail can span *two* trap instances: the
          old handler's executed ``reti`` followed by the new trap's
          handler (the refetched user uops between them having been
          squashed by the new trap).  Restarting from the old handler
          would rename its ``mtdst`` against the *new* trap's latched
          ``EXC_DST``, silently dropping the old emulation's register
          write.  The active instance's handler region therefore starts
          *after* the last executed ``reti``; if nothing follows it,
          the handler has effectively completed and injection is
          skipped.

        Each trap instance is faulted at most once (a transient
        ``fault_injected`` marker): with a short enough injection
        period the restarted handler would otherwise be re-faulted
        before its ``reti`` can ever retire, livelocking the machine.
        """
        core = self.core
        for tid in sorted(self._active):
            instance = self._active[tid]
            if getattr(instance, "fault_injected", False):
                continue  # once per instance: guarantees forward progress
            thread = core.threads[tid]
            rob = list(thread.rob)
            start = next(
                (i for i, u in enumerate(rob) if u.is_handler), None
            )
            if start is None:
                continue  # stale instance (wrong-path trap): no handler
            if any(not u.is_handler for u in rob[start:]):
                continue  # previous trap's remnants ahead of the handler
            for index in range(start, len(rob)):
                uop = rob[index]
                if uop.inst.op is Opcode.RETI and uop.issued:
                    start = index + 1  # older handler: redirect already done
            if start >= len(rob):
                continue  # active handler finished executing: nothing to fault
            instance.fault_injected = True
            boundary = rob[start]
            core.squash_from(thread, boundary.seq - 1, now)
            entry = core.pal_entries[instance.exc_type]
            thread.pc = entry
            thread.fetch_priv = True
            thread.fetch_stall_until = now + 1
            thread.fetch_wait_uop = None
            thread.fetch_done = False
            thread.overfetch_after_reti = False
            return f"re-trapped handler on t{tid} ({instance.exc_type})"
        return None

    _SNAPSHOT_TRANSIENT = ()

    def drain(self, now: int) -> None:
        """Forget in-flight traps; the core has already squashed their
        handler uops and rewound each thread to its resume PC."""
        self._active.clear()

    def drain_resume_pc(self, thread: ThreadContext) -> int:
        pc = thread.priv_regs[PrivReg.EXC_PC]
        instance = self._active.get(thread.tid)
        if instance is not None and instance.exc_type in (
            "emul", "brev", "swint", "unaligned"
        ):
            # These traps latched pc+1 (reti skips the serviced
            # instruction), but the handler's mtdst may not have retired;
            # re-executing the serviced instruction is idempotent and safe.
            return pc - 1
        return pc

    # ------------------------------------------------------------------
    def on_uop_squashed(self, uop: Uop, now: int) -> None:
        # A squashed tlbwr's speculative fill is rolled back.  The trap
        # instance itself stays active: a handler-internal misprediction
        # (e.g. the valid-bit check) refetches the correct handler path,
        # whose tlbwr must still find its instance.  If the whole trap was
        # on the wrong path the stale instance is harmless -- the next
        # trap overwrites it and reti attaches its instance at execute.
        op = uop.inst.op
        if uop.exc_instance is not None:
            if op is Opcode.TLBWR:
                self.core.dtlb.rollback(uop.exc_instance.id)
            elif op is Opcode.ITLBWR:
                self.core.itlb.rollback(uop.exc_instance.id)
