"""The multithreaded exception mechanism -- the paper's contribution.

On a DTLB miss the faulting instruction *stays in the window*, marked
not-ready; an idle SMT context is allocated and begins fetching the
handler with fetch priority.  The excepting instruction records the
handler thread (and the thread records its master + the excepting
sequence number -- the paper's Figure 4 state), producing the retirement
splice: the handler retires in its entirety after all pre-exception
instructions and before the excepting one.

Implemented behaviours from Section 4 of the paper:

* window **reservation** of (perfectly predicted) handler-length slots at
  spawn, plus the deadlock-avoidance tail squash in the core;
* **secondary-miss buffering**: further misses to a page whose fill is in
  flight wait on the same instance;
* **re-linking**: a *older* excepting instruction to the same page
  observed out of order steals the handler (the retirement splice moves
  to the older instruction);
* **reversion to the traditional mechanism** when no idle context is
  available, and on ``hardexc`` (page fault discovered mid-handler): the
  handler thread is squashed and the whole exception re-raised
  traditionally;
* **reclaim on squash**: if the excepting instruction dies (branch
  misprediction), the exception thread resets to idle and speculative
  fills roll back;
* a **page-table write check**: a committed store that overwrites a PTE
  being read by an in-flight handler squashes and respawns that handler
  (the memory-ordering recovery of Section 4.2).
"""

from __future__ import annotations

from repro.exceptions.base import ExceptionInstance, ExceptionMechanism
from repro.exceptions.predictors import SpawnPredictor
from repro.exceptions.traditional import TraditionalMechanism
from repro.isa.instructions import Opcode
from repro.isa.registers import PrivReg
from repro.memory.address import vpn_of
from repro.memory.page_table import pte_pfn
from repro.pipeline.thread import ThreadContext, ThreadState
from repro.pipeline.uop import Uop, UopState

_FAR_FUTURE = 1 << 60


class MultithreadedMechanism(ExceptionMechanism):
    """Handler threads with spliced retirement."""

    name = "multithreaded"

    def __init__(self) -> None:
        super().__init__()
        self.traditional = TraditionalMechanism()
        #: vpn -> live (unfilled or unretired) exception instance.
        self._by_vpn: dict[int, ExceptionInstance] = {}
        #: vpn -> live instruction-TLB miss instance (master-less: the
        #: faulting fetch produced no uop, so the "master" is a stalled
        #: thread front end rather than a window entry).
        self._itlb_pending: dict[int, ExceptionInstance] = {}
        #: vpn -> tids whose fetch is stalled on that ITLB fill.
        self._itlb_waiters: dict[int, list[int]] = {}
        #: vpns whose handler hit a page fault after waking its master:
        #: the next miss there traps traditionally (see on_hardexc).
        self._itlb_revert: set[int] = set()
        #: Section 4.3: which exception types deserve a handler thread.
        self.spawn_predictor = SpawnPredictor()
        self._suppressed: dict[str, int] = {}
        #: While suppressed, probe with a real spawn every Nth exception
        #: so the predictor can re-learn (clustered faults end).
        self.spawn_probe_interval = 8

    def attach(self, core) -> None:
        """Bind to the core, sharing stats with the fallback engine."""
        super().attach(core)
        self.traditional.attach(core)
        # The fallback engine reports into the same counters.
        self.traditional.stats = self.stats

    # ------------------------------------------------------------------
    def _spawning_worthwhile(self, exc_type: str) -> bool:
        if not self.core.config.use_spawn_predictor:
            return True
        if self.spawn_predictor.should_spawn(exc_type):
            self._suppressed.pop(exc_type, None)
            return True
        count = self._suppressed.get(exc_type, 0) + 1
        self._suppressed[exc_type] = count
        # Periodic probe: without it the predictor could never observe a
        # clean completion and would suppress the type forever.
        return count % self.spawn_probe_interval == 0

    def on_dtlb_miss(self, uop: Uop, va: int, vpn: int, now: int) -> None:
        """Spawn a handler thread (or merge/revert per Section 4.5)."""
        self.stats.misses_seen += 1
        instance = self._by_vpn.get(vpn)
        if instance is not None and not instance.squashed and not instance.filled:
            self._merge_secondary(instance, uop, now)
            return
        if not self._spawning_worthwhile("dtlb_miss"):
            self.traditional.on_dtlb_miss(uop, va, vpn, now)
            return
        thread = self.core.find_idle_thread()
        if thread is None:
            # Section 4.5: with no idle context, fall back to trapping.
            self.stats.reverted_no_thread += 1
            self.traditional.on_dtlb_miss(uop, va, vpn, now)
            return
        self._spawn(thread, uop, now=now, va=va, vpn=vpn)

    def _merge_secondary(self, instance: ExceptionInstance, uop: Uop, now: int) -> None:
        """Buffer a second miss to a page whose fill is already in flight."""
        self.stats.secondary_merges += 1
        instance.waiters.append(uop)
        uop.waiting_fill = instance.vpn
        master = instance.master_uop
        if master is not None and uop.seq < master.seq:
            # Re-linking (Section 4.5): the handler must retire before the
            # *oldest* excepting instruction.
            self.stats.relinks += 1
            master.linked_handler = None
            master.exc_instance = None
            instance.waiters = [w for w in instance.waiters if w is not uop]
            instance.waiters.append(master)
            instance.master_uop = uop
            uop.exc_instance = instance
            if instance.thread is not None:
                uop.linked_handler = instance.thread
                instance.thread.master_uop = uop
                instance.thread.master_tid = uop.thread_id

    def on_emulation(self, uop: Uop, src_value: int, now: int) -> None:
        """Section 6 generalized mechanism: emulate in a handler thread.

        The cause string is the excepting mnemonic (emul/brev/swint), so
        each software-serviced opcode gets its own predictor entry,
        handler image, and per-cause attribution.
        """
        cause = uop.inst.op.value
        if not self._spawning_worthwhile(cause):
            self.traditional.on_emulation(uop, src_value, now)
            return
        thread = self.core.find_idle_thread()
        if thread is None:
            self.stats.reverted_no_thread += 1
            self.traditional.on_emulation(uop, src_value, now)
            return
        instance = ExceptionInstance(
            vpn=-1,
            va=0,
            master_uop=uop,
            thread=thread,
            exc_type=cause,
            src_value=src_value,
        )
        self._spawn(thread, uop, instance, now)

    def on_unaligned(self, uop: Uop, addr: int, now: int) -> None:
        """Unaligned-access fixup in a handler thread: the handler loads
        the aligned-down word and completes the master via ``mtdst``."""
        if not self._spawning_worthwhile("unaligned"):
            self.traditional.on_unaligned(uop, addr, now)
            return
        thread = self.core.find_idle_thread()
        if thread is None:
            self.stats.reverted_no_thread += 1
            self.traditional.on_unaligned(uop, addr, now)
            return
        instance = ExceptionInstance(
            vpn=-1,
            va=addr,
            master_uop=uop,
            thread=thread,
            exc_type="unaligned",
        )
        self._spawn(thread, uop, instance, now)

    def on_itlb_miss(self, thread: ThreadContext, pc: int, now: int) -> None:
        """Instruction-TLB miss: the faulting *fetch* produced no uop, so
        the handler thread runs master-less and the faulting thread's
        front end simply stalls until the fill lands (or the handler is
        reclaimed, at which point the refetch re-raises the miss)."""
        self.stats.misses_seen += 1
        va = pc * 4
        vpn = vpn_of(va)
        instance = self._itlb_pending.get(vpn)
        if instance is not None and not instance.squashed and not instance.filled:
            # Secondary fetch miss to a page whose fill is in flight:
            # stall this front end on the same instance.
            self.stats.secondary_merges += 1
            tids = self._itlb_waiters.setdefault(vpn, [])
            if thread.tid not in tids:
                tids.append(thread.tid)
            thread.fetch_stall_until = _FAR_FUTURE
            return
        if vpn in self._itlb_revert:
            self._itlb_revert.discard(vpn)
            self.traditional.on_itlb_miss(thread, pc, now)
            return
        if not self._spawning_worthwhile("itlb_miss"):
            self.traditional.on_itlb_miss(thread, pc, now)
            return
        handler = self.core.find_idle_thread()
        if handler is None:
            self.stats.reverted_no_thread += 1
            self.traditional.on_itlb_miss(thread, pc, now)
            return
        self._spawn_itlb(handler, thread, va, vpn, now)

    def _spawn_itlb(
        self,
        thread: ThreadContext,
        master: ThreadContext,
        va: int,
        vpn: int,
        now: int,
    ) -> None:
        """Allocate ``thread`` as a master-less ITLB handler context."""
        self.stats.spawns += 1
        core = self.core
        instance = ExceptionInstance(
            vpn=vpn, va=va, master_uop=None, thread=thread, exc_type="itlb_miss"
        )
        instance.spawn_cycle = now
        self._itlb_pending[vpn] = instance
        self._itlb_waiters[vpn] = [master.tid]
        self._cause_count(core.stats.cause_taken, "itlb_miss")
        self._emit_spawn(
            instance, thread.tid, "thread", now,
            master_tid=master.tid, master_seq=-1,
        )

        thread.state = ThreadState.EXCEPTION
        thread.program = master.program
        thread.master_tid = master.tid
        thread.master_uop = None
        thread.exc_instance = instance
        thread.fetch_priv = True
        thread.fetch_done = False
        thread.priv_regs[PrivReg.VA] = va
        thread.priv_regs[PrivReg.EXC_SRC] = 0
        thread.priv_regs[PrivReg.PTBR] = master.priv_regs[PrivReg.PTBR]

        if not core.config.limits.no_window_overhead:
            length = core.handler_lengths.get("itlb_miss", core.handler_length)
            core.window.reserve(instance.id, length)

        master.fetch_stall_until = _FAR_FUTURE

        if core.config.limits.instant_fetch:
            self._materialize_instantly(thread, now)
        else:
            self._start_frontend(thread, now)

    def _wake_itlb_masters(self, vpn: int, now: int) -> None:
        """Release every front end stalled on this ITLB fill."""
        for tid in self._itlb_waiters.pop(vpn, ()):
            waiter = self.core.threads[tid]
            if waiter.fetch_stall_until >= _FAR_FUTURE:
                waiter.fetch_stall_until = now + 1

    def _spawn(
        self,
        thread: ThreadContext,
        uop: Uop,
        instance: ExceptionInstance | None = None,
        now: int = 0,
        va: int = 0,
        vpn: int = -1,
    ) -> None:
        """Allocate ``thread`` as the exception context for ``uop``."""
        self.stats.spawns += 1
        core = self.core
        master = core.threads[uop.thread_id]
        if instance is None:
            instance = ExceptionInstance(vpn=vpn, va=va, master_uop=uop, thread=thread)
        instance.spawn_cycle = now
        if instance.exc_type == "dtlb_miss":
            self._by_vpn[instance.vpn] = instance
        self._cause_count(core.stats.cause_taken, instance.exc_type)
        self._emit_spawn(instance, thread.tid, "thread", now)

        uop.exc_instance = instance
        uop.linked_handler = thread
        # A sentinel "waiting" mark: dtlb misses wait on their vpn,
        # emulations wait on the handler's mtdst.
        uop.waiting_fill = instance.vpn

        thread.state = ThreadState.EXCEPTION
        thread.program = master.program
        thread.master_tid = master.tid
        thread.master_uop = uop
        thread.exc_instance = instance
        thread.fetch_priv = True
        thread.fetch_done = False
        thread.priv_regs[PrivReg.VA] = instance.va
        thread.priv_regs[PrivReg.EXC_SRC] = instance.src_value
        thread.priv_regs[PrivReg.PTBR] = master.priv_regs[PrivReg.PTBR]

        if not core.config.limits.no_window_overhead:
            length = core.handler_lengths.get(
                instance.exc_type, core.handler_length
            )
            core.window.reserve(instance.id, length)

        if core.config.limits.instant_fetch:
            self._materialize_instantly(thread, now)
        else:
            self._start_frontend(thread, now)

    def _handler_entry(self, thread: ThreadContext) -> int:
        exc_type = (
            thread.exc_instance.exc_type if thread.exc_instance else "dtlb_miss"
        )
        return self.core.pal_entries[exc_type]

    def _start_frontend(self, thread: ThreadContext, now: int) -> None:
        """Point the exception thread's fetch engine at the handler.

        Overridden by the quick-start mechanism, which may already hold a
        prefetched handler image in the thread's fetch buffer.
        """
        thread.pc = self._handler_entry(thread)
        thread.fetch_stall_until = now + 1

    def _materialize_instantly(self, thread: ThreadContext, now: int) -> None:
        """Table 3 limit study: handler appears decoded in the window."""
        core = self.core
        bus = core.listeners
        exc_id = thread.exc_instance.id if thread.exc_instance else None
        pc = self._handler_entry(thread)
        while True:
            inst = thread.program.fetch(pc)
            uop = Uop(core.alloc_seq(), thread.tid, pc, inst)
            uop.fetch_cycle = now
            uop.avail_cycle = now
            uop.is_handler = True
            if bus is not None:
                bus.fetch(now, thread.tid, uop.seq, pc, inst.op.value, True)
            if core.config.limits.no_window_overhead:
                uop.free_slot = True
            if inst.is_branch:
                pred = core.bpu.predict(pc, inst)
                uop.checkpoint = pred.checkpoint
                uop.pred_taken = pred.taken
                uop.pred_target = pred.target
            thread.rob.append(uop)
            core._rename(thread, uop)
            core.window.insert(uop, exc_id)
            uop.insert_cycle = now
            uop.min_sched_cycle = now + 1
            uop.state = UopState.WINDOW
            core._schedule_uop(uop)
            if inst.op is Opcode.RETI:
                break
            pc += 1
        thread.fetch_done = True
        thread.fetch_stall_until = 1 << 60

    # ------------------------------------------------------------------
    def on_tlbwr(self, uop: Uop, va: int, pte: int, now: int) -> None:
        """Speculative fill: wake the master and buffered waiters."""
        thread = self.core.threads[uop.thread_id]
        if not thread.is_exception_thread:
            self.traditional.on_tlbwr(uop, va, pte, now)
            return
        instance = thread.exc_instance
        if instance is None or instance.squashed:
            return
        uop.exc_instance = instance
        if uop.inst.op is Opcode.ITLBWR:
            self.core.itlb.fill(
                vpn_of(va), pte_pfn(pte), speculative=True, producer=instance.id
            )
            instance.filled = True
            instance.fill_cycle = now
            self._wake_itlb_masters(instance.vpn, now)
            # New fetch misses to this page must spawn fresh handling.
            if self._itlb_pending.get(instance.vpn) is instance:
                del self._itlb_pending[instance.vpn]
            return
        self.core.dtlb.fill(
            vpn_of(va), pte_pfn(pte), speculative=True, producer=instance.id
        )
        instance.filled = True
        instance.fill_cycle = now
        self._wake_waiters(instance)
        # New misses to this page must spawn fresh handling.
        if self._by_vpn.get(instance.vpn) is instance:
            del self._by_vpn[instance.vpn]

    def _wake_waiters(self, instance: ExceptionInstance) -> None:
        core = self.core
        for waiter in [instance.master_uop, *instance.waiters]:
            if waiter is not None and waiter.state != UopState.SQUASHED:
                waiter.waiting_fill = None
                core.wake_uop(waiter)

    def on_mtdst(self, uop: Uop, value: int, now: int) -> None:
        """Section 6: write straight into the excepting instruction's
        destination; it completes as a nop and its consumers wake."""
        thread = self.core.threads[uop.thread_id]
        if not thread.is_exception_thread:
            return  # traditional: handled via the dynamic rename dest
        instance = thread.exc_instance
        if instance is None or instance.squashed:
            return
        master = instance.master_uop
        if master is None or master.state == UopState.SQUASHED:
            return
        master.value = value & ((1 << 64) - 1)
        master.issued = True
        master.issue_cycle = now
        master.finish_cycle = now + 1
        master.waiting_fill = None
        self.core.producer_issued(master)
        instance.filled = True
        instance.fill_cycle = now

    def on_hardexc(self, uop: Uop, now: int) -> None:
        """Page fault mid-handler: squash the thread, trap traditionally."""
        thread = self.core.threads[uop.thread_id]
        if not thread.is_exception_thread:
            self.traditional.on_hardexc(uop, now)
            return
        # Page fault discovered mid-handler: throw the in-progress handler
        # away and re-execute the whole exception traditionally.
        self.stats.hard_exceptions += 1
        instance = thread.exc_instance
        if instance is not None:
            self.spawn_predictor.record_reversion(instance.exc_type)
        master = self.core.threads[thread.master_tid]
        if instance is not None and instance.exc_type == "itlb_miss":
            # Master-less reversion.  Only re-trap the master if it is
            # still stalled waiting on *this* miss: a speculatively
            # executed itlbwr may already have woken it (and been rolled
            # back when the walk-fault branch resolved), in which case
            # the master has moved on -- possibly into a different trap
            # whose latched VA/EXC_PC must not be clobbered.  The
            # rolled-back entry re-misses on next use, and that miss
            # traps traditionally: only the trap's handler runs the
            # page-fault fix-up, so respawning a handler thread there
            # would hit the same fault forever.
            va = instance.va
            stalled = master.fetch_stall_until >= _FAR_FUTURE
            self._reclaim(thread, now)
            if stalled:
                self.traditional.trap_itlb(master, va // 4, now)
            else:
                self._itlb_revert.add(instance.vpn)
            return
        master_uop = instance.master_uop if instance else None
        self._reclaim(thread, now)
        if master_uop is not None and master_uop.state != UopState.SQUASHED:
            self.traditional.trap(master, master_uop, instance.va, now)

    def on_reti_executed(self, uop: Uop, now: int) -> None:
        """Exception-thread reti needs no redirect; route traditional."""
        thread = self.core.threads[uop.thread_id]
        if not thread.is_exception_thread:
            self.traditional.on_reti_executed(uop, now)

    def on_reti_retired(self, uop: Uop, now: int) -> None:
        """Handler fully retired: confirm fills, free the context."""
        thread = self.core.threads[uop.thread_id]
        if not thread.is_exception_thread:
            self.traditional.on_reti_retired(uop, now)
            return
        instance = thread.exc_instance
        if instance is not None:
            self.spawn_predictor.record_success(instance.exc_type)
            if instance.exc_type == "dtlb_miss":
                self.core.dtlb.confirm(instance.id)
                self.stats.committed_fills += 1
            elif instance.exc_type == "itlb_miss":
                self.core.itlb.confirm(instance.id)
                self.stats.committed_fills += 1
                # Normally woken at the itlbwr fill; belt-and-braces for
                # any front end still parked on this instance.
                self._wake_itlb_masters(instance.vpn, now)
                if self._itlb_pending.get(instance.vpn) is instance:
                    del self._itlb_pending[instance.vpn]
            else:
                self.stats.emulations += 1
            if instance.master_uop is not None:
                instance.master_uop.linked_handler = None
            if self._by_vpn.get(instance.vpn) is instance:
                del self._by_vpn[instance.vpn]
            self.core.window.release(instance.id)
            if instance.spawn_cycle >= 0:
                self._cause_count(
                    self.core.stats.cause_handler_cycles,
                    instance.exc_type,
                    now - instance.spawn_cycle,
                )
            self._emit_splice(instance, thread.tid, "thread", now)
        self._thread_freed(thread, now)
        thread.reset_to_idle()

    def _thread_freed(self, thread: ThreadContext, now: int) -> None:
        """Hook for quick-start: a context is about to go idle."""

    def next_event_cycle(self, now: int) -> int:
        """Purely reactive: spawns, fills, and reclaims all happen in
        response to core events (handler instructions execute through the
        ordinary pipeline, whose wakeups the core enumerates itself).

        Quick-start inherits this: its prefetch runs whenever idle fetch
        bandwidth exists, so on any quiet cycle it already ran (and found
        nothing to do), and nothing changes that until some other event.
        """
        return 1 << 60

    # ------------------------------------------------------------------
    def on_uop_squashed(self, uop: Uop, now: int) -> None:
        """Reclaim handler threads/fills linked to squashed uops."""
        instance = uop.exc_instance
        if instance is None:
            if uop.waiting_fill is not None:
                # A buffered secondary miss died; drop it from its instance.
                pending = self._by_vpn.get(uop.waiting_fill)
                if pending is not None and uop in pending.waiters:
                    pending.waiters.remove(uop)
            return
        if uop.inst.op in (Opcode.TLBWR, Opcode.ITLBWR):
            if not self.core.threads[uop.thread_id].is_exception_thread:
                self.traditional.on_uop_squashed(uop, now)
            # Exception-thread tlbwr squashes are handled by _reclaim.
            return
        if instance.master_uop is uop and instance.thread is not None:
            # The excepting instruction died: reclaim the handler context.
            self._reclaim(instance.thread, now)
        elif instance.master_uop is uop:
            instance.squashed = True
            if self._by_vpn.get(instance.vpn) is instance:
                del self._by_vpn[instance.vpn]

    def inject_handler_fault(self, now: int) -> str | None:
        """Fault the oldest live handler thread: squash and respawn.

        The same recovery path as the page-table-write check
        (:meth:`on_store_retired`): reclaim the exception context, then
        re-raise the master's exception so handling restarts from
        scratch.  Buffered secondary misses re-raise themselves on their
        next issue attempt (``waiting_fill`` cleared by ``_reclaim``).

        Each master instruction's exception is faulted at most once
        (the re-raise spawns a *new* instance, so the guard keys on the
        master's sequence number): short injection periods would
        otherwise re-fault every respawned handler before it completes
        and livelock the machine.
        """
        refaulted = getattr(self, "_refaulted_masters", None)
        if refaulted is None:
            refaulted = self._refaulted_masters = set()
        for thread in self.core.threads:
            if thread.state is not ThreadState.EXCEPTION:
                continue
            instance = thread.exc_instance
            if instance is None or instance.squashed:
                continue
            master_uop = instance.master_uop
            exc_type = instance.exc_type
            if master_uop is None:
                # Master-less ITLB handler: key the once-only guard on the
                # (stalled thread, page) pair instead of a master seq.
                key = ("itlb", thread.master_tid, instance.vpn)
                if key in refaulted:
                    continue
                refaulted.add(key)
                # Reclaim wakes the stalled front ends; their refetch
                # re-misses and respawns the handler from scratch.
                self._reclaim(thread, now)
                return f"squashed handler thread t{thread.tid} ({exc_type})"
            if master_uop.seq in refaulted:
                continue  # once per master: guarantees forward progress
            va, vpn, src = instance.va, instance.vpn, instance.src_value
            refaulted.add(master_uop.seq)
            self._reclaim(thread, now)
            if master_uop.state != UopState.SQUASHED:
                if exc_type == "dtlb_miss":
                    self.on_dtlb_miss(master_uop, va, vpn, now)
                elif exc_type == "unaligned":
                    self.on_unaligned(master_uop, va, now)
                else:
                    self.on_emulation(master_uop, src, now)
            return f"squashed handler thread t{thread.tid} ({exc_type})"
        # No handler thread in flight: maybe a reverted (traditional)
        # trap is -- fault that instead.
        return self.traditional.inject_handler_fault(now)

    def _reclaim(self, thread: ThreadContext, now: int) -> None:
        """Squash an exception thread and return it to the idle pool."""
        self.stats.reclaimed_threads += 1
        core = self.core
        instance = thread.exc_instance
        if instance is not None:
            self._emit_splice(instance, thread.tid, "reclaimed", now)
        # Detach links first so the rob squash does not recurse into us.
        if instance is not None:
            instance.squashed = True
            if instance.master_uop is not None:
                instance.master_uop.linked_handler = None
                instance.master_uop.exc_instance = None
            for waiter in instance.alive_waiters():
                waiter.waiting_fill = None  # re-raise on next issue attempt
                core.wake_uop(waiter)
            if self._by_vpn.get(instance.vpn) is instance:
                del self._by_vpn[instance.vpn]
            if instance.exc_type == "itlb_miss":
                # Wake the stalled front ends: their refetch re-raises
                # the miss (the fill, if any, rolls back below).
                self._wake_itlb_masters(instance.vpn, now)
                if self._itlb_pending.get(instance.vpn) is instance:
                    del self._itlb_pending[instance.vpn]
                core.itlb.rollback(instance.id)
            core.dtlb.rollback(instance.id)
            core.window.release(instance.id)
        thread.exc_instance = None
        core.squash_all(thread, now)
        self._thread_freed(thread, now)
        thread.reset_to_idle()

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self, ctx) -> dict:
        state = super().snapshot_state(ctx)
        state["traditional"] = self.traditional.snapshot_state(ctx)
        # on_store_retired scans _by_vpn in insertion order: encode pairs
        # verbatim, not sorted.
        state["by_vpn"] = [
            [vpn, ctx.instance_ref(inst)]
            for vpn, inst in self._by_vpn.items()
        ]
        state["itlb_pending"] = [
            [vpn, ctx.instance_ref(inst)]
            for vpn, inst in self._itlb_pending.items()
        ]
        state["itlb_waiters"] = [
            [vpn, list(tids)] for vpn, tids in self._itlb_waiters.items()
        ]
        state["itlb_revert"] = sorted(self._itlb_revert)
        state["spawn_predictor"] = self.spawn_predictor.snapshot_state(ctx)
        state["suppressed"] = [[k, v] for k, v in self._suppressed.items()]
        state["spawn_probe_interval"] = self.spawn_probe_interval
        return state

    def restore_state(self, state: dict, ctx) -> None:
        super().restore_state(state, ctx)
        self.traditional.restore_state(state["traditional"], ctx)
        self._by_vpn = {
            vpn: ctx.resolve_instance(ref) for vpn, ref in state["by_vpn"]
        }
        # .get(): pre-scenario checkpoints have no ITLB state.
        self._itlb_pending = {
            vpn: ctx.resolve_instance(ref)
            for vpn, ref in state.get("itlb_pending", [])
        }
        self._itlb_waiters = {
            vpn: list(tids) for vpn, tids in state.get("itlb_waiters", [])
        }
        self._itlb_revert = set(state.get("itlb_revert", []))
        self.spawn_predictor.restore_state(state["spawn_predictor"], ctx)
        self._suppressed = {k: v for k, v in state["suppressed"]}
        self.spawn_probe_interval = state["spawn_probe_interval"]

    def drain(self, now: int) -> None:
        """Forget in-flight exception work.  Handler threads with a master
        uop were already reclaimed by the squash cascade (their masters
        died); master-less ITLB handlers have no uop to die with and are
        reclaimed here.  Predictor learning state is architectural and
        survives."""
        for thread in self.core.threads:
            if (
                thread.state is ThreadState.EXCEPTION
                and thread.exc_instance is not None
                and thread.exc_instance.master_uop is None
            ):
                self._reclaim(thread, now)
        self.traditional.drain(now)
        self._by_vpn.clear()
        self._itlb_pending.clear()
        self._itlb_waiters.clear()

    def drain_resume_pc(self, thread: ThreadContext) -> int:
        # Only the traditional fallback leaves a NORMAL thread mid-handler
        # (handler threads are EXCEPTION-state and reclaimed wholesale).
        return self.traditional.drain_resume_pc(thread)

    def on_store_retired(self, addr: int, now: int) -> None:
        """A committed store wrote the page-table region: if an in-flight
        handler read (or may read) that PTE, squash and respawn it."""
        pt = self.core.page_table
        for instance in list(self._by_vpn.values()):
            if instance.thread is None or instance.squashed:
                continue
            if pt.pte_address(instance.vpn) != addr:
                continue
            master_uop = instance.master_uop
            va = instance.va
            vpn = instance.vpn
            self._reclaim(instance.thread, now)
            if master_uop is not None and master_uop.state != UopState.SQUASHED:
                self.on_dtlb_miss(master_uop, va, vpn, now)
        for instance in list(self._itlb_pending.values()):
            if instance.thread is None or instance.squashed:
                continue
            if pt.pte_address(instance.vpn) != addr:
                continue
            # Reclaim wakes the stalled front ends; their refetch
            # re-misses and handling restarts against the new PTE.
            self._reclaim(instance.thread, now)
