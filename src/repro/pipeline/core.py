"""The SMT core: the cycle-by-cycle machine model.

One :class:`SMTCore` owns all thread contexts, the shared front end,
window, functional units, and the memory system handles.  Each call to
:meth:`SMTCore.step` advances one cycle through the stages (in reverse
pipeline order so every stage sees the machine state as of the cycle
start):

1. mechanism ``tick`` (hardware walker completions, etc.),
2. retirement (unlimited bandwidth, with cross-thread splicing),
3. schedule/execute (oldest-fetched-first among ready instructions),
4. decode/rename/window-insert,
5. fetch (abstract front end with handler-priority + ICOUNT chooser).

Design points taken straight from the paper's Section 5.1: instructions
are scheduled the same cycle they execute (perfect cache hit/miss
prediction), they must wait ``post_insert_delay`` cycles after window
insertion (register read), retirement bandwidth is unlimited, writeback
is unmodeled, and the front end can supply instructions from multiple
non-contiguous basic blocks in one cycle with no taken-branch limit.
Wrong-path execution is real: it touches the caches and the TLB.
"""

from __future__ import annotations

import dataclasses
import os
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

from repro.branch.unit import BranchPredictionUnit
from repro.isa import semantics
from repro.isa.instructions import (
    EK_BRANCH,
    EK_CONVERT,
    EK_EMUL,
    EK_FP_ALU,
    EK_HARDEXC,
    EK_INT_ALU,
    EK_MFPR,
    EK_MTDST,
    EK_MTPR,
    EK_TLBWR,
    SRC_FP,
    SRC_IMM,
    SRC_INT,
    Instruction,
    Opcode,
)
from repro.isa.program import Program
from repro.isa.registers import PrivReg
from repro.memory.address import vpn_of
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.main_memory import MainMemory
from repro.memory.page_table import PageTable
from repro.memory.tlb import TLB, PerfectTLB
from repro.pipeline.thread import ThreadContext, ThreadState
from repro.pipeline.uop import Uop, UopState
from repro.pipeline.window import InstructionWindow
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.exceptions.base import ExceptionMechanism

_FAR_FUTURE = 1 << 60

#: ``align_word(semantics.effective_address(...))`` folded into one mask
#: (both the 64-bit value mask and the 8-byte alignment clamp).
_EA_ALIGN_MASK = ((1 << 64) - 1) & ~7


def _icount_key(thread: ThreadContext) -> tuple[int, int]:
    """ICOUNT chooser order: fewest in-flight uops first, then tid."""
    return (len(thread.rob), thread.tid)


class SMTCore:
    """The simulated simultaneous-multithreading core."""

    def __init__(
        self,
        config: MachineConfig,
        memory: MainMemory,
        hierarchy: MemoryHierarchy,
        dtlb: TLB | PerfectTLB,
        page_table: PageTable,
        bpu: BranchPredictionUnit | None = None,
        mechanism: "ExceptionMechanism | None" = None,
        itlb: TLB | PerfectTLB | None = None,
    ) -> None:
        self.config = config
        self.memory = memory
        self.hierarchy = hierarchy
        self.dtlb = dtlb
        #: Instruction TLB; None models the seed machine (fetch always
        #: translates).  Built by the simulator when config.itlb_entries
        #: is nonzero (repro.scenarios "itlb_miss" cause).
        self.itlb = itlb
        self.page_table = page_table
        self.bpu = bpu or BranchPredictionUnit()
        self.mechanism = mechanism
        self.window = InstructionWindow(config.window_size)
        self.threads = [
            ThreadContext(tid, config.fetch_buffer_size)
            for tid in range(config.num_threads)
        ]
        self.cycle = 0
        self._next_seq = 0
        # Hot-loop constants (invariant after construction).
        self._l1_latency = hierarchy.config.l1_latency
        self._fetch_latency = config.fetch_latency
        self._icount_chooser = config.chooser == "icount"
        self._pt_base = page_table.base
        # Direct L1-I access (the per-fetch probe is the hottest call in
        # the simulator; skip the hierarchy delegation frame).
        self._ifetch = hierarchy.l1i.access
        # Event-driven scheduler state (see _execute).  A window uop lives
        # in exactly one of: a wake bucket (its sources become ready at a
        # known cycle), the retry list (ready but blocked on something
        # re-checked each cycle: memory ordering, reti serialization, FU
        # contention), parked on unissued producers (woken by
        # producer_issued), or parked on ``waiting_fill`` (woken by the
        # mechanism via wake_uop).
        #: cycle -> uops whose sources become ready that cycle.
        self._wake_buckets: dict[int, list[Uop]] = {}
        #: Ready-but-blocked uops, re-examined every executed cycle.
        self._retry: list[Uop] = []
        #: The uop heap (ordered by seq) being drained by an in-progress
        #: _execute; mid-cycle wakes ahead of the scan join it directly.
        self._exec_heap: list | None = None
        self._exec_seq = -1
        #: Did anything observable happen during the current cycle?  Set by
        #: fetch/decode/issue/retire/squash and mechanism port/fetch grants;
        #: a cycle that ends with this still False cannot affect any later
        #: cycle except through the passage of time, which is what lets
        #: :meth:`run` fast-forward the clock (see docs/PERFORMANCE.md).
        self._activity = True
        self.stats = SimStats()
        #: Opt-in observability event bus (docs/OBSERVABILITY.md).
        #: ``None`` when nothing listens; every emission site costs one
        #: ``is not None`` check, so a bus-less machine is bit-identical
        #: to one built before the bus existed.  Attach via
        #: :func:`repro.obs.attach_bus`.
        self.listeners = None
        #: Opt-in runtime invariant checker (docs/ANALYSIS.md).  ``None``
        #: when disabled; the hot-path hooks cost one ``is not None``
        #: check each, nothing more.
        self._sanitizer = None
        if config.sanitize or os.environ.get("REPRO_SANITIZE", "") not in (
            "",
            "0",
        ):
            from repro.analysis.sanitizer import PipelineSanitizer

            self._sanitizer = PipelineSanitizer(self)
            self.window.sanitizer = self._sanitizer
        #: Opt-in deterministic fault injector (docs/ROBUSTNESS.md).
        #: ``None`` when no faults are armed; each hook site costs one
        #: ``is not None`` check, so a fault-free machine is bit-identical
        #: to one built before the injector existed.
        self.faults = None
        if config.faults:
            from repro.faults.injector import FaultInjector

            self.faults = FaultInjector(self, config.faults)
        #: PAL entries by handler name, set when programs load; lengths
        #: (per handler) drive window reservations and fetch stop.
        self.pal_entries: dict[str, int] = {}
        self.handler_lengths: dict[str, int] = {}
        # Per-cycle mechanism hooks, cached as bound methods only when the
        # mechanism actually overrides them (skips three no-op calls per
        # cycle for the purely reactive mechanisms).
        self._mech_tick = None
        self._mech_ports = None
        self._mech_fetch_idle = None
        if mechanism is not None:
            mechanism.attach(self)
            from repro.exceptions.base import ExceptionMechanism as _Base

            cls = type(mechanism)
            if cls.tick is not _Base.tick:
                self._mech_tick = mechanism.tick
            if cls.service_mem_ports is not _Base.service_mem_ports:
                self._mech_ports = mechanism.service_mem_ports
            if cls.fetch_idle is not _Base.fetch_idle:
                self._mech_fetch_idle = mechanism.fetch_idle

    # ------------------------------------------------------------------
    # Setup helpers.
    # ------------------------------------------------------------------
    def load_program(self, tid: int, program: Program) -> ThreadContext:
        """Bind ``program`` to thread ``tid`` and load its data image."""
        thread = self.threads[tid]
        thread.activate(program)
        thread.priv_regs[PrivReg.PTBR] = self.page_table.base
        self.memory.load_image(program.build_memory_words())
        self.pal_entries.update(program.pal_entries)
        return thread

    @property
    def handler_length(self) -> int:
        """Common-case DTLB handler length (reservations, quick-start)."""
        return self.handler_lengths.get("dtlb_miss", 10)

    @handler_length.setter
    def handler_length(self, value: int) -> None:
        self.handler_lengths["dtlb_miss"] = value

    def alloc_seq(self) -> int:
        """Allocate the next global fetch-order sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def find_idle_thread(self) -> ThreadContext | None:
        """An idle hardware context usable for an exception, if any."""
        for thread in self.threads:
            if thread.state is ThreadState.IDLE:
                return thread
        return None

    # ------------------------------------------------------------------
    # The cycle loop.
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the machine by one cycle."""
        now = self.cycle
        self._activity = False
        if self._mech_tick is not None:
            self._mech_tick(now)
        self._retire(now)
        self._execute(now)
        # Decode and fetch share one thread order; only a squash or an
        # overfetch discard in decode can move thread states or ROB
        # depths, and each bumps its stats counter.
        stats = self.stats
        squashed = stats.squashed
        discarded = stats.overfetch_discarded
        prio = self._fetch_priority()
        self._decode(now, prio)
        if stats.squashed != squashed or stats.overfetch_discarded != discarded:
            prio = self._fetch_priority()
        self._fetch(now, prio)
        self.cycle += 1
        stats.cycles = self.cycle

    def run(self, user_insts: int, max_cycles: int = 10_000_000) -> None:
        """Run until every application thread retires ``user_insts``
        *additional* user-mode instructions (or halts), or ``max_cycles``
        total elapse."""
        watch = [
            (thread, thread.retired_user + user_insts)
            for thread in self.threads
            if thread.state is ThreadState.NORMAL
        ]
        if not self.run_to(watch, max_cycles):
            raise RuntimeError(
                f"simulation exceeded {max_cycles} cycles "
                f"(retired: {[t.retired_user for t in self.threads]})"
            )

    def run_to(
        self, watch: list[tuple[ThreadContext, int]], stop_cycle: int
    ) -> bool:
        """Run until every watched thread reaches its absolute
        ``retired_user`` target (or halts), or the clock reaches
        ``stop_cycle``.  Returns True when the targets completed.

        The loop is the historical :meth:`run` body verbatim; ``run``
        delegates here so the checkpoint autosave runner can execute the
        same simulation in bounded chunks.  Chunking is bit-identical to
        one straight call: the loop only stops at ``stop_cycle`` after a
        completed step (or a fast-forward clamp), and the extra quiet
        step a resumed chunk takes at a clamped boundary changes nothing
        by the quietness invariant documented in :meth:`_next_event`.
        Note the seed semantics are preserved exactly: targets are only
        checked *before* a step, so targets reached exactly when the
        clock runs out still report False.  The watch is re-checked only
        when a retirement counter moved: ``halted``, ``retired_user``
        and a watched thread's state change only in :meth:`_do_retire`,
        which always bumps one.  :mod:`repro.engine.generate` builds the
        fused kernel by inlining this method and the stages it reaches.
        """
        fast_forward = self.config.fast_forward
        stats = self.stats
        step = self.step
        last_retired = -1
        while self.cycle < stop_cycle:
            retired = stats.retired_user + stats.retired_handler
            if retired != last_retired:
                last_retired = retired
                for thread, target in watch:
                    if (
                        not thread.halted
                        and thread.retired_user < target
                        and thread.state is ThreadState.NORMAL
                    ):
                        break
                else:
                    return True
            step()
            if fast_forward and not self._activity:
                # Quiet cycle: no machine state changed, so nothing can
                # happen until the earliest time-gated wakeup.  Jump the
                # clock there; every skipped cycle would have been quiet
                # too, so all stats remain bit-identical to the slow path.
                nxt = self._next_event(self.cycle - 1)
                if nxt > self.cycle:
                    self.cycle = min(nxt, stop_cycle)
                    stats.cycles = self.cycle
        return False

    def _next_event(self, prev: int) -> int:
        """Earliest cycle after ``prev`` at which anything can happen.

        Called only after a *quiet* cycle ``prev`` (no fetch, decode,
        issue, retire, squash, or mechanism grant).  Quiet means every
        in-flight item is blocked, and each block is either time-gated
        (enumerated below) or released by another blocked item's wakeup:

        * fetch -- stalled until ``fetch_stall_until`` (icache miss,
          redirect) or blocked on buffer space / halt / ``fetch_done`` /
          ``fetch_wait_uop``, all of which clear only via other events;
        * decode -- the buffer head's ``avail_cycle`` (fetch pipe), or
          window-full, which clears at another uop's retirement/squash;
        * schedule -- the wake-bucket cycles (each holds uops whose
          sources become ready exactly then); uops parked on unissued
          producers or TLB fills are covered by their producer's /
          mechanism's own wakeup, and retry-list uops (ready but blocked
          on memory ordering, reti serialization, or FU contention) are
          covered by their blockers: contention implies an issue happened
          (not a quiet cycle), and ordering/serialization blockers are
          themselves bucketed, parked, or retrying;
        * retire -- the per-thread ROB head's ``finish_cycle``; splice
          gating is covered by the handler thread's own entries;
        * mechanism -- :meth:`ExceptionMechanism.next_event_cycle`
          (hardware-walker completions; reactive mechanisms report "far").
        """
        nxt = _FAR_FUTURE
        for thread in self.threads:
            if thread.state is ThreadState.IDLE or thread.halted:
                continue
            stall = thread.fetch_stall_until
            if prev < stall < nxt:
                nxt = stall
            if thread.fetch_buffer:
                avail = thread.fetch_buffer[0].avail_cycle
                if prev < avail < nxt:
                    nxt = avail
            if thread.rob:
                head = thread.rob[0]
                if head.issued and prev < head.finish_cycle < nxt:
                    nxt = head.finish_cycle
        for cyc in self._wake_buckets:
            if prev < cyc < nxt:
                nxt = cyc
        if self.mechanism is not None:
            mech = self.mechanism.next_event_cycle(prev)
            if mech < nxt:
                nxt = mech
        return nxt

    # ------------------------------------------------------------------
    # Fetch.
    # ------------------------------------------------------------------
    def _fetch_priority(self) -> list[ThreadContext]:
        """Thread order for fetch/decode: handler threads first, then the
        configured chooser among application threads."""
        handlers = []
        apps = []
        for t in self.threads:
            state = t.state
            if state is ThreadState.NORMAL:
                apps.append(t)
            elif state is ThreadState.EXCEPTION:
                handlers.append(t)
        if self._icount_chooser:
            if len(apps) > 1:
                apps.sort(key=_icount_key)
        else:
            offset = self.cycle % max(1, len(apps)) if apps else 0
            apps = apps[offset:] + apps[:offset]
        if not handlers:
            return apps
        if not self.config.handler_fetch_priority:
            return apps + handlers
        return handlers + apps

    def _fetch(self, now: int, prio: list[ThreadContext]) -> None:
        config = self.config
        budget = config.width
        free_handler_fetch = config.limits.no_fetch_bandwidth
        for thread in prio:
            handler_free = free_handler_fetch and thread.is_exception_thread
            if budget <= 0 and not handler_free:
                continue
            if not thread.can_fetch(now):
                continue
            # Inside the loop only buffer space can newly block: every
            # other can_fetch condition flips only via a _fetch_one that
            # already returned False (stall, redirect wait, halt, done).
            buf = thread.fetch_buffer
            cap = thread.fetch_buffer_size
            per_thread = config.width
            while per_thread > 0 and (budget > 0 or handler_free) and len(buf) < cap:
                if not self._fetch_one(thread, now):
                    break
                per_thread -= 1
                if not handler_free:
                    budget -= 1
        if budget > 0 and self._mech_fetch_idle is not None:
            used = self._mech_fetch_idle(now, budget)
            if used:
                budget -= used
                self._activity = True

    def _fetch_one(self, thread: ThreadContext, now: int) -> bool:
        """Fetch a single instruction for ``thread``; False to stop."""
        pc = thread.pc
        insts = thread.program.insts
        if not 0 <= pc < len(insts):
            # Wrong-path fetch ran off the text segment: wait for a squash.
            thread.fetch_stall_until = _FAR_FUTURE
            return False
        inst = insts[pc]
        if inst.privileged and not thread.fetch_priv:
            # Wrong-path fetch fell into PAL code: privilege fence.
            thread.fetch_stall_until = _FAR_FUTURE
            return False

        # Instruction-TLB probe (user-mode fetch only: PAL handler fetch
        # is physically mapped, like the handler's privileged loads).
        itlb = self.itlb
        if (
            itlb is not None
            and not thread.fetch_priv
            and itlb.lookup(vpn_of(pc * 4)) is None
        ):
            self.stats.itlb_miss_events += 1
            self._activity = True
            if self.listeners is not None:
                self.listeners.exception(now, thread.tid, -1, pc, "itlb_miss")
            if self.mechanism is not None:
                self.mechanism.on_itlb_miss(thread, pc, now)
            return False

        # Instruction cache probe (wrong-path fetch pollutes it too).
        ready = self._ifetch(pc * 4, now)
        if ready > now + self._l1_latency:
            thread.fetch_stall_until = ready
            return False

        seq = self._next_seq
        self._next_seq = seq + 1
        uop = Uop(seq, thread.tid, pc, inst)
        uop.fetch_cycle = now
        uop.avail_cycle = now + self._fetch_latency
        uop.is_handler = inst.privileged
        if thread.overfetch_after_reti:
            uop.discard = True
        thread.rob.append(uop)
        thread.fetch_buffer.append(uop)
        self.stats.fetched += 1
        self._activity = True
        if self.listeners is not None:
            self.listeners.fetch(
                now, thread.tid, seq, pc, inst.op.value, uop.is_handler
            )

        op = inst.op
        if op is Opcode.HALT:
            thread.fetch_wait_uop = uop
            return False
        if inst.is_branch:
            pred = self.bpu.predict(pc, inst)
            uop.checkpoint = pred.checkpoint
            uop.pred_taken = pred.taken
            uop.pred_target = pred.target
            if self.faults is not None and inst.is_cond_branch:
                self.faults.poison_branch(uop, now)
            if op is Opcode.RETI:
                if thread.is_exception_thread:
                    if self.config.predict_handler_length:
                        thread.fetch_done = True
                        return False
                    # No length prediction: keep fetching (and wasting
                    # bandwidth) past the handler until reti is decoded.
                    thread.overfetch_after_reti = True
                    thread.pc = pc + 1
                    return True
                thread.fetch_wait_uop = uop
                return False
            thread.pc = uop.pred_target if uop.pred_taken else pc + 1
            return True
        thread.pc = pc + 1
        return True

    # ------------------------------------------------------------------
    # Decode / rename / window insertion.
    # ------------------------------------------------------------------
    def _decode(self, now: int, prio: list[ThreadContext]) -> None:
        config = self.config
        budget = config.width
        limits = config.limits
        free_handler_decode = limits.no_fetch_bandwidth
        no_window_overhead = limits.no_window_overhead
        sched_delay = config.decode_latency + config.post_insert_delay
        window = self.window
        stats = self.stats
        for thread in prio:
            buf = thread.fetch_buffer
            # Per-thread invariants: decoding this thread cannot change its
            # own exception linkage (admission squashes hit the *master*
            # thread's tail, which never reaches the excepting uop).
            is_exc = thread.is_exception_thread
            handler_free = free_handler_decode and is_exc
            exc_id = None
            if is_exc and thread.exc_instance is not None:
                exc_id = thread.exc_instance.id
            while buf and (budget > 0 or handler_free):
                uop = buf[0]
                if uop.avail_cycle > now:
                    break
                if uop.discard:
                    buf.popleft()
                    thread.rob.remove(uop)
                    uop.state = UopState.SQUASHED
                    stats.overfetch_discarded += 1
                    self._activity = True
                    if not handler_free:
                        budget -= 1
                    continue
                if not uop.is_handler:
                    # Common case inlined from _admit: an application uop
                    # may not claim a reserved slot.
                    if (
                        window._occupancy + window._reserved_total
                        >= window.capacity
                    ):
                        break
                elif not self._admit(thread, uop, now):
                    break
                buf.popleft()
                if uop.inst.op is Opcode.RETI and is_exc:
                    # Reti decoded: stop any overfetch past the handler.
                    thread.fetch_done = True
                    thread.overfetch_after_reti = False
                self._rename(thread, uop)
                if no_window_overhead and uop.is_handler:
                    uop.free_slot = True
                window.insert(uop, exc_id)
                uop.insert_cycle = now
                uop.min_sched_cycle = now + sched_delay
                uop.state = UopState.WINDOW
                self._schedule_uop(uop)
                self._activity = True
                if not handler_free:
                    budget -= 1
            if budget <= 0 and not free_handler_decode:
                break

    def _admit(self, thread: ThreadContext, uop: Uop, now: int) -> bool:
        """Window admission check, including deadlock avoidance."""
        window = self.window
        if uop.is_handler and thread.is_exception_thread:
            if self.config.limits.no_window_overhead:
                return True
            if window._occupancy < window.capacity:
                return True
            return self._make_room_for_handler(thread, now)
        if uop.is_handler:
            # Traditional handler uops run in the application thread and
            # are admitted like ordinary instructions (no reservations).
            return window._occupancy < window.capacity
        return window._occupancy + window._reserved_total < window.capacity

    def _make_room_for_handler(self, exc_thread: ThreadContext, now: int) -> bool:
        """Squash the master thread's tail so the handler can advance.

        The paper's deadlock-avoidance rule: reclaim window slots from the
        youngest post-exception instructions, never killing the excepting
        instruction itself (in which case the handler stalls instead).
        """
        master = self.threads[exc_thread.master_tid]
        master_uop = exc_thread.master_uop
        if master_uop is None:
            return False
        boundary = None
        freed = 0
        for victim in reversed(master.rob):
            if victim.seq <= master_uop.seq:
                break
            boundary = victim
            if victim.state == UopState.WINDOW and not victim.free_slot:
                freed += 1
                if freed >= 1:
                    break
        if boundary is None or freed == 0:
            return False
        self.window.tail_squashes += 1
        self._resource_squash(master, boundary.seq - 1, now)
        return self.window.occupancy < self.window.capacity

    def _rename(self, thread: ThreadContext, uop: Uop) -> None:
        """Record dataflow sources and claim the destination mapping.

        Operand spaces and PAL-resolved register indices were precomputed
        at :class:`Instruction` construction (``src_*_kind``/``src_*_idx``).
        """
        inst = uop.inst
        kind = inst.src_a_kind
        if kind == SRC_INT:
            reg = inst.src_a_idx
            producer = thread.int_map[reg]
            if producer is not None:
                uop.src_a_uop = producer
            else:
                uop.src_a_value = thread.arch.read_int(reg)
        elif kind == SRC_FP:
            reg = inst.src_a_idx
            producer = thread.fp_map[reg]
            if producer is not None:
                uop.src_a_uop = producer
            else:
                uop.src_a_value = thread.arch.read_fp(reg)
        kind = inst.src_b_kind
        if kind == SRC_INT:
            reg = inst.src_b_idx
            producer = thread.int_map[reg]
            if producer is not None:
                uop.src_b_uop = producer
            else:
                uop.src_b_value = thread.arch.read_int(reg)
        elif kind == SRC_IMM:
            uop.src_b_value = inst.imm0
        elif kind == SRC_FP:
            reg = inst.src_b_idx
            producer = thread.fp_map[reg]
            if producer is not None:
                uop.src_b_uop = producer
            else:
                uop.src_b_value = thread.arch.read_fp(reg)

        kind = inst.dest_kind
        if kind == SRC_FP:
            thread.fp_map[inst.dest_idx] = uop
        elif kind == SRC_INT:
            thread.int_map[inst.dest_idx] = uop
        elif inst.op is Opcode.MTDST and not thread.is_exception_thread:
            # Traditional emulation: mtdst writes the excepting
            # instruction's (user) destination register; the hardware
            # latched its index at the trap.
            dest = thread.priv_regs[PrivReg.EXC_DST]
            if 0 < dest < 32:
                uop.dyn_dest = dest
                thread.int_map[dest] = uop
        if inst.is_store:
            thread.store_queue.append(uop)
        uop.renamed = True

    # ------------------------------------------------------------------
    # Schedule / execute.
    # ------------------------------------------------------------------
    def _schedule_uop(self, uop: Uop) -> None:
        """Register a freshly inserted window uop with the scheduler.

        If every producer has issued, the uop goes into the wake bucket
        of the cycle its last source (or the post-insert delay) lands;
        otherwise it parks on its unissued producers, which wake it from
        :meth:`producer_issued`.
        """
        wake = uop.min_sched_cycle
        wait = 0
        p = uop.src_a_uop
        if p is not None:
            if p.issued:
                if p.finish_cycle > wake:
                    wake = p.finish_cycle
            else:
                if p.consumers is None:
                    p.consumers = [uop]
                else:
                    p.consumers.append(uop)
                wait += 1
        p = uop.src_b_uop
        if p is not None:
            if p.issued:
                if p.finish_cycle > wake:
                    wake = p.finish_cycle
            else:
                if p.consumers is None:
                    p.consumers = [uop]
                else:
                    p.consumers.append(uop)
                wait += 1
        uop.wait_count = wait
        uop.src_wake = wake
        if wait == 0:
            uop.scheduled = True
            buckets = self._wake_buckets
            if wake in buckets:
                buckets[wake].append(uop)
            else:
                buckets[wake] = [uop]

    def producer_issued(self, producer: Uop) -> None:
        """Wake the consumers parked on ``producer`` (which just issued).

        Called by the core at every issue, and by the multithreaded
        mechanism when ``mtdst`` completes an emulated instruction on the
        excepting uop's behalf.
        """
        consumers = producer.consumers
        if consumers is None:
            return
        producer.consumers = None
        fin = producer.finish_cycle
        buckets = self._wake_buckets
        for c in consumers:
            if fin > c.src_wake:
                c.src_wake = fin
            c.wait_count -= 1
            if c.wait_count == 0 and not c.scheduled and c.state == UopState.WINDOW:
                c.scheduled = True
                wake = c.src_wake
                if wake in buckets:
                    buckets[wake].append(c)
                else:
                    buckets[wake] = [c]

    def wake_uop(self, uop: Uop) -> None:
        """Re-enter ``uop`` into scheduling after an asynchronous unblock
        (its TLB fill arrived, a reclaimed instance re-raises it, ...).

        A wake during ``_execute`` whose seq is still ahead of the scan
        position joins the current cycle's examine heap -- exactly the
        uops the old full linear scan would still have visited this
        cycle; everything else is examined next executed cycle.
        """
        if uop.scheduled or uop.issued or uop.state != UopState.WINDOW:
            return
        heap = self._exec_heap
        if heap is not None and uop.seq > self._exec_seq:
            heappush(heap, uop)
        else:
            self._retry.append(uop)
        uop.scheduled = True

    def _execute(self, now: int) -> None:
        entries = self._wake_buckets.pop(now, None)
        retry = self._retry
        if retry:
            if entries is None:
                entries = []
            entries.extend(retry)
            retry.clear()
        ports = self._mech_ports
        pool = self.config.fu_pool
        if not entries:
            if ports is not None and pool.mem > 0:
                if ports(now, pool.mem):
                    self._activity = True
            return
        config = self.config
        budget = config.width
        fu_used = {"alu": 0, "muldiv": 0, "fp": 0, "fpdiv": 0, "mem": 0}
        free_handler_exec = config.limits.no_execute_bandwidth
        # The examine heap holds uops directly (Uop orders by seq).
        heap = entries
        heapify(heap)
        self._exec_heap = heap
        retry_append = retry.append
        while heap:
            uop = heappop(heap)
            if budget <= 0 and not free_handler_exec:
                # Out of issue bandwidth: everything still queued re-arms
                # for next cycle (the old scan's early `break`).
                retry_append(uop)
                while heap:
                    retry_append(heappop(heap))
                break
            self._exec_seq = uop.seq
            uop.scheduled = False
            if uop.state != UopState.WINDOW or uop.issued:
                continue  # squashed or completed by a mid-loop event
            if uop.waiting_fill is not None:
                continue  # parked: the mechanism wakes it via wake_uop
            if uop.min_sched_cycle > now:
                # An asynchronous re-raise re-entered it early: re-time.
                self._schedule_uop(uop)
                continue
            if not uop.src_ready(now):
                self._schedule_uop(uop)
                continue
            inst = uop.inst
            if inst.is_load and not self._load_ordering_ok(uop, now):
                retry_append(uop)
                uop.scheduled = True
                continue
            if inst.op is Opcode.RETI and not self._older_all_issued(uop):
                # Return-from-exception serializes: it must not redirect
                # fetch before the handler's tlbwr has installed the fill.
                retry_append(uop)
                uop.scheduled = True
                continue
            handler_free = free_handler_exec and uop.is_handler
            group = inst.fu_group
            if not handler_free and (
                budget <= 0 or fu_used[group] >= pool.capacity(group)
            ):
                retry_append(uop)
                uop.scheduled = True
                continue
            # An issue attempt always changes machine state: either the
            # uop issues, or it raises an exception event (TLB miss /
            # emulation) through the mechanism.
            self._activity = True
            if self._issue(uop, now):
                if self.listeners is not None:
                    self.listeners.issue(
                        now, uop.thread_id, uop.seq, uop.pc,
                        uop.inst.op.value, uop.is_handler,
                    )
                if not handler_free:
                    fu_used[group] += 1
                    budget -= 1
        self._exec_heap = None
        self._exec_seq = -1
        if ports is not None:
            free_mem = pool.mem - fu_used["mem"]
            if free_mem > 0:
                if ports(now, free_mem):
                    self._activity = True

    def _older_all_issued(self, uop: Uop) -> bool:
        """True when every older same-thread uop has issued."""
        for older in self.threads[uop.thread_id].rob:
            if older.seq >= uop.seq:
                return True
            if not older.issued and older.state != UopState.SQUASHED:
                return False
        return True

    @staticmethod
    def _store_addr_if_known(store: Uop, now: int) -> int | None:
        """A store's effective address once its base operand is ready.

        Models the usual STA/STD split: the address generation of a store
        completes as soon as the base register is available, even if the
        store data is still in flight.
        """
        if store.issued:
            return store.eff_addr
        base_producer = store.src_a_uop
        if base_producer is not None:
            if not (base_producer.issued and base_producer.finish_cycle <= now):
                return None
            base = base_producer.value
        else:
            base = store.src_a_value
        # align_word(effective_address(...)) with the masks folded together.
        return (int(base) + store.inst.imm0) & _EA_ALIGN_MASK

    def _load_ordering_ok(self, uop: Uop, now: int) -> bool:
        """Memory disambiguation for a load about to issue.

        The load waits on any older same-thread store whose address is
        still unknown, and on a matching-address store whose data is not
        yet available (it will forward once the store issues).  Stores to
        other addresses are bypassed -- this is what lets independent
        iterations overlap their cache and TLB misses.
        """
        if uop.inst.privileged:
            return True  # handler loads: the handler performs no stores
        thread = self.threads[uop.thread_id]
        if not thread.store_queue:
            return True
        producer = uop.src_a_uop
        base = producer.value if producer is not None else uop.src_a_value
        addr = (int(base or 0) + uop.inst.imm0) & _EA_ALIGN_MASK
        for store in thread.store_queue:
            if store.seq >= uop.seq:
                break
            store_addr = self._store_addr_if_known(store, now)
            if store_addr is None:
                return False
            if store_addr == addr and not store.issued:
                return False
        return True

    def _issue(self, uop: Uop, now: int) -> bool:
        """Execute ``uop`` functionally and stamp its completion time.

        Returns False when the uop could not issue after all (it raised a
        TLB miss and is now waiting or was squashed by a trap).
        """
        inst = uop.inst
        thread = self.threads[uop.thread_id]
        p = uop.src_a_uop
        a = p.value if p is not None else uop.src_a_value
        if a is None:
            a = 0
        p = uop.src_b_uop
        b = p.value if p is not None else uop.src_b_value
        if b is None:
            b = 0

        if inst.is_mem:
            return self._issue_mem(uop, thread, inst, a, b, now)

        latency = inst.fu_latency0
        kind = inst.exec_kind
        if kind == EK_INT_ALU:
            uop.value = semantics.compute_int(inst, int(a), int(b))
        elif kind == EK_BRANCH:
            return self._issue_branch(uop, thread, inst, a, b, now)
        elif kind == EK_FP_ALU:
            uop.value = semantics.compute_fp(inst, float(a), float(b))
        elif kind == EK_CONVERT:
            uop.value = semantics.convert(inst, a)
        elif kind == EK_MFPR:
            uop.value = thread.priv_regs[inst.imm]
        elif kind == EK_MTPR:
            thread.priv_regs[inst.imm] = int(a)
            uop.value = None
        elif kind == EK_TLBWR:
            if self.mechanism is not None:
                self.mechanism.on_tlbwr(uop, int(a), int(b), now)
        elif kind == EK_EMUL:
            if self.mechanism is None:
                # The perfect machine implements the operation natively.
                uop.value = semantics.compute_int(inst, int(a), 0)
            else:
                # emul/brev/swint all trap to software service; the cause
                # string is the mnemonic ("emul", "brev", "swint").
                self.stats.emulation_events += 1
                if self.listeners is not None:
                    self.listeners.exception(
                        now, uop.thread_id, uop.seq, uop.pc, inst.op.value
                    )
                self.mechanism.on_emulation(uop, int(a), now)
                return False  # waits for the handler's mtdst
        elif kind == EK_MTDST:
            uop.value = int(a) & ((1 << 64) - 1)
            if self.mechanism is not None:
                self.mechanism.on_mtdst(uop, int(a), now)
        elif kind == EK_HARDEXC:
            # Takes effect at retirement: a speculatively fetched hardexc
            # (e.g. behind a mispredicted handler branch) must not revert.
            uop.value = None
        else:  # EK_NOP: nop / halt
            uop.value = None

        uop.issued = True
        uop.issue_cycle = now
        uop.finish_cycle = now + latency
        if uop.consumers is not None:
            self.producer_issued(uop)
        return True

    def _issue_mem(
        self,
        uop: Uop,
        thread: ThreadContext,
        inst: Instruction,
        a,
        b,
        now: int,
    ) -> bool:
        addr = (int(a) + inst.imm0) & _EA_ALIGN_MASK
        uop.eff_addr = addr
        faults = self.faults
        if not inst.privileged:
            if (
                self.config.align_check
                and inst.op is Opcode.LD
                and (int(a) + inst.imm0) & 7
                and self.mechanism is not None
            ):
                # Misaligned user load: trap to the fixup handler, which
                # loads the aligned-down word and completes the load via
                # mtdst.  (The perfect machine force-aligns silently via
                # _EA_ALIGN_MASK, which computes the identical value.)
                raw = (int(a) + inst.imm0) & ((1 << 64) - 1)
                self.stats.unaligned_events += 1
                if self.listeners is not None:
                    self.listeners.exception(
                        now, uop.thread_id, uop.seq, uop.pc, "unaligned"
                    )
                self.mechanism.on_unaligned(uop, raw, now)
                return False  # waits for the handler's mtdst
            if faults is not None:
                faults.on_mem_access(uop, addr, now)
            entry = self.dtlb.lookup(vpn_of(addr))
            if entry is None:
                self.stats.dtlb_miss_events += 1
                if self.listeners is not None:
                    self.listeners.exception(
                        now, uop.thread_id, uop.seq, uop.pc, "dtlb_miss"
                    )
                if self.mechanism is not None:
                    self.mechanism.on_dtlb_miss(uop, addr, vpn_of(addr), now)
                return False
        if inst.is_load:
            forwarded = None
            if not inst.privileged:
                for store in reversed(thread.store_queue):
                    if store.seq < uop.seq and store.issued and store.eff_addr == addr:
                        forwarded = store.value
                        break
            if forwarded is not None:
                uop.value = forwarded
                ready = now + self.hierarchy.config.l1_latency
                self.stats.store_forwards += 1
            else:
                uop.value = self.memory.read_word(addr)
                ready = self.hierarchy.load(addr, now)
                if faults is not None:
                    ready += faults.load_delay(uop, addr, now)
            if inst.op is Opcode.FLD:
                uop.value = float(uop.value)
            else:
                uop.value = int(uop.value) & ((1 << 64) - 1)
            uop.finish_cycle = ready
        else:
            uop.value = b  # store data
            self.hierarchy.store(addr, now)
            uop.finish_cycle = now + self.config.store_latency
        uop.issued = True
        uop.issue_cycle = now
        if uop.consumers is not None:
            self.producer_issued(uop)
        return True

    def _issue_branch(
        self,
        uop: Uop,
        thread: ThreadContext,
        inst: Instruction,
        a,
        b,
        now: int,
    ) -> bool:
        op = inst.op
        taken = True
        if inst.is_cond_branch:
            taken = semantics.branch_taken(inst, int(a), int(b))
            target = inst.target if taken else uop.pc + 1
        elif op in (Opcode.JMP, Opcode.CALL):
            target = inst.target
        elif op in (Opcode.CALLI, Opcode.JMPI, Opcode.RET):
            target = int(a) % max(1, len(thread.program.insts) + 1)
        elif op is Opcode.RETI:
            target = thread.priv_regs[PrivReg.EXC_PC]
        else:  # pragma: no cover
            raise AssertionError(f"unexpected branch {inst}")

        if op in (Opcode.CALL, Opcode.CALLI):
            uop.value = uop.pc + 1  # link register
        uop.actual_taken = taken
        uop.actual_target = target
        uop.issued = True
        uop.issue_cycle = now
        uop.finish_cycle = now + 1
        if uop.consumers is not None:
            self.producer_issued(uop)

        if op is Opcode.RETI:
            if self.mechanism is not None:
                self.mechanism.on_reti_executed(uop, now)
            return True
        mispredicted = taken != uop.pred_taken or (
            taken and target != uop.pred_target
        )
        if mispredicted:
            self._mispredict(thread, uop, now)
        return True

    def _mispredict(self, thread: ThreadContext, uop: Uop, now: int) -> None:
        self.stats.mispredicts += 1
        self.squash_from(thread, uop.seq, now)
        self.bpu.repair(
            uop.pc, uop.inst, uop.checkpoint, uop.actual_taken, uop.actual_target
        )
        thread.pc = uop.actual_target
        thread.fetch_priv = uop.inst.privileged
        thread.fetch_stall_until = now + 1
        thread.fetch_wait_uop = None
        thread.fetch_done = False
        thread.overfetch_after_reti = False

    # ------------------------------------------------------------------
    # Squash machinery.
    # ------------------------------------------------------------------
    def squash_from(self, thread: ThreadContext, boundary_seq: int, now: int) -> int:
        """Squash every uop of ``thread`` with ``seq > boundary_seq``.

        Returns the number of squashed uops.  Exception threads linked to
        squashed excepting instructions are reclaimed via the mechanism.
        """
        squashed = 0
        while thread.rob and thread.rob[-1].seq > boundary_seq:
            victim = thread.rob.pop()
            self._squash_uop(thread, victim, now)
            squashed += 1
        if squashed:
            thread.rebuild_rename_maps()
            self.stats.squashed += squashed
            self._activity = True
        if thread.fetch_wait_uop is not None and (
            thread.fetch_wait_uop.state == UopState.SQUASHED
        ):
            thread.fetch_wait_uop = None
        return squashed

    def _squash_uop(self, thread: ThreadContext, victim: Uop, now: int) -> None:
        if self.listeners is not None:
            self.listeners.squash(
                now, thread.tid, victim.seq, victim.pc,
                victim.inst.op.value, victim.is_handler,
            )
        state = victim.state
        if state == UopState.WINDOW:
            self.window.remove(victim)
        elif state == UopState.FETCH_BUF:
            # Squashes walk the ROB tail youngest-first, so the victim is
            # almost always the buffer's newest entry.
            buf = thread.fetch_buffer
            if buf:
                if buf[-1] is victim:
                    buf.pop()
                else:
                    try:
                        buf.remove(victim)
                    except ValueError:
                        pass
        victim.state = UopState.SQUASHED
        if victim.inst.is_store:
            queue = thread.store_queue
            if queue:
                if queue[-1] is victim:
                    queue.pop()
                elif victim in queue:
                    queue.remove(victim)
        if self.mechanism is not None:
            self.mechanism.on_uop_squashed(victim, now)

    def squash_all(self, thread: ThreadContext, now: int) -> int:
        """Squash every in-flight uop of ``thread`` (thread reclaim)."""
        return self.squash_from(thread, -1, now)

    def _resource_squash(self, thread: ThreadContext, boundary_seq: int, now: int) -> None:
        """Squash for window-space reclamation (not a misprediction).

        The squashed instructions are simply refetched from the oldest
        squashed PC; front-end speculative state is restored to the oldest
        squashed branch's checkpoint (no outcome is re-applied).
        """
        doomed = [u for u in thread.rob if u.seq > boundary_seq]
        if not doomed:
            return
        oldest = doomed[0]
        oldest_branch = next((u for u in doomed if u.checkpoint is not None), None)
        self.squash_from(thread, boundary_seq, now)
        if oldest_branch is not None:
            self.bpu.restore_checkpoint(oldest_branch.checkpoint)
        thread.pc = oldest.pc
        thread.fetch_priv = oldest.inst.privileged
        thread.fetch_stall_until = now + 1
        thread.fetch_wait_uop = None

    # ------------------------------------------------------------------
    # Retire.
    # ------------------------------------------------------------------
    def _retire(self, now: int) -> None:
        threads = self.threads
        do_retire = self._do_retire
        progress = True
        while progress:
            progress = False
            for thread in threads:
                if thread.state is ThreadState.IDLE:
                    continue
                rob = thread.rob
                if not rob:
                    continue
                head = rob[0]
                if not head.issued or head.finish_cycle > now:
                    continue
                if head.state != UopState.WINDOW:
                    continue
                if thread.is_exception_thread:
                    # Splice gate: retire in the master's program order.
                    # Master-less handlers (itlb_miss: the faulting fetch
                    # produced no uop) retire freely.
                    master_uop = thread.master_uop
                    if master_uop is not None:
                        master = threads[thread.master_tid]
                        if not master.rob or master.rob[0] is not master_uop:
                            continue
                elif head.linked_handler is not None:
                    continue  # splice: the handler thread retires first
                do_retire(thread, head, now)
                progress = True

    def _do_retire(self, thread: ThreadContext, uop: Uop, now: int) -> None:
        if self._sanitizer is not None:
            self._sanitizer.on_retire(thread, uop, now)
        if self.listeners is not None:
            self.listeners.retire(
                now, thread.tid, uop.seq, uop.pc, uop.inst.op.value,
                uop.is_handler,
            )
        thread.rob.popleft()
        self.window.remove(uop)
        uop.state = UopState.RETIRED
        self._activity = True
        inst = uop.inst
        op = inst.op

        kind = inst.dest_kind
        if kind == SRC_FP:
            reg = inst.dest_idx
            if uop.value is not None:
                thread.arch.write_fp(reg, uop.value)
            if thread.fp_map[reg] is uop:
                thread.fp_map[reg] = None
        elif kind == SRC_INT:
            reg = inst.dest_idx
            if uop.value is not None:
                thread.arch.write_int(reg, int(uop.value))
            if thread.int_map[reg] is uop:
                thread.int_map[reg] = None
        elif uop.dyn_dest is not None:
            thread.arch.write_int(uop.dyn_dest, int(uop.value))
            if thread.int_map[uop.dyn_dest] is uop:
                thread.int_map[uop.dyn_dest] = None

        if inst.is_store:
            self.memory.write_word(uop.eff_addr, uop.value)
            queue = thread.store_queue
            if queue:
                # Retirement is oldest-first: the head is the usual hit.
                if queue[0] is uop:
                    del queue[0]
                elif uop in queue:
                    queue.remove(uop)
            if self.mechanism is not None and uop.eff_addr >= self._pt_base:
                self.mechanism.on_store_retired(uop.eff_addr, now)
        elif inst.is_branch and op is not Opcode.RETI:
            self.bpu.train(
                uop.pc,
                inst,
                uop.checkpoint,
                uop.actual_taken,
                uop.actual_target,
                uop.pred_taken,
                uop.pred_target,
            )
        elif op is Opcode.RETI:
            if self.mechanism is not None:
                self.mechanism.on_reti_retired(uop, now)
        elif op is Opcode.HARDEXC:
            if self.mechanism is not None:
                self.mechanism.on_hardexc(uop, now)
        elif op is Opcode.HALT:
            thread.halted = True

        if uop.is_handler:
            thread.retired_handler += 1
            self.stats.retired_handler += 1
        else:
            thread.retired_user += 1
            self.stats.retired_user += 1

        if self.faults is not None:
            self.faults.on_retire(thread, uop, now)

    # ------------------------------------------------------------------
    # Checkpoint support.
    # ------------------------------------------------------------------
    def drain_in_flight(self, now: int) -> None:
        """Squash every in-flight instruction and cancel exception work.

        Warm-checkpoint quiesce: after this the machine holds only
        *architectural* state (registers, memory, committed TLB entries,
        caches, predictor tables) plus empty pipeline structures, so a
        snapshot taken here can be restored under any exception
        mechanism.  Threads resume fetching at the architecturally
        correct PC; a thread caught mid-trap-handler rewinds via the
        mechanism's :meth:`drain_resume_pc`.  Consumes zero simulated
        cycles (counters such as ``stats.squashed`` do move, which is
        why warm measurements are always taken as deltas).
        """
        # Pre-scan: the BPU is shared, so collect the globally oldest
        # squashable branch checkpoint before any squash cascades run.
        restore_cp = None
        restore_seq = _FAR_FUTURE
        plans: list[tuple[ThreadContext, bool, int]] = []
        for thread in self.threads:
            for uop in thread.rob:
                if uop.checkpoint is not None and uop.seq < restore_seq:
                    restore_seq = uop.seq
                    restore_cp = uop.checkpoint
                    break
            if thread.state is ThreadState.NORMAL:
                handler_active = thread.fetch_priv or any(
                    u.is_handler for u in thread.rob
                )
                oldest_pc = thread.rob[0].pc if thread.rob else thread.pc
                plans.append((thread, handler_active, oldest_pc))
        for thread, handler_active, oldest_pc in plans:
            # Squashing the master's tail cascades into any linked
            # exception threads via the mechanism's on_uop_squashed.
            self.squash_all(thread, now)
            if handler_active and self.mechanism is not None:
                thread.pc = self.mechanism.drain_resume_pc(thread)
            else:
                thread.pc = oldest_pc
            thread.fetch_priv = False
            thread.fetch_stall_until = now
            thread.fetch_wait_uop = None
            thread.fetch_done = False
            thread.overfetch_after_reti = False
        if restore_cp is not None:
            self.bpu.restore_checkpoint(restore_cp)
        if self.mechanism is not None:
            self.mechanism.drain(now)
        # No in-flight handler can confirm a speculative fill any more.
        self.dtlb.rollback_all_speculative()
        if self.itlb is not None:
            self.itlb.rollback_all_speculative()
        # Only squashed uops can remain queued; drop them.
        self._wake_buckets.clear()
        self._retry.clear()
        if len(self.window) or self.window.occupancy:
            raise RuntimeError("drain left the instruction window occupied")

    #: Rebuilt from MachineConfig / wiring at construction, or rebound by
    #: attach(): not part of the snapshot.
    _SNAPSHOT_TRANSIENT = (
        "config", "memory", "hierarchy", "dtlb", "itlb", "page_table", "bpu",
        "mechanism", "_l1_latency", "_fetch_latency", "_icount_chooser",
        "_pt_base", "_ifetch", "listeners", "_sanitizer", "_mech_tick",
        "_mech_ports", "_mech_fetch_idle",
    )

    def snapshot_state(self, ctx) -> dict:
        """Encode core state; uop references register with ``ctx``."""
        if self._exec_heap is not None or self._exec_seq != -1:
            raise RuntimeError(
                "core snapshot is only defined between step() boundaries"
            )
        return {
            "cycle": self.cycle,
            "next_seq": self._next_seq,
            "activity": self._activity,
            "stats": dataclasses.asdict(self.stats),
            "pal_entries": dict(self.pal_entries),
            "handler_lengths": dict(self.handler_lengths),
            "threads": [t.snapshot_state(ctx) for t in self.threads],
            "window": self.window.snapshot_state(ctx),
            "wake_buckets": [
                [cyc, [ctx.uop_ref(u) for u in self._wake_buckets[cyc]]]
                for cyc in sorted(self._wake_buckets)
            ],
            "retry": [ctx.uop_ref(u) for u in self._retry],
            "faults": (
                self.faults.snapshot_state(ctx)
                if self.faults is not None
                else None
            ),
        }

    def restore_state(self, state: dict, ctx) -> None:
        """Second restore phase: uops already exist in ``ctx``."""
        self.cycle = state["cycle"]
        self._next_seq = state["next_seq"]
        self._activity = state["activity"]
        # .get(): snapshots written before a counter existed restore with
        # that counter at its fresh default (zero / empty dict).
        for f in dataclasses.fields(self.stats):
            if f.name in state["stats"]:
                setattr(self.stats, f.name, state["stats"][f.name])
        self.pal_entries = dict(state["pal_entries"])
        self.handler_lengths = dict(state["handler_lengths"])
        if len(state["threads"]) != len(self.threads):
            raise ValueError(
                f"snapshot has {len(state['threads'])} thread contexts, "
                f"core has {len(self.threads)}"
            )
        for thread, tstate in zip(self.threads, state["threads"]):
            thread.restore_state(tstate, ctx)
        self.window.restore_state(state["window"], ctx)
        self._wake_buckets = {
            cyc: [ctx.resolve_uop(s) for s in seqs]
            for cyc, seqs in state["wake_buckets"]
        }
        self._retry = [ctx.resolve_uop(s) for s in state["retry"]]
        # Older checkpoints predate the fault injector; a snapshot taken
        # with faults off restores cleanly into a faulted machine (the
        # injector simply starts its streams from zero).
        fault_state = state.get("faults")
        if fault_state is not None and self.faults is not None:
            self.faults.restore_state(fault_state, ctx)
        self._exec_heap = None
        self._exec_seq = -1
