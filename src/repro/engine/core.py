"""A dispatch-fused :class:`SMTCore`: the ``fused`` kernel.

:class:`FusedSMTCore` is the cycle kernel a cell runs on by default
(``REPRO_ENGINE=fused``, see :mod:`repro.engine`); a ``Simulator``
built directly keeps the reference core.  It is the *same machine* as
:class:`repro.pipeline.core.SMTCore` -- same stages, same budgets, same
event scheduler, same stats -- with the per-cycle Python dispatch
overhead fused away.  :meth:`run_to` is one flat loop whose body is a
line-for-line transcription of the reference stage bodies (retire,
execute, decode, fetch, in that order) with:

* every loop-invariant object -- bound methods, config knobs, cache
  internals, FU capacities -- hoisted into locals *once per run*
  instead of re-bound every cycle / every stage call;
* the watch predicate re-evaluated only when a retirement counter
  moved (it depends solely on ``halted`` / ``retired_user`` /
  ``state`` of the watched threads, all of which change only inside
  ``_do_retire``, which always bumps the retirement counters -- the
  gate is exact, not heuristic);
* one ``_fetch_priority`` computation per cycle shared by decode and
  fetch, recomputed between them iff decode squashed or discarded
  something (the only decode-time paths that move thread states or ROB
  depths, and both bump a stats counter);
* the issue fast paths (integer ALU, branch, memory) dispatched
  directly on ``exec_kind`` with operands read inline -- everything
  else falls back to the reference ``_issue``;
* the L1-I clean-hit path inlined (stats, LRU clock, and last-use
  updates transcribed from ``Cache.access``; any miss or outstanding
  MSHR falls back to the full access method);
* the cyclic garbage collector paused for the duration of the loop
  (uops allocate in bursts; collection is pure memory management with
  zero simulated-state footprint, so deferring it cannot change
  results).

Every state transition, counter update, and stall decision matches the
reference paths bit-for-bit, which is what the kernel equivalence
suite (``tests/engine/test_equivalence.py``) and ``repro-fuzz --engine-diff`` hold it to: identical
``arch_digest`` and ``SimStats`` for every mechanism on every workload.

When an observability bus is attached the kernel falls back to the
reference stage bodies: bus listeners fire mid-stage and may observe
``thread.pc`` / ``stats.fetched`` / issue events, which the fused loop
holds in locals or elides.  (The sanitizer needs no fallback -- its
hooks fire at window insert and retire, which the fused loop reaches
through the same shared helpers.)
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop

from repro.isa.instructions import (
    EK_BRANCH,
    EK_INT_ALU,
    SRC_FP,
    SRC_IMM,
    SRC_INT,
    Opcode,
)
from repro.isa.registers import PrivReg
from repro.isa.semantics import compute_int
from repro.memory.address import vpn_of
from repro.pipeline.core import _FAR_FUTURE, SMTCore
from repro.pipeline.thread import ThreadState
from repro.pipeline.uop import Uop, UopState

__all__ = ["FusedSMTCore"]

_FU_GROUPS = ("alu", "muldiv", "fp", "fpdiv", "mem")


class FusedSMTCore(SMTCore):
    """Reference core with the per-cycle dispatch overhead fused away."""

    # The fused loops never emit bus-listener events: every entry point
    # (run_to, step's _decode_fetch, squash_from) falls back to the
    # reference stages whenever ``self.listeners is not None``, so the
    # emission sites are provably unreachable from fused code.  The
    # parity pass (repro-lint parity) verifies each elision below still
    # corresponds to a real reference-only fact.
    # parity: elided(listeners.fetch, fused paths bail to reference stages when listeners attached)
    # parity: elided(listeners.issue, fused paths bail to reference stages when listeners attached)
    # parity: elided(listeners.retire, fused paths bail to reference stages when listeners attached)
    # parity: elided(listeners.squash, fused paths bail to reference stages when listeners attached)

    def step(self) -> None:
        now = self.cycle
        self._activity = False
        if self._mech_tick is not None:
            self._mech_tick(now)
        self._retire(now)
        self._execute(now)
        self._decode_fetch(now)
        self.cycle = now + 1
        self.stats.cycles = now + 1

    # ------------------------------------------------------------------
    # Stage pair used by step(); run_to() inlines all of this.
    # ------------------------------------------------------------------
    def _decode_fetch(self, now: int) -> None:
        if self.listeners is not None:
            # Bus listeners fire mid-stage and may read state the fused
            # loops keep in locals; give them the reference stages.
            self._decode(now)
            self._fetch(now)
            return
        stats = self.stats
        squashed0 = stats.squashed
        discarded0 = stats.overfetch_discarded
        prio = self._fetch_priority()
        self._decode_prio(now, prio)
        if (
            stats.squashed != squashed0
            or stats.overfetch_discarded != discarded0
        ):
            # Decode squashed or discarded something: thread states /
            # ROB depths may have moved, so the fetch order must too.
            prio = self._fetch_priority()
        self._fetch_prio(now, prio)

    def _decode_prio(self, now: int, prio) -> None:
        """``_decode`` against a precomputed priority order."""
        config = self.config
        budget = config.width
        limits = config.limits
        free_handler_decode = limits.no_fetch_bandwidth
        no_window_overhead = limits.no_window_overhead
        sched_delay = config.decode_latency + config.post_insert_delay
        window = self.window
        stats = self.stats
        admit = self._admit
        rename = self._rename
        insert = window.insert
        schedule = self._schedule_uop
        reti = Opcode.RETI
        squashed_state = UopState.SQUASHED
        window_state = UopState.WINDOW
        for thread in prio:
            buf = thread.fetch_buffer
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
                    uop.state = squashed_state
                    stats.overfetch_discarded += 1
                    self._activity = True
                    if not handler_free:
                        budget -= 1
                    continue
                if not uop.is_handler:
                    if (
                        window._occupancy + window._reserved_total
                        >= window.capacity
                    ):
                        break
                elif not admit(thread, uop, now):
                    break
                buf.popleft()
                if uop.inst.op is reti and is_exc:
                    thread.fetch_done = True
                    thread.overfetch_after_reti = False
                rename(thread, uop)
                if no_window_overhead and uop.is_handler:
                    uop.free_slot = True
                insert(uop, exc_id)
                uop.insert_cycle = now
                uop.min_sched_cycle = now + sched_delay
                uop.state = window_state
                schedule(uop)
                self._activity = True
                if not handler_free:
                    budget -= 1
            if budget <= 0 and not free_handler_decode:
                break

    def _fetch_prio(self, now: int, prio) -> None:
        """``_fetch`` with ``_fetch_one`` inlined, against ``prio``."""
        config = self.config
        width = config.width
        budget = width
        free_handler_fetch = config.limits.no_fetch_bandwidth
        predict_handler_length = config.predict_handler_length
        ifetch = self._ifetch
        l1_limit = now + self._l1_latency
        fetch_latency = self._fetch_latency
        bpu_predict = self.bpu.predict
        faults = self.faults
        stats = self.stats
        itlb = self.itlb
        mechanism = self.mechanism
        halt = Opcode.HALT
        reti = Opcode.RETI
        exception = ThreadState.EXCEPTION
        seq = self._next_seq
        for thread in prio:
            handler_free = free_handler_fetch and thread.state is exception
            if budget <= 0 and not handler_free:
                continue
            if not thread.can_fetch(now):
                continue
            buf = thread.fetch_buffer
            cap = thread.fetch_buffer_size
            per_thread = width
            tid = thread.tid
            rob = thread.rob
            insts = thread.program.insts
            n_insts = len(insts)
            # Loop-invariant thread fields (nothing inside a thread's own
            # fetch loop mutates them except the RETI-overfetch path,
            # which updates both the local and the field).
            fetch_priv = thread.fetch_priv
            is_exc = thread.state is exception
            overfetch = thread.overfetch_after_reti
            pc = thread.pc
            while per_thread > 0 and (budget > 0 or handler_free) and len(buf) < cap:
                if pc < 0 or pc >= n_insts:
                    thread.fetch_stall_until = _FAR_FUTURE
                    break
                inst = insts[pc]
                if inst.privileged and not fetch_priv:
                    thread.fetch_stall_until = _FAR_FUTURE
                    break
                if (
                    itlb is not None
                    and not fetch_priv
                    and itlb.lookup(vpn_of(pc * 4)) is None
                ):
                    stats.itlb_miss_events += 1
                    self._activity = True
                    # The mechanism may redirect this thread (traditional
                    # trap) and may allocate uops of its own (quickstart
                    # materializes a prefetched handler image): sync the
                    # cached pc AND seq counter around the hook.
                    thread.pc = pc
                    if mechanism is not None:
                        self._next_seq = seq
                        mechanism.on_itlb_miss(thread, pc, now)
                        seq = self._next_seq
                    pc = thread.pc
                    break
                ready = ifetch(pc * 4, now)
                if ready > l1_limit:
                    thread.fetch_stall_until = ready
                    break
                uop = Uop(seq, tid, pc, inst)
                seq += 1
                uop.fetch_cycle = now
                uop.avail_cycle = now + fetch_latency
                uop.is_handler = inst.privileged
                if overfetch:
                    uop.discard = True
                rob.append(uop)
                buf.append(uop)
                stats.fetched += 1
                self._activity = True
                op = inst.op
                if op is halt:
                    thread.fetch_wait_uop = uop
                    break
                if inst.is_branch:
                    pred = bpu_predict(pc, inst)
                    uop.checkpoint = pred.checkpoint
                    uop.pred_taken = pred.taken
                    uop.pred_target = pred.target
                    if faults is not None and inst.is_cond_branch:
                        faults.poison_branch(uop, now)
                    if op is reti:
                        if is_exc:
                            if predict_handler_length:
                                thread.fetch_done = True
                                break
                            thread.overfetch_after_reti = True
                            overfetch = True
                            pc += 1
                            per_thread -= 1
                            if not handler_free:
                                budget -= 1
                            continue
                        thread.fetch_wait_uop = uop
                        break
                    pc = uop.pred_target if uop.pred_taken else pc + 1
                else:
                    pc += 1
                per_thread -= 1
                if not handler_free:
                    budget -= 1
            thread.pc = pc
        self._next_seq = seq
        if budget > 0 and self._mech_fetch_idle is not None:
            used = self._mech_fetch_idle(now, budget)
            if used:
                budget -= used
                self._activity = True

    # ------------------------------------------------------------------
    # Squash (reference squash_from with _squash_uop inlined; squashes
    # walk the ROB tail youngest-first, so this is the recovery hot
    # path on mispredict-heavy workloads).
    # ------------------------------------------------------------------
    def squash_from(self, thread, boundary_seq, now):
        if self.listeners is not None:
            return super().squash_from(thread, boundary_seq, now)
        rob = thread.rob
        if not rob or rob[-1].seq <= boundary_seq:
            # Nothing younger than the boundary; only the wait-uop
            # release below can apply.
            squashed = 0
        else:
            window_remove = self.window.remove
            mechanism = self.mechanism
            window_state = UopState.WINDOW
            fetch_buf_state = UopState.FETCH_BUF
            squashed_state = UopState.SQUASHED
            buf = thread.fetch_buffer
            store_queue = thread.store_queue
            squashed = 0
            while rob and rob[-1].seq > boundary_seq:
                victim = rob.pop()
                state = victim.state
                if state == window_state:
                    window_remove(victim)
                elif state == fetch_buf_state:
                    if buf:
                        if buf[-1] is victim:
                            buf.pop()
                        else:
                            try:
                                buf.remove(victim)
                            except ValueError:
                                pass
                victim.state = squashed_state
                if victim.inst.is_store:
                    if store_queue:
                        if store_queue[-1] is victim:
                            store_queue.pop()
                        elif victim in store_queue:
                            store_queue.remove(victim)
                if mechanism is not None:
                    mechanism.on_uop_squashed(victim, now)
                squashed += 1
            thread.rebuild_rename_maps()
            self.stats.squashed += squashed
            self._activity = True
        if thread.fetch_wait_uop is not None and (
            thread.fetch_wait_uop.state == UopState.SQUASHED
        ):
            thread.fetch_wait_uop = None
        return squashed

    # ------------------------------------------------------------------
    # The fused cycle loop.
    # ------------------------------------------------------------------
    def run_to(self, watch, stop_cycle):
        if self.listeners is not None:
            return super().run_to(watch, stop_cycle)
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            # Uops allocate in bursts; collection is pure memory
            # management with no simulated-state footprint, so pausing
            # it for the loop cannot change results.
            gc.disable()
        try:
            return self._run_to_fused(watch, stop_cycle)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_to_fused(self, watch, stop_cycle):
        # ---- loop-invariant hoists (one binding per *run*, not per
        # cycle): anything rebound here is construction-time wiring.
        config = self.config
        fast_forward = config.fast_forward
        width = config.width
        limits = config.limits
        free_handler_band = limits.no_fetch_bandwidth
        no_window_overhead = limits.no_window_overhead
        free_handler_exec = limits.no_execute_bandwidth
        handler_fetch_priority = config.handler_fetch_priority
        predict_handler_length = config.predict_handler_length
        sched_delay = config.decode_latency + config.post_insert_delay
        icount = self._icount_chooser
        fetch_latency = self._fetch_latency
        l1_latency = self._l1_latency
        stats = self.stats
        threads = self.threads
        window = self.window
        bpu_predict = self.bpu.predict
        faults = self.faults
        mech_tick = self._mech_tick
        mech_ports = self._mech_ports
        mech_fetch_idle = self._mech_fetch_idle
        pool = config.fu_pool
        pool_mem = pool.mem
        fu_caps = {group: pool.capacity(group) for group in _FU_GROUPS}
        admit = self._admit
        schedule_uop = self._schedule_uop
        issue = self._issue
        issue_mem = self._issue_mem
        issue_branch = self._issue_branch
        load_ordering_ok = self._load_ordering_ok
        older_all_issued = self._older_all_issued
        next_event = self._next_event
        wake_buckets = self._wake_buckets
        wake_pop = wake_buckets.pop
        retry = self._retry
        retry_append = retry.append
        # L1-I clean-hit fast path internals (see Cache.access).
        l1i = self.hierarchy.l1i
        l1i_sets = l1i._sets
        l1i_mshrs = l1i._mshrs
        l1i_stats = l1i.stats
        l1i_shift = l1i.line_shift
        l1i_mask = l1i.set_mask
        ifetch = self._ifetch
        itlb = self.itlb
        rob_icount_key = _rob_icount_key
        # Retire / rename internals (see _do_retire / _rename / the
        # window and scheduler helpers this loop transcribes).
        sanitizer = self._sanitizer
        mechanism = self.mechanism
        pt_base = self._pt_base
        write_word = self.memory.write_word
        bpu_train = self.bpu.train
        win_sanitizer = window.sanitizer
        win_uops = window._uops
        win_reservations = window._reservations
        uop_new = Uop.__new__
        halt_op = Opcode.HALT
        reti_op = Opcode.RETI
        mtdst_op = Opcode.MTDST
        hardexc_op = Opcode.HARDEXC
        exc_dst_reg = PrivReg.EXC_DST
        src_int = SRC_INT
        src_fp = SRC_FP
        src_imm = SRC_IMM
        ek_int_alu = EK_INT_ALU
        ek_branch = EK_BRANCH
        idle = ThreadState.IDLE
        normal = ThreadState.NORMAL
        exception = ThreadState.EXCEPTION
        fetch_buf_state = UopState.FETCH_BUF
        window_state = UopState.WINDOW
        squashed_state = UopState.SQUASHED
        retired_state = UopState.RETIRED

        # Force the first iteration to evaluate the watch (seed
        # semantics: targets are checked before any step runs).
        last_retired = -1
        while self.cycle < stop_cycle:
            retired = stats.retired_user + stats.retired_handler
            if retired != last_retired:
                last_retired = retired
                for thread, target in watch:
                    if (
                        not thread.halted
                        and thread.retired_user < target
                        and thread.state is normal
                    ):
                        break
                else:
                    return True
            now = self.cycle
            self._activity = False
            if mech_tick is not None:
                mech_tick(now)

            # ---- retire (reference _retire with _do_retire and
            # window.remove inlined; listeners are None on this path,
            # the sanitizer hook stays) ----
            progress = True
            while progress:
                progress = False
                for thread in threads:
                    state = thread.state
                    if state is idle:
                        continue
                    rob = thread.rob
                    if not rob:
                        continue
                    head = rob[0]
                    if not head.issued or head.finish_cycle > now:
                        continue
                    if head.state != window_state:
                        continue
                    if state is exception:
                        master_uop = thread.master_uop
                        if master_uop is not None:
                            master = threads[thread.master_tid]
                            if not master.rob or master.rob[0] is not master_uop:
                                continue
                    elif head.linked_handler is not None:
                        continue
                    if sanitizer is not None:
                        sanitizer.on_retire(thread, head, now)
                    rob.popleft()
                    if head in win_uops:
                        win_uops.remove(head)
                        if not head.free_slot:
                            window._occupancy -= 1
                    head.state = retired_state
                    self._activity = True
                    inst = head.inst
                    op = inst.op
                    kind = inst.dest_kind
                    if kind == src_fp:
                        reg = inst.dest_idx
                        if head.value is not None:
                            thread.arch.write_fp(reg, head.value)
                        if thread.fp_map[reg] is head:
                            thread.fp_map[reg] = None
                    elif kind == src_int:
                        reg = inst.dest_idx
                        if head.value is not None:
                            thread.arch.write_int(reg, int(head.value))
                        if thread.int_map[reg] is head:
                            thread.int_map[reg] = None
                    elif head.dyn_dest is not None:
                        thread.arch.write_int(head.dyn_dest, int(head.value))
                        if thread.int_map[head.dyn_dest] is head:
                            thread.int_map[head.dyn_dest] = None
                    if inst.is_store:
                        write_word(head.eff_addr, head.value)
                        queue = thread.store_queue
                        if queue:
                            if queue[0] is head:
                                del queue[0]
                            elif head in queue:
                                queue.remove(head)
                        if mechanism is not None and head.eff_addr >= pt_base:
                            mechanism.on_store_retired(head.eff_addr, now)
                    elif inst.is_branch and op is not reti_op:
                        bpu_train(
                            head.pc,
                            inst,
                            head.checkpoint,
                            head.actual_taken,
                            head.actual_target,
                            head.pred_taken,
                            head.pred_target,
                        )
                    elif op is reti_op:
                        if mechanism is not None:
                            mechanism.on_reti_retired(head, now)
                    elif op is hardexc_op:
                        if mechanism is not None:
                            mechanism.on_hardexc(head, now)
                    elif op is halt_op:
                        thread.halted = True
                    if head.is_handler:
                        thread.retired_handler += 1
                        stats.retired_handler += 1
                    else:
                        thread.retired_user += 1
                        stats.retired_user += 1
                    if faults is not None:
                        faults.on_retire(thread, head, now)
                    progress = True

            # ---- execute (reference _execute; issue fast paths
            # dispatched inline on exec_kind) ----
            entries = wake_pop(now, None)
            if retry:
                if entries is None:
                    entries = []
                entries.extend(retry)
                retry.clear()
            if not entries:
                if mech_ports is not None and pool_mem > 0:
                    if mech_ports(now, pool_mem):
                        self._activity = True
            else:
                budget = width
                fu_used = {"alu": 0, "muldiv": 0, "fp": 0, "fpdiv": 0, "mem": 0}
                heap = entries
                if len(heap) > 1:
                    heapify(heap)
                self._exec_heap = heap
                while heap:
                    uop = heappop(heap)
                    if budget <= 0 and not free_handler_exec:
                        retry_append(uop)
                        while heap:
                            retry_append(heappop(heap))
                        break
                    self._exec_seq = uop.seq
                    uop.scheduled = False
                    if uop.state != window_state or uop.issued:
                        continue
                    if uop.waiting_fill is not None:
                        continue
                    if uop.min_sched_cycle > now:
                        schedule_uop(uop)
                        continue
                    # Inline src_ready(now).
                    p = uop.src_a_uop
                    if p is not None and not (p.issued and p.finish_cycle <= now):
                        schedule_uop(uop)
                        continue
                    p = uop.src_b_uop
                    if p is not None and not (p.issued and p.finish_cycle <= now):
                        schedule_uop(uop)
                        continue
                    inst = uop.inst
                    if inst.is_load and not load_ordering_ok(uop, now):
                        retry_append(uop)
                        uop.scheduled = True
                        continue
                    if inst.op is reti_op and not older_all_issued(uop):
                        retry_append(uop)
                        uop.scheduled = True
                        continue
                    handler_free = free_handler_exec and uop.is_handler
                    group = inst.fu_group
                    if not handler_free and (
                        budget <= 0 or fu_used[group] >= fu_caps[group]
                    ):
                        retry_append(uop)
                        uop.scheduled = True
                        continue
                    self._activity = True
                    # Inline _issue's operand read + common dispatches;
                    # everything else takes the reference slow path.
                    kind = inst.exec_kind
                    if kind == ek_int_alu and not inst.is_mem:
                        p = uop.src_a_uop
                        a = p.value if p is not None else uop.src_a_value
                        p = uop.src_b_uop
                        b = p.value if p is not None else uop.src_b_value
                        uop.value = compute_int(
                            inst,
                            int(a) if a is not None else 0,
                            int(b) if b is not None else 0,
                        )
                        uop.issued = True
                        uop.issue_cycle = now
                        fin = now + inst.fu_latency0
                        uop.finish_cycle = fin
                        consumers = uop.consumers
                        if consumers is not None:
                            # producer_issued inlined.
                            uop.consumers = None
                            for c in consumers:
                                if fin > c.src_wake:
                                    c.src_wake = fin
                                c.wait_count -= 1
                                if (
                                    c.wait_count == 0
                                    and not c.scheduled
                                    and c.state == window_state
                                ):
                                    c.scheduled = True
                                    wake = c.src_wake
                                    if wake in wake_buckets:
                                        wake_buckets[wake].append(c)
                                    else:
                                        wake_buckets[wake] = [c]
                        ok = True
                    elif inst.is_mem:
                        p = uop.src_a_uop
                        a = p.value if p is not None else uop.src_a_value
                        p = uop.src_b_uop
                        b = p.value if p is not None else uop.src_b_value
                        ok = issue_mem(
                            uop,
                            threads[uop.thread_id],
                            inst,
                            a if a is not None else 0,
                            b if b is not None else 0,
                            now,
                        )
                    elif kind == ek_branch:
                        p = uop.src_a_uop
                        a = p.value if p is not None else uop.src_a_value
                        p = uop.src_b_uop
                        b = p.value if p is not None else uop.src_b_value
                        ok = issue_branch(
                            uop,
                            threads[uop.thread_id],
                            inst,
                            a if a is not None else 0,
                            b if b is not None else 0,
                            now,
                        )
                    else:
                        ok = issue(uop, now)
                    if ok and not handler_free:
                        fu_used[group] += 1
                        budget -= 1
                self._exec_heap = None
                self._exec_seq = -1
                if mech_ports is not None:
                    free_mem = pool_mem - fu_used["mem"]
                    if free_mem > 0:
                        if mech_ports(now, free_mem):
                            self._activity = True

            # ---- fetch priority (reference _fetch_priority) ----
            handlers = None
            apps = []
            for t in threads:
                s = t.state
                if s is normal:
                    apps.append(t)
                elif s is exception:
                    if handlers is None:
                        handlers = [t]
                    else:
                        handlers.append(t)
            if icount:
                if len(apps) > 1:
                    apps.sort(key=rob_icount_key)
            elif apps:
                offset = now % len(apps)
                apps = apps[offset:] + apps[:offset]
            if handlers is None:
                prio = apps
            elif not handler_fetch_priority:
                prio = apps + handlers
            else:
                prio = handlers + apps

            # ---- decode (reference _decode over the shared order) ----
            squashed0 = stats.squashed
            discarded0 = stats.overfetch_discarded
            budget = width
            for thread in prio:
                buf = thread.fetch_buffer
                is_exc = thread.state is exception
                handler_free = free_handler_band and is_exc
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
                        uop.state = squashed_state
                        stats.overfetch_discarded += 1
                        self._activity = True
                        if not handler_free:
                            budget -= 1
                        continue
                    if not uop.is_handler:
                        if (
                            window._occupancy + window._reserved_total
                            >= window.capacity
                        ):
                            break
                    elif not admit(thread, uop, now):
                        break
                    buf.popleft()
                    inst = uop.inst
                    if inst.op is reti_op and is_exc:
                        thread.fetch_done = True
                        thread.overfetch_after_reti = False
                    # _rename inlined.  The maps are re-read per uop:
                    # _admit can squash (rebuild_rename_maps reassigns
                    # them), so they are not loop-invariant here.
                    int_map = thread.int_map
                    fp_map = thread.fp_map
                    arch = thread.arch
                    kind = inst.src_a_kind
                    if kind == src_int:
                        reg = inst.src_a_idx
                        producer = int_map[reg]
                        if producer is not None:
                            uop.src_a_uop = producer
                        else:
                            uop.src_a_value = arch.read_int(reg)
                    elif kind == src_fp:
                        reg = inst.src_a_idx
                        producer = fp_map[reg]
                        if producer is not None:
                            uop.src_a_uop = producer
                        else:
                            uop.src_a_value = arch.read_fp(reg)
                    kind = inst.src_b_kind
                    if kind == src_int:
                        reg = inst.src_b_idx
                        producer = int_map[reg]
                        if producer is not None:
                            uop.src_b_uop = producer
                        else:
                            uop.src_b_value = arch.read_int(reg)
                    elif kind == src_imm:
                        uop.src_b_value = inst.imm0
                    elif kind == src_fp:
                        reg = inst.src_b_idx
                        producer = fp_map[reg]
                        if producer is not None:
                            uop.src_b_uop = producer
                        else:
                            uop.src_b_value = arch.read_fp(reg)
                    kind = inst.dest_kind
                    if kind == src_fp:
                        fp_map[inst.dest_idx] = uop
                    elif kind == src_int:
                        int_map[inst.dest_idx] = uop
                    elif inst.op is mtdst_op and thread.state is not exception:
                        dest = thread.priv_regs[exc_dst_reg]
                        if 0 < dest < 32:
                            uop.dyn_dest = dest
                            int_map[dest] = uop
                    if inst.is_store:
                        thread.store_queue.append(uop)
                    uop.renamed = True
                    if no_window_overhead and uop.is_handler:
                        uop.free_slot = True
                    # window.insert inlined.
                    if win_sanitizer is not None:
                        win_sanitizer.on_insert(window, uop)
                    win_uops.add(uop)
                    if not uop.free_slot:
                        occ = window._occupancy + 1
                        window._occupancy = occ
                        if occ > window.peak_occupancy:
                            window.peak_occupancy = occ
                    if exc_id is not None and win_reservations.get(exc_id, 0) > 0:
                        win_reservations[exc_id] -= 1
                        window._reserved_total -= 1
                    uop.insert_cycle = now
                    wake = now + sched_delay
                    uop.min_sched_cycle = wake
                    uop.state = window_state
                    # _schedule_uop inlined.
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
                        if wake in wake_buckets:
                            wake_buckets[wake].append(uop)
                        else:
                            wake_buckets[wake] = [uop]
                    self._activity = True
                    if not handler_free:
                        budget -= 1
                if budget <= 0 and not free_handler_band:
                    break
            if (
                stats.squashed != squashed0
                or stats.overfetch_discarded != discarded0
            ):
                # Decode squashed or discarded something: thread states
                # or ROB depths may have moved, so the fetch order must
                # be recomputed (reference _fetch computes its own).
                handlers = None
                apps = []
                for t in threads:
                    s = t.state
                    if s is normal:
                        apps.append(t)
                    elif s is exception:
                        if handlers is None:
                            handlers = [t]
                        else:
                            handlers.append(t)
                if icount:
                    if len(apps) > 1:
                        apps.sort(key=rob_icount_key)
                elif apps:
                    offset = now % len(apps)
                    apps = apps[offset:] + apps[:offset]
                if handlers is None:
                    prio = apps
                elif not handler_fetch_priority:
                    prio = apps + handlers
                else:
                    prio = handlers + apps

            # ---- fetch (reference _fetch with _fetch_one inlined) ----
            budget = width
            l1_limit = now + l1_latency
            seq = self._next_seq
            for thread in prio:
                state = thread.state
                handler_free = free_handler_band and state is exception
                if budget <= 0 and not handler_free:
                    continue
                # can_fetch(now) inlined (prio holds only NORMAL /
                # EXCEPTION threads, but a mid-cycle reclaim can idle
                # one, so the state check stays).
                if (
                    state is idle
                    or thread.halted
                    or thread.fetch_done
                    or thread.fetch_wait_uop is not None
                    or thread.fetch_stall_until > now
                    or thread.program is None
                ):
                    continue
                buf = thread.fetch_buffer
                cap = thread.fetch_buffer_size
                if len(buf) >= cap:
                    continue
                per_thread = width
                tid = thread.tid
                rob = thread.rob
                insts = thread.program.insts
                n_insts = len(insts)
                fetch_priv = thread.fetch_priv
                is_exc = state is exception
                overfetch = thread.overfetch_after_reti
                pc = thread.pc
                while (
                    per_thread > 0
                    and (budget > 0 or handler_free)
                    and len(buf) < cap
                ):
                    if pc < 0 or pc >= n_insts:
                        thread.fetch_stall_until = _FAR_FUTURE
                        break
                    inst = insts[pc]
                    if inst.privileged and not fetch_priv:
                        thread.fetch_stall_until = _FAR_FUTURE
                        break
                    if (
                        itlb is not None
                        and not fetch_priv
                        and itlb.lookup(vpn_of(pc * 4)) is None
                    ):
                        stats.itlb_miss_events += 1
                        self._activity = True
                        # The mechanism may redirect this thread
                        # (traditional trap) and may allocate uops of its
                        # own (quickstart materializes a prefetched
                        # handler image): sync the cached pc AND seq
                        # counter around the hook.
                        thread.pc = pc
                        if mechanism is not None:
                            self._next_seq = seq
                            mechanism.on_itlb_miss(thread, pc, now)
                            seq = self._next_seq
                        pc = thread.pc
                        break
                    # L1-I probe: hit fast path transcribed from
                    # Cache.access (stats, LRU clock, last-use, and the
                    # hit-under-miss MSHR merge); a miss takes the full
                    # method.  A clean hit completes at now + l1_latency
                    # (l1i is built with config.l1_latency, the same
                    # knob behind l1_limit), so it can never stall.
                    line_addr = (pc * 4) >> l1i_shift
                    line = l1i_sets[line_addr & l1i_mask].get(line_addr)
                    if line is not None:
                        l1i_stats.accesses += 1
                        l1i_stats.hits += 1
                        clock = l1i._use_clock + 1
                        l1i._use_clock = clock
                        line.last_use = clock
                        if l1i_mshrs:
                            # A hit returns now + l1_latency == l1_limit,
                            # so a merge (pending beyond that) always
                            # stalls the fetch.
                            pending = l1i_mshrs.get(line_addr)
                            if pending is not None and pending > l1_limit:
                                l1i_stats.mshr_merges += 1
                                thread.fetch_stall_until = pending
                                break
                    else:
                        ready = ifetch(pc * 4, now)
                        if ready > l1_limit:
                            thread.fetch_stall_until = ready
                            break
                    # Uop(seq, tid, pc, inst) inlined (__init__'s slot
                    # initialization transcribed, with the fetch-stage
                    # stamps folded in).  A drifted slot set fails loudly:
                    # a missing slot raises AttributeError on first read.
                    uop = uop_new(Uop)
                    uop.seq = seq
                    seq += 1
                    uop.thread_id = tid
                    uop.pc = pc
                    uop.inst = inst
                    uop.state = fetch_buf_state
                    uop.renamed = False
                    uop.fetch_cycle = now
                    uop.avail_cycle = now + fetch_latency
                    uop.insert_cycle = -1
                    uop.min_sched_cycle = -1
                    uop.issue_cycle = -1
                    uop.finish_cycle = -1
                    uop.issued = False
                    uop.pred_taken = False
                    uop.pred_target = None
                    uop.checkpoint = None
                    uop.actual_taken = False
                    uop.actual_target = None
                    uop.src_a_uop = None
                    uop.src_a_value = None
                    uop.src_b_uop = None
                    uop.src_b_value = None
                    uop.value = None
                    uop.eff_addr = None
                    uop.waiting_fill = None
                    uop.exc_instance = None
                    uop.linked_handler = None
                    uop.is_handler = inst.privileged
                    uop.free_slot = False
                    uop.quickstarted = False
                    uop.discard = overfetch
                    uop.dyn_dest = None
                    uop.wait_count = 0
                    uop.src_wake = -1
                    uop.consumers = None
                    uop.scheduled = False
                    rob.append(uop)
                    buf.append(uop)
                    stats.fetched += 1
                    self._activity = True
                    op = inst.op
                    if op is halt_op:
                        thread.fetch_wait_uop = uop
                        break
                    if inst.is_branch:
                        pred = bpu_predict(pc, inst)
                        uop.checkpoint = pred.checkpoint
                        uop.pred_taken = pred.taken
                        uop.pred_target = pred.target
                        if faults is not None and inst.is_cond_branch:
                            faults.poison_branch(uop, now)
                        if op is reti_op:
                            if is_exc:
                                if predict_handler_length:
                                    thread.fetch_done = True
                                    break
                                thread.overfetch_after_reti = True
                                overfetch = True
                                pc += 1
                                per_thread -= 1
                                if not handler_free:
                                    budget -= 1
                                continue
                            thread.fetch_wait_uop = uop
                            break
                        pc = uop.pred_target if uop.pred_taken else pc + 1
                    else:
                        pc += 1
                    per_thread -= 1
                    if not handler_free:
                        budget -= 1
                thread.pc = pc
            self._next_seq = seq
            if budget > 0 and mech_fetch_idle is not None:
                used = mech_fetch_idle(now, budget)
                if used:
                    budget -= used
                    self._activity = True

            # ---- advance the clock (reference step tail + run_to
            # fast-forward) ----
            now += 1
            self.cycle = now
            stats.cycles = now
            if fast_forward and not self._activity:
                nxt = next_event(now - 1)
                if nxt > now:
                    if nxt > stop_cycle:
                        nxt = stop_cycle
                    self.cycle = nxt
                    stats.cycles = nxt
        return False


def _rob_icount_key(thread):
    """ICOUNT chooser sort key (reference ``_fetch_priority``)."""
    return (len(thread.rob), thread.tid)
