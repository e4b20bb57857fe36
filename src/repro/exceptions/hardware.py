"""The hardware TLB miss handler (FSM page walker) -- the paper's
aggressive baseline.

No instructions are fetched: a finite-state machine walks the page table
directly.  Per the paper's Section 5.1 description it

* requires memory-system bandwidth: each walk's PTE load must win a
  load/store port (leftover port capacity is offered by the core each
  cycle) and then travels through the cache hierarchy like any load;
* can handle multiple misses in parallel (``walker_entries`` concurrent
  walks, with secondary misses to an in-flight page merged);
* **speculatively fills the TLB** if the faulting instruction hasn't
  been squashed by the time the translation is computed -- fills are
  installed as committed entries immediately, which is what lets
  wrong-path misses pollute the TLB (the gcc anomaly);
* falls back to a traditional software trap when the walk finds an
  invalid PTE (page fault).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions.base import ExceptionInstance, ExceptionMechanism
from repro.exceptions.traditional import TraditionalMechanism
from repro.memory.page_table import pte_valid, pte_pfn
from repro.pipeline.uop import Uop, UopState


@dataclass
class _Walk:
    """One in-flight page walk."""

    instance: ExceptionInstance
    pte_addr: int
    port_granted: bool = False
    completion: int = -1


class HardwareWalkerMechanism(ExceptionMechanism):
    """Finite-state-machine page walking."""

    name = "hardware"

    def __init__(
        self,
        walker_entries: int | None = None,
        walker_latency: int | None = None,
    ) -> None:
        super().__init__()
        self._walker_entries = walker_entries
        #: FSM sequencing overhead per walk (state transitions plus the
        #: virtually-mapped page table's nested lookup on Alpha-style
        #: machines); added on top of the PTE load's cache latency.
        self._walker_latency = walker_latency
        self._walks: dict[int, _Walk] = {}  # vpn -> walk
        self._overflow: list[Uop] = []  # misses waiting for a walker slot

    def attach(self, core) -> None:
        """Bind to the core; resolve walker parameters from config."""
        super().attach(core)
        if self._walker_entries is None:
            self._walker_entries = core.config.walker_entries
        if self._walker_latency is None:
            self._walker_latency = core.config.walker_latency
        self.traditional = TraditionalMechanism()
        self.traditional.attach(core)
        self.traditional.stats = self.stats

    # ------------------------------------------------------------------
    def on_dtlb_miss(self, uop: Uop, va: int, vpn: int, now: int) -> None:
        """Start (or merge into) a page walk; queue on walker overflow."""
        self.stats.misses_seen += 1
        walk = self._walks.get(vpn)
        if walk is not None:
            self.stats.secondary_merges += 1
            walk.instance.waiters.append(uop)
            uop.waiting_fill = vpn
            return
        if len(self._walks) >= self._walker_entries:
            # All walkers busy: the miss retries once a walker frees up.
            uop.waiting_fill = vpn
            self._overflow.append(uop)
            return
        self._start_walk(uop, va, vpn, now)

    def _start_walk(self, uop: Uop, va: int, vpn: int, now: int) -> None:
        self.stats.walks_started += 1
        instance = ExceptionInstance(vpn=vpn, va=va, master_uop=uop)
        instance.spawn_cycle = now
        self._emit_spawn(instance, uop.thread_id, "walk", now)
        uop.waiting_fill = vpn
        self._walks[vpn] = _Walk(
            instance=instance, pte_addr=self.core.page_table.pte_address(vpn)
        )

    # ------------------------------------------------------------------
    def service_mem_ports(self, now: int, free_ports: int) -> int:
        """Grant leftover load/store ports to waiting walks (the walker
        competes with normal instruction execution for cache ports)."""
        used = 0
        for walk in self._walks.values():
            if used >= free_ports:
                break
            if not walk.port_granted:
                walk.port_granted = True
                walk.completion = (
                    self.core.hierarchy.load(walk.pte_addr, now)
                    + self._walker_latency
                )
                used += 1
        return used

    def tick(self, now: int) -> None:
        """Complete finished walks and drain the overflow queue."""
        finished = [
            vpn
            for vpn, walk in self._walks.items()
            if walk.port_granted and walk.completion <= now
        ]
        for vpn in finished:
            walk = self._walks.pop(vpn)
            self._complete_walk(walk, now)
        if self._overflow and len(self._walks) < self._walker_entries:
            self._drain_overflow(now)

    def _complete_walk(self, walk: _Walk, now: int) -> None:
        self.stats.walks_completed += 1
        core = self.core
        instance = walk.instance
        pte = int(core.memory.read_word(walk.pte_addr))
        survivors = [
            u
            for u in [instance.master_uop, *instance.waiters]
            if u is not None and u.state != UopState.SQUASHED
        ]
        master = instance.master_uop
        walk_tid = master.thread_id if master is not None else -1
        if not survivors:
            # Everything that wanted this page died: drop the fill.
            self.stats.walks_dropped += 1
            self._emit_splice(instance, walk_tid, "dropped", now)
            return
        if not pte_valid(pte):
            # Page fault: revert to a traditional software trap for the
            # oldest surviving faulter.
            self.stats.page_faults += 1
            oldest = min(survivors, key=lambda u: u.seq)
            thread = core.threads[oldest.thread_id]
            self._emit_splice(instance, walk_tid, "fault", now)
            self.traditional.trap(thread, oldest, instance.va, now)
            for uop in survivors:
                uop.waiting_fill = None
                core.wake_uop(uop)
            return
        core.dtlb.fill(instance.vpn, pte_pfn(pte), speculative=False)
        self.stats.committed_fills += 1
        instance.filled = True
        instance.fill_cycle = now
        self._emit_splice(instance, walk_tid, "walk", now)
        for uop in survivors:
            uop.waiting_fill = None
            core.wake_uop(uop)

    def _drain_overflow(self, now: int) -> None:
        still_waiting: list[Uop] = []
        for uop in self._overflow:
            if uop.state == UopState.SQUASHED:
                continue
            if len(self._walks) >= self._walker_entries:
                still_waiting.append(uop)
                continue
            vpn = uop.waiting_fill
            walk = self._walks.get(vpn)
            if walk is not None:
                walk.instance.waiters.append(uop)
            else:
                va = uop.eff_addr if uop.eff_addr is not None else 0
                self._start_walk(uop, va, vpn, now)
        self._overflow = still_waiting

    def inject_handler_fault(self, now: int) -> str | None:
        """Fault the oldest in-flight page walk: abort and re-raise.

        Models a detected walker FSM fault: the walk (and its granted
        port) is thrown away and every surviving faulter re-issues, so
        the miss re-raises and a fresh walk starts -- the same retry
        discipline as the multithreaded reclaim.  Falls back to faulting
        a traditional page-fault trap when no walk is in flight.

        Each master's walk is aborted at most once (the retry starts a
        *new* walk, so the guard keys on the master's sequence number):
        short injection periods would otherwise abort every retried
        walk and livelock the machine.
        """
        core = self.core
        refaulted = getattr(self, "_refaulted_masters", None)
        if refaulted is None:
            refaulted = self._refaulted_masters = set()
        vpn = None
        for candidate in self._walks:
            master = self._walks[candidate].instance.master_uop
            if master is not None and master.seq in refaulted:
                continue  # once per master: guarantees forward progress
            vpn = candidate
            break
        if vpn is not None:
            walk = self._walks.pop(vpn)
            instance = walk.instance
            if instance.master_uop is not None:
                refaulted.add(instance.master_uop.seq)
            self.stats.walks_dropped += 1
            master = instance.master_uop
            walk_tid = master.thread_id if master is not None else -1
            instance.squashed = True
            self._emit_splice(instance, walk_tid, "dropped", now)
            for uop in [master, *instance.waiters]:
                if uop is not None and uop.state != UopState.SQUASHED:
                    uop.waiting_fill = None
                    core.wake_uop(uop)
            return f"aborted page walk for vpn {vpn:#x}"
        return self.traditional.inject_handler_fault(now)

    def next_event_cycle(self, now: int) -> int:
        """Next autonomous walker action: a port grant (imminent -- block
        fast-forward) or the earliest in-flight walk completion.

        Overflow with a free walker slot also blocks fast-forward; with
        all slots busy it drains at some walk's completion, which the
        minimum below already covers.
        """
        nxt = 1 << 60
        for walk in self._walks.values():
            if not walk.port_granted:
                return now
            if walk.completion < nxt:
                nxt = walk.completion
        if self._overflow and len(self._walks) < self._walker_entries:
            return now
        return nxt

    _SNAPSHOT_TRANSIENT = ()

    def drain(self, now: int) -> None:
        """Abandon in-flight walks and queued misses; every uop that was
        waiting on them has been squashed by the core."""
        self.traditional.drain(now)
        self._walks.clear()
        self._overflow.clear()

    def drain_resume_pc(self, thread) -> int:
        return self.traditional.drain_resume_pc(thread)

    # ------------------------------------------------------------------
    def on_emulation(self, uop: Uop, src_value: int, now: int) -> None:
        """No hardware emulates instructions: trap traditionally."""
        # No hardware emulates instructions: trap traditionally.
        self.traditional.on_emulation(uop, src_value, now)

    def on_itlb_miss(self, thread, pc: int, now: int) -> None:
        """The walker is a data-side FSM: fetch misses trap traditionally."""
        self.traditional.on_itlb_miss(thread, pc, now)

    def on_unaligned(self, uop: Uop, addr: int, now: int) -> None:
        """No hardware fixes up alignment: trap traditionally."""
        self.traditional.on_unaligned(uop, addr, now)

    def on_tlbwr(self, uop: Uop, va: int, pte: int, now: int) -> None:
        """Handler software only runs on the traditional fallback."""
        # Only the traditional fallback path executes handler software.
        self.traditional.on_tlbwr(uop, va, pte, now)

    def on_hardexc(self, uop: Uop, now: int) -> None:
        """Delegate to the traditional fallback."""
        self.traditional.on_hardexc(uop, now)

    def on_reti_executed(self, uop: Uop, now: int) -> None:
        """Delegate to the traditional fallback."""
        self.traditional.on_reti_executed(uop, now)

    def on_reti_retired(self, uop: Uop, now: int) -> None:
        """Delegate to the traditional fallback."""
        self.traditional.on_reti_retired(uop, now)

    def on_uop_squashed(self, uop: Uop, now: int) -> None:
        """Drop squashed misses from the overflow queue."""
        self.traditional.on_uop_squashed(uop, now)
        if uop in self._overflow:
            self._overflow.remove(uop)
