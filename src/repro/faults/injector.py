"""The deterministic fault injector: seeded adversity for a live core.

Attached as ``core.faults`` when ``MachineConfig.faults`` (whose
default is the ``REPRO_FAULTS`` environment variable) holds a non-empty
spec; ``None`` otherwise, so a fault-free machine pays one
``is not None`` check per hook site and is bit-identical to a machine
built before this package existed (the ``listeners`` / ``_sanitizer``
pattern).

Every fault is **architecture-preserving**: it may add misses, squashes,
handler re-executions, or latency, but never changes the program's
retired register or data-memory state.  Corruption is therefore modeled
the way real hardware surfaces it -- as *detected* faults that force
re-handling (a parity-style entry drop, a cleared PTE valid bit that the
handler's page-in path repairs) -- never as silent wrong data.  See
``docs/ROBUSTNESS.md`` for the full taxonomy.

Schedules are driven by event counters (TLB lookups, retirements, load
issues, branch predictions), not cycle numbers, so they commute with the
idle-cycle fast-forward and fire identically under the serial and
parallel runners.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.config import FAULT_KINDS, FaultPlan, parse_faults, splitmix64
from repro.memory.address import vpn_of
from repro.memory.page_table import PTE_VALID, pte_valid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.core import SMTCore
    from repro.pipeline.thread import ThreadContext
    from repro.pipeline.uop import Uop

__all__ = ["FaultInjector"]

#: Salt distinguishing victim-selection hashes from schedule hashes.
_VICTIM_SALT = 0x5DEECE66D


class FaultInjector:
    """Perturb one :class:`SMTCore` on deterministic, seeded schedules.

    ``counts`` tallies *effective* injections per kind (a ``force_miss``
    that found nothing resident, or a ``handler_fault`` with no handler
    in flight, is a no-op and is not counted), which is what the tests
    and fuzz manifests assert against.
    """

    def __init__(self, core: "SMTCore", plan: FaultPlan | str) -> None:
        if isinstance(plan, str):
            plan = parse_faults(plan)
        self.core = core
        self.plan = plan
        self.seed = plan.seed
        #: kind -> trigger-stream events seen so far.
        self.events = {kind: 0 for kind in FAULT_KINDS}
        #: kind -> effective injections so far.
        self.counts = {kind: 0 for kind in FAULT_KINDS}
        self._rules = {rule.kind: rule for rule in plan.rules}
        self._phases = {
            rule.kind: rule.phase(plan.seed) for rule in plan.rules
        }

    # ------------------------------------------------------------------
    def _fire(self, kind: str) -> bool:
        """Advance ``kind``'s trigger stream; True when it should fire."""
        rule = self._rules.get(kind)
        if rule is None:
            return False
        tick = self.events[kind]
        self.events[kind] = tick + 1
        return tick % rule.period == self._phases[kind]

    def _choice(self, kind: str, n: int) -> int:
        """Seeded victim index in ``[0, n)``, distinct per injection."""
        salt = FAULT_KINDS.index(kind) + 1
        x = splitmix64(
            self.seed * _VICTIM_SALT + salt * 0x9E3779B9 + self.counts[kind]
        )
        return x % n

    def _emit(
        self, kind: str, now: int, tid: int, seq: int, pc: int, detail: str
    ) -> None:
        self.counts[kind] += 1
        bus = self.core.listeners
        if bus is not None:
            bus.fault(now, tid, seq, pc, kind, detail)

    # ------------------------------------------------------------------
    # Hooks, one per trigger stream (called from SMTCore).
    # ------------------------------------------------------------------
    def on_mem_access(self, uop: "Uop", addr: int, now: int) -> None:
        """Before a user-mode DTLB lookup: maybe force it to miss."""
        if self._fire("force_miss"):
            vpn = vpn_of(addr)
            if self.core.dtlb.invalidate(vpn):
                self._emit(
                    "force_miss", now, uop.thread_id, uop.seq, uop.pc,
                    f"vpn={vpn:#x}",
                )

    def load_delay(self, uop: "Uop", addr: int, now: int) -> int:
        """Extra cycles for an issued load's memory response."""
        if self._fire("mem_delay"):
            delay = self._rules["mem_delay"].arg
            self._emit(
                "mem_delay", now, uop.thread_id, uop.seq, uop.pc,
                f"addr={addr:#x} cycles={delay}",
            )
            return delay
        return 0

    def poison_branch(self, uop: "Uop", now: int) -> None:
        """After a conditional-branch prediction: maybe flip it."""
        if self._fire("bp_poison"):
            uop.pred_taken = not uop.pred_taken
            if uop.pred_taken:
                # Conditional branches are direct: the taken target is
                # architectural, only the direction was predicted.
                uop.pred_target = uop.inst.target
            self._emit(
                "bp_poison", now, uop.thread_id, uop.seq, uop.pc,
                f"taken={uop.pred_taken}",
            )

    def on_retire(self, thread: "ThreadContext", uop: "Uop", now: int) -> None:
        """After each retirement: state-corruption and handler faults."""
        if self._fire("tlb_evict"):
            self._evict_entry(thread, uop, now)
        if self._fire("pte_corrupt"):
            self._corrupt_pte(thread, uop, now)
        if self._fire("handler_fault"):
            mechanism = self.core.mechanism
            if mechanism is not None:
                detail = mechanism.inject_handler_fault(now)
                if detail is not None:
                    self._emit(
                        "handler_fault", now, thread.tid, uop.seq, uop.pc,
                        detail,
                    )

    # ------------------------------------------------------------------
    def _evict_entry(self, thread: "ThreadContext", uop: "Uop", now: int) -> None:
        """Parity-style detected corruption: drop one resident entry."""
        dtlb = self.core.dtlb
        vpns = dtlb.resident_vpns()
        if not vpns:  # PerfectTLB (no storage) or an empty TLB
            return
        vpn = vpns[self._choice("tlb_evict", len(vpns))]
        if dtlb.invalidate(vpn):
            self._emit(
                "tlb_evict", now, thread.tid, uop.seq, uop.pc, f"vpn={vpn:#x}"
            )

    def _corrupt_pte(self, thread: "ThreadContext", uop: "Uop", now: int) -> None:
        """Clear a mapped PTE's valid bit (and shoot down its entry).

        Self-healing by construction: the next access to the page misses,
        the handler's ``hardexc`` page-fault path re-sets the valid bit
        and re-installs the same identity translation, so architectural
        state is preserved while the nested-exception machinery gets
        exercised.  Pages whose PTE is already invalid are left alone.
        """
        pt = self.core.page_table
        vpns = sorted(pt.mapped_vpns())
        if not vpns:
            return
        vpn = vpns[self._choice("pte_corrupt", len(vpns))]
        pte_addr = pt.pte_address(vpn)
        pte = int(self.core.memory.read_word(pte_addr))
        if not pte_valid(pte):
            return
        self.core.memory.write_word(pte_addr, pte & ~PTE_VALID)
        self.core.dtlb.invalidate(vpn)
        self._emit(
            "pte_corrupt", now, thread.tid, uop.seq, uop.pc, f"vpn={vpn:#x}"
        )

    #: Rebuilt from the plan at construction; checkpoints capture the
    #: stream counters.
    _SNAPSHOT_TRANSIENT = ("core", "plan", "seed", "_rules", "_phases")
