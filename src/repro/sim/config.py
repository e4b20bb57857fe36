"""Machine configuration.

Defaults reproduce Table 1 of the paper: an 8-wide dynamically scheduled
SMT with a 128-entry shared window, 7 stages between fetch and execute
(3 fetch + 1 decode + 1 schedule + 2 register read), the Table 1
functional-unit pool, memory system, and a 64-entry DTLB.

Figure 2 sweeps the pipeline depth (3/7/11) via
:meth:`MachineConfig.with_pipe_depth`; Figure 3 sweeps width/window
(2/32, 4/64, 8/128) via :meth:`MachineConfig.with_width`, which also
scales the FU pool the way the paper scales the machine.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from repro.exceptions.limits import LimitKnobs
from repro.isa.instructions import FU_GROUPS, FUClass
from repro.memory.hierarchy import HierarchyConfig

__all__ = ["FU_GROUPS", "FUPool", "MachineConfig", "MECHANISMS", "config_token"]

#: The exception-handling mechanisms a machine can be configured with.
MECHANISMS = ("perfect", "traditional", "multithreaded", "hardware", "quickstart")


@dataclass
class FUPool:
    """Per-cycle issue capacity of each functional-unit group.

    Units are fully pipelined, so capacity equals issue bandwidth per
    cycle.  The Table 1 pool for the 8-wide machine is 8 integer ALUs,
    3 integer mult/div, 3 FP add/mult, 1 FP div/sqrt, and 3 load/store
    ports.
    """

    alu: int = 8
    muldiv: int = 3
    fp: int = 3
    fpdiv: int = 1
    mem: int = 3

    @classmethod
    def for_width(cls, width: int) -> "FUPool":
        """Scale the Table 1 pool to a narrower machine (Fig. 3 sweep)."""
        if width >= 8:
            return cls()
        if width == 4:
            return cls(alu=4, muldiv=2, fp=2, fpdiv=1, mem=2)
        if width == 2:
            return cls(alu=2, muldiv=1, fp=1, fpdiv=1, mem=1)
        raise ValueError(f"unsupported width {width} (use 2, 4, or 8)")

    def capacity(self, group: str) -> int:
        return getattr(self, group)


@dataclass
class MachineConfig:
    """Every knob of the simulated machine (defaults: Table 1)."""

    # Core shape.
    width: int = 8
    window_size: int = 128
    num_threads: int = 2
    #: Cycles an instruction spends in the fetch pipeline.
    fetch_latency: int = 3
    decode_latency: int = 1
    #: Schedule (1) + register read (2) delay after window insertion.
    post_insert_delay: int = 3
    #: Per-thread fetch buffer capacity (also holds quick-start images).
    fetch_buffer_size: int = 16
    #: Fetch chooser among application threads: "icount" or "round_robin".
    chooser: str = "icount"

    fu_pool: FUPool | None = None
    store_latency: int = 2

    # Memory system.
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    dtlb_entries: int = 64
    #: Instruction-TLB entries; 0 (the default) models the seed machine's
    #: always-hit instruction fetch (no ITLB modeled, no itlb_miss cause).
    itlb_entries: int = 0
    #: Trap non-privileged 8-byte integer loads whose effective address is
    #: not 8-aligned into the ``unaligned`` fixup handler.  Off by default:
    #: the seed machine force-aligns every effective address silently.
    align_check: bool = False

    # Exception architecture.
    mechanism: str = "multithreaded"
    #: Idle thread contexts available for exception handling (the paper's
    #: multithreaded(1) vs multithreaded(3)); app threads come on top.
    idle_threads: int = 1
    #: Hardware-walker concurrency (misses walked in parallel).
    walker_entries: int = 8
    #: Hardware-walker FSM overhead per walk, on top of the PTE load's
    #: cache latency (state sequencing + the nested lookup a
    #: virtually-mapped page table needs).
    walker_latency: int = 4
    #: Give handler threads fetch priority over application threads.
    handler_fetch_priority: bool = True
    #: Learn which exception types are worth spawning for (Section 4.3:
    #: a small predictor tracks hard-exception reversions so exceptions
    #: that always revert skip the multithreaded attempt).
    use_spawn_predictor: bool = False
    #: Stop handler fetch exactly at the handler's end (perfect handler
    #: length prediction, the Table 1 assumption).  When False the handler
    #: thread overfetches past ``reti`` until it is decoded, wasting fetch
    #: bandwidth (the ~0.5 cycles/miss effect discussed in Sec. 4.4).
    predict_handler_length: bool = True
    #: Table 3 limit-study switches.
    limits: LimitKnobs = field(default_factory=LimitKnobs)
    #: Skip idle cycles by jumping the clock to the next wakeup event.
    #: Cycle accounting is bit-identical either way (see
    #: ``docs/PERFORMANCE.md``); disable only to cross-check that claim.
    fast_forward: bool = True
    #: Attach the runtime invariant checker (docs/ANALYSIS.md): splice
    #: ordering, retirement order, uop lifecycle, window occupancy.  Off
    #: by default and free when off; ``REPRO_SANITIZE=1`` also enables it.
    sanitize: bool = False
    #: Deterministic fault-injection spec (docs/ROBUSTNESS.md), e.g.
    #: ``"seed:42,force_miss:50,mem_delay:20:60"``.  Empty string means
    #: no injector is built and the machine is bit-identical to one
    #: without the faults package.  ``REPRO_FAULTS`` is the default when
    #: a config is built, so the plan travels with the config from then
    #: on (into cache keys, workers, the wire and checkpoints).
    faults: str = field(default_factory=lambda: os.environ.get("REPRO_FAULTS", ""))

    def __post_init__(self) -> None:
        if self.fu_pool is None:
            self.fu_pool = FUPool.for_width(self.width)
        if self.mechanism not in MECHANISMS:
            raise ValueError(
                f"unknown mechanism {self.mechanism!r}; pick one of {MECHANISMS}"
            )
        if self.faults:
            # Validate eagerly so a bad spec fails at configuration time,
            # not mid-simulation (lazy import keeps layering: sim does not
            # need repro.faults unless faults are actually armed).
            from repro.faults.config import parse_faults

            parse_faults(self.faults)
        if self.chooser not in ("icount", "round_robin"):
            raise ValueError(f"unknown chooser {self.chooser!r}")
        if self.width < 1 or self.window_size < 4:
            raise ValueError("machine too narrow to run")
        if self.num_threads < 1:
            raise ValueError("need at least one thread context")

    # ------------------------------------------------------------------
    @property
    def pipe_depth(self) -> int:
        """Stages between fetch and execute (the min mispredict penalty)."""
        return self.fetch_latency + self.decode_latency + self.post_insert_delay

    def with_pipe_depth(self, depth: int) -> "MachineConfig":
        """Clone with a different fetch->execute depth (Fig. 2 sweep).

        The depth is split as in the paper's nominal machine: roughly half
        fetch, one decode, the rest schedule + register read.  Depth 3
        gives 1+1+1, depth 7 gives 3+1+3, depth 11 gives 5+1+5.
        """
        if depth < 3:
            raise ValueError("pipeline needs at least fetch+decode+schedule")
        fetch = (depth - 1) // 2
        post = depth - 1 - fetch
        return dataclasses.replace(
            self, fetch_latency=fetch, decode_latency=1, post_insert_delay=post
        )

    def with_width(self, width: int, window: int | None = None) -> "MachineConfig":
        """Clone with a different width/window (Fig. 3 sweep: 2/32, 4/64, 8/128)."""
        if window is None:
            window = {2: 32, 4: 64, 8: 128}.get(width)
            if window is None:
                raise ValueError(f"no default window for width {width}")
        return dataclasses.replace(
            self, width=width, window_size=window, fu_pool=FUPool.for_width(width)
        )

    def with_mechanism(self, mechanism: str, idle_threads: int | None = None) -> "MachineConfig":
        """Clone with a different exception mechanism."""
        kwargs: dict = {"mechanism": mechanism}
        if idle_threads is not None:
            kwargs["idle_threads"] = idle_threads
        return dataclasses.replace(self, **kwargs)

    def fu_latency(self, op_fu: FUClass) -> int:
        """Execution latency of a functional-unit class."""
        if op_fu is FUClass.STORE:
            return self.store_latency
        return FU_GROUPS[op_fu][1]

    @staticmethod
    def fu_group(op_fu: FUClass) -> str:
        """Pool group an FU class issues to."""
        return FU_GROUPS[op_fu][0]


def config_token(config: MachineConfig) -> str:
    """The one string every content address hashes a configuration by
    (cell keys, warm-checkpoint tokens, manifest config hashes).

    It is the dataclass ``repr``: every field of the config and of its
    nested ``FUPool``, ``HierarchyConfig`` and ``LimitKnobs`` (so no
    field may carry ``repr=False``), the same string on every supported
    Python, and without the deep copy ``dataclasses.asdict`` makes.
    """
    return repr(config)
