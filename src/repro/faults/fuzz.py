"""Differential fuzzing: every mechanism, under fire, must agree.

:func:`run_case` is the one differential *trial*: it runs a generated
program fault-free on the perfect machine, then under every mechanism
(and every requested engine kernel) with the case's fault schedule.
Every run must pass every *oracle*, strongest first:

1. **Architectural equivalence** -- the exception architecture changes
   *when* things happen, never *what* happens.  The perfect run defines
   the reference digest (user-visible registers plus non-page-table
   memory); every run, with the fault injector perturbing it mid-run,
   must converge to the same digest.
2. **Sanitizer cleanliness** -- each run executes with the
   :mod:`repro.analysis.sanitizer` attached; any retirement-order or
   uop-lifecycle violation is a failure even when the digest survives.
3. **Termination** -- generated programs halt by construction, so a run
   exceeding its cycle bound is a hang, reported as a divergence.
4. **Kernel identity** -- with two engines (``--engine-diff``, and the
   scenario matrix in :mod:`repro.scenarios`), each mechanism runs under
   the reference cycle kernel and the fused kernel
   (:mod:`repro.engine.core`), and the pair must agree *exactly*: same
   digest, same cycle count, same value for every counter, same
   injected-fault totals.  The engines are bit-identical by contract,
   so any daylight between them is an engine bug.

Programs come from :mod:`repro.faults.progen` and are validated with the
:mod:`repro.analysis` guest lint before use (an unlintable program is a
generator bug, reported as such rather than fuzzed).

Failures shrink to minimal reproducers: the op-IR makes deletion-based
reduction safe (delete ops, re-render, re-check), followed by iteration-
count reduction.  Shrunken cases land in an artifacts directory with the
program source and a JSON manifest.

``DEFECTS`` holds intentionally-broken machine mutations (test-only) used
to prove the oracle actually catches bugs -- ``--defect pfn-off-by-one``
silently skews every 7th TLB fill and must be caught and shrunk.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.engine
from repro.analysis.diagnostics import Severity
from repro.analysis.guest import analyze_source
from repro.analysis.sanitizer import SanitizerError
from repro.faults.config import FAULT_KINDS
from repro.faults.progen import (
    CAUSES,
    GeneratedProgram,
    Rng,
    generate_program,
    render_program,
)
from repro.isa.registers import SHADOW_BASE
from repro.sim.config import MECHANISMS, MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads.builder import make_program

__all__ = [
    "CAUSES",
    "CAUSE_ROTATION",
    "DEFECTS",
    "Divergence",
    "FuzzCase",
    "FuzzReport",
    "arch_digest",
    "fuzz",
    "make_case",
    "overrides_for_causes",
    "run_case",
    "shrink_case",
]

#: Cycle bound for one run; generated programs finish in a few thousand
#: cycles, so hitting this means a hang (deadlocked machine), not load.
DEFAULT_MAX_CYCLES = 2_000_000


# ---------------------------------------------------------------------------
# Test-only machine defects (oracle self-tests).
# ---------------------------------------------------------------------------
def _defect_pfn_off_by_one(sim: Simulator) -> None:
    """Silently skew every 7th DTLB fill: classic wrong-translation bug.

    Loads and stores through the skewed entry touch the wrong physical
    page, so the memory digest diverges from the perfect reference while
    nothing crashes -- exactly the class of bug only differential
    checking catches.
    """
    if sim.config.mechanism == "perfect":
        return
    tlb = sim.dtlb
    orig_fill = tlb.fill
    fills = {"n": 0}

    def fill(vpn, pfn, speculative=False, producer=None):
        fills["n"] += 1
        if fills["n"] % 7 == 0:
            pfn += 1
        return orig_fill(vpn, pfn, speculative=speculative, producer=producer)

    tlb.fill = fill  # type: ignore[method-assign]


class _LostStoreMemory:
    """A delegating memory proxy that silently drops every 23rd write.

    ``MainMemory`` is slotted, so its methods cannot be monkeypatched
    per-instance; the proxy replaces ``core.memory`` (the retire-path
    write target) while the digest still reads the shared underlying
    words via ``sim.memory``.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self._writes = 0

    def write_word(self, addr, value) -> None:
        self._writes += 1
        if self._writes % 23 == 0:
            return
        self._inner.write_word(addr, value)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _defect_lost_store(sim: Simulator) -> None:
    """Drop every 23rd memory write: silent store loss."""
    if sim.config.mechanism == "perfect":
        return
    sim.core.memory = _LostStoreMemory(sim.core.memory)


#: name -> mutation applied to each non-reference machine before running.
DEFECTS = {
    "pfn-off-by-one": _defect_pfn_off_by_one,
    "lost-store": _defect_lost_store,
}


# ---------------------------------------------------------------------------
# Case construction.
# ---------------------------------------------------------------------------
@dataclass
class FuzzCase:
    """One differential trial: a program plus a fault schedule."""

    seed: int
    program: GeneratedProgram
    faults: str
    #: Exception causes the case targets (drives handler install).
    causes: tuple = ()
    #: MachineConfig overrides applied to *every* run of the case,
    #: including the perfect reference (itlb_entries, align_check, ...).
    config_overrides: dict = field(default_factory=dict)

    def rendered(self) -> str:
        return self.program.source


#: Per-seed cause-set rotation for the default corpus: the plain
#: pre-scenario mix, each scenario cause in isolation, then everything
#: at once.  ``repro-fuzz`` therefore covers every restartable cause
#: with no extra flags.
CAUSE_ROTATION = (
    (),
    ("brev", "swint"),
    ("unaligned",),
    ("itlb_miss",),
    ("itlb_miss", "unaligned", "brev", "swint"),
)


def overrides_for_causes(causes: tuple, rng: Rng | None = None) -> dict:
    """The MachineConfig knobs a cause set needs to actually fire.

    The ITLB has one entry, so the two-page loop thrashes it; with an
    ``rng`` (the scenario matrix's seeded variation) it has 1, 2 or 4.
    """
    overrides: dict = {}
    if "itlb_miss" in causes:
        overrides["itlb_entries"] = (1, 2, 4)[rng.below(3)] if rng else 1
    if "unaligned" in causes:
        overrides["align_check"] = True
    return overrides


def make_fault_spec(seed: int) -> str:
    """A seeded all-kinds fault spec with jittered periods.

    Every kind is always present -- coverage beats sparsity at this
    budget -- but the periods (and hence the interleavings) vary by
    seed so different cases stress different overlaps.
    """
    rng = Rng(seed ^ 0xFA17)
    parts = [f"seed:{seed & 0xFFFF_FFFF}"]
    base_periods = {
        "force_miss": 30,
        "tlb_evict": 70,
        "pte_corrupt": 90,
        "handler_fault": 50,
        "mem_delay": 20,
        "bp_poison": 80,
    }
    for kind in FAULT_KINDS:
        period = base_periods[kind] + rng.below(base_periods[kind])
        if kind == "mem_delay":
            parts.append(f"{kind}:{period}:{40 + 8 * rng.below(12)}")
        else:
            parts.append(f"{kind}:{period}")
    return ",".join(parts)


def make_case(
    seed: int,
    length: int = 36,
    iters: int = 24,
    causes: tuple | None = None,
) -> FuzzCase:
    """Build one case; ``causes=None`` rotates :data:`CAUSE_ROTATION`
    by seed so the default corpus exercises every restartable cause."""
    if causes is None:
        causes = CAUSE_ROTATION[seed % len(CAUSE_ROTATION)]
    causes = tuple(causes)
    return FuzzCase(
        seed=seed,
        program=generate_program(seed, length=length, iters=iters, causes=causes),
        faults=make_fault_spec(seed),
        causes=causes,
        config_overrides=overrides_for_causes(causes),
    )


def lint_program(source: str, unit: str) -> list[str]:
    """Guest-lint error codes for ``source`` (the validity oracle)."""
    return [
        f"{d.code}: {d.message}"
        for d in analyze_source(source, unit=unit)
        if d.severity is Severity.ERROR
    ]


# ---------------------------------------------------------------------------
# Running and digesting.
# ---------------------------------------------------------------------------
def arch_digest(sim: Simulator) -> tuple:
    """User-visible architectural state: registers + data memory.

    Shadow (handler-scratch) integer registers and page-table words are
    excluded -- both legitimately differ across mechanisms (fault fix-up
    rewrites PTE valid bits; shadow registers are handler working state).
    FP registers are compared by IEEE-754 bit pattern: generated FP
    chains routinely produce NaN, and ``nan != nan`` would make even a
    bit-identical pair of runs look divergent.
    """
    pt_base = sim.core.page_table.base
    regs = []
    for thread in sim.core.threads:
        if thread.program is not None and not thread.is_exception_thread:
            regs.append(
                (
                    thread.tid,
                    tuple(thread.arch.ints[:SHADOW_BASE]),
                    tuple(
                        struct.pack("<d", value) for value in thread.arch.fps
                    ),
                )
            )
    mem = tuple(
        (idx, value)
        for idx, value in sorted(sim.memory.snapshot().items())
        if (idx << 3) < pt_base
    )
    return (tuple(regs), mem)


@dataclass
class RunOutcome:
    """One (mechanism, engine) simulation of a case."""

    mechanism: str
    ok: bool
    reason: str = ""  # "", "sanitizer", "hang", "digest"
    detail: str = ""
    cycles: int = 0
    digest: tuple | None = None
    fault_counts: dict = field(default_factory=dict)
    #: Every counter group of a halted run (``sim`` is
    #: :class:`~repro.sim.stats.SimStats`); the kernel oracle compares
    #: them all.
    stats: dict = field(default_factory=dict)
    engine: str = "reference"

    @property
    def attribution(self) -> dict:
        """cause -> (taken, squashes, handler cycles), Table-3 style."""
        sim = self.stats.get("sim") or {}
        taken = sim.get("cause_taken", {})
        squashes = sim.get("cause_squashes", {})
        handler = sim.get("cause_handler_cycles", {})
        return {
            cause: (
                taken.get(cause, 0),
                squashes.get(cause, 0),
                handler.get(cause, 0),
            )
            for cause in set(taken) | set(squashes) | set(handler)
        }


def run_program(
    case: FuzzCase,
    mechanism: str,
    faults: str,
    defect: str | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    engine: str = "reference",
) -> RunOutcome:
    """One simulation to halt; sanitizer attached, faults per spec.

    ``engine`` names the cycle kernel (:data:`repro.engine.ENGINES`);
    the run is driven through ``run_to`` either way so both kernels
    execute their production run loop, not just single ``step()``
    calls.
    """
    program = make_program(
        case.program.source,
        regions=case.program.regions,
        scenario_causes=bool(case.causes),
    )
    config = MachineConfig(
        mechanism=mechanism,
        faults=faults,
        sanitize=True,
        **case.config_overrides,
    )
    core_cls = None if engine == "reference" else repro.engine.core_class(engine)
    sim = Simulator(program, config, core_cls=core_cls)
    if defect is not None:
        DEFECTS[defect](sim)
    core = sim.core
    user_threads = [
        t
        for t in core.threads
        if t.program is not None and not t.is_exception_thread
    ]
    # Unreachable retired_user targets make halting the only way a
    # thread satisfies the watch; run_to can still return early while a
    # thread sits in a non-NORMAL state (the watch treats that as
    # satisfied), so the driver nudges one step and re-enters.  Chunked
    # re-entry is bit-identical to one straight call (see run_to).
    watch = [(t, max_cycles + 1) for t in user_threads]

    def finished() -> bool:
        return all(t.halted for t in user_threads)

    try:
        while core.cycle < max_cycles and not finished():
            before = core.cycle
            core.run_to(watch, max_cycles)
            if core.cycle == before and not finished():
                core.step()
        if not finished():
            return RunOutcome(
                mechanism,
                ok=False,
                reason="hang",
                detail=f"no halt within {max_cycles} cycles",
                cycles=core.cycle,
                fault_counts=dict(core.faults.counts) if core.faults else {},
                engine=engine,
            )
    except SanitizerError as exc:
        return RunOutcome(
            mechanism,
            ok=False,
            reason="sanitizer",
            detail=str(exc),
            cycles=core.cycle,
            fault_counts=dict(core.faults.counts) if core.faults else {},
            engine=engine,
        )
    return RunOutcome(
        mechanism,
        ok=True,
        cycles=core.cycle,
        digest=arch_digest(sim),
        fault_counts=dict(core.faults.counts) if core.faults else {},
        engine=engine,
        stats={
            "sim": core.stats.as_dict(),
            "mech": (
                dataclasses.asdict(sim.mechanism.stats)
                if sim.mechanism
                else None
            ),
            "tlb": dataclasses.asdict(sim.dtlb.stats),
            "branch": dataclasses.asdict(sim.bpu.stats),
            "l1i": dataclasses.asdict(sim.hierarchy.l1i.stats),
            "l1d": dataclasses.asdict(sim.hierarchy.l1d.stats),
            "l2": dataclasses.asdict(sim.hierarchy.l2.stats),
        },
    )


@dataclass
class Divergence:
    """One oracle violation in one mechanism's faulted run."""

    mechanism: str
    reason: str  # "digest" | "sanitizer" | "hang" | "lint"
    detail: str = ""


@dataclass
class CaseResult:
    case: FuzzCase
    divergences: list[Divergence] = field(default_factory=list)
    cycles: int = 0
    fault_counts: dict = field(default_factory=dict)
    #: Every run, the fault-free perfect reference first.
    runs: list[RunOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def run_case(
    case: FuzzCase,
    defect: str | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    engines: tuple = ("reference",),
    mechanisms: tuple = MECHANISMS,
) -> CaseResult:
    """The differential trial for one case.

    The perfect machine runs fault-free on the reference kernel to
    define the reference digest; every mechanism (perfect included)
    then runs under every engine with the fault schedule active, and
    every run must halt, keep the sanitizer quiet and match that
    digest.  With several engines, each later engine's run must also
    agree exactly with the first engine's.  Injected faults are counted
    once per schedule, from the first engine's runs.
    """
    result = CaseResult(case=case)
    lint_errors = lint_program(case.program.source, unit=f"fuzz-{case.seed}")
    if lint_errors:
        result.divergences.append(
            Divergence("generator", "lint", "; ".join(lint_errors))
        )
        return result

    reference = run_program(case, "perfect", faults="", max_cycles=max_cycles)
    result.runs.append(reference)
    result.cycles += reference.cycles
    if not reference.ok:
        result.divergences.append(
            Divergence("perfect", reference.reason, reference.detail)
        )
        return result

    totals = {kind: 0 for kind in FAULT_KINDS}
    for mechanism in mechanisms:
        outcomes = []
        for engine in engines:
            outcome = run_program(
                case, mechanism, faults=case.faults, defect=defect,
                max_cycles=max_cycles, engine=engine,
            )
            result.runs.append(outcome)
            result.cycles += outcome.cycles
            if not outcomes:
                for kind, count in outcome.fault_counts.items():
                    totals[kind] += count
            if outcome.ok and outcome.digest != reference.digest:
                outcome.ok, outcome.reason = False, "digest"
                outcome.detail = _digest_delta(reference.digest, outcome.digest)
            if not outcome.ok:
                where = f"{engine}: " if len(engines) > 1 else ""
                result.divergences.append(
                    Divergence(mechanism, outcome.reason, where + outcome.detail)
                )
            outcomes.append(outcome)
        for other in outcomes[1:]:
            delta = _engine_delta(outcomes[0], other)
            if delta:
                result.divergences.append(Divergence(mechanism, "engine", delta))
    result.fault_counts = totals
    return result


def _engine_delta(ref: RunOutcome, fused: RunOutcome) -> str:
    """Where a fused-kernel run disagrees with its reference twin
    (empty string when they match exactly)."""
    if (ref.ok, ref.reason) != (fused.ok, fused.reason):
        return (
            f"outcome: reference {ref.reason or 'ok'!s} "
            f"vs fused {fused.reason or 'ok'!s} ({fused.detail})"
        )
    parts = []
    if ref.detail != fused.detail:
        parts.append(f"detail {ref.detail!r} vs {fused.detail!r}")
    if ref.cycles != fused.cycles:
        parts.append(f"cycles {ref.cycles} vs {fused.cycles}")
    if ref.digest != fused.digest:
        parts.append("digest: " + _digest_delta(ref.digest, fused.digest))
    if ref.fault_counts != fused.fault_counts:
        parts.append(
            f"fault counts {ref.fault_counts} vs {fused.fault_counts}"
        )
    for group in ref.stats:
        if ref.stats[group] != fused.stats.get(group):
            bad = sorted(
                k
                for k in (ref.stats[group] or {})
                if (ref.stats[group] or {}).get(k)
                != (fused.stats.get(group) or {}).get(k)
            ) if isinstance(ref.stats[group], dict) else []
            parts.append(f"{group} counters differ ({bad[:4]})")
    return "; ".join(parts)


def _digest_delta(ref: tuple, got: tuple) -> str:
    """A short human-readable summary of where two digests differ."""
    ref_regs, ref_mem = ref
    got_regs, got_mem = got
    parts = []
    if ref_regs != got_regs:
        for (tid, ints_a, fps_a), (_, ints_b, fps_b) in zip(ref_regs, got_regs):
            bad_ints = [i for i, (a, b) in enumerate(zip(ints_a, ints_b)) if a != b]
            bad_fps = [i for i, (a, b) in enumerate(zip(fps_a, fps_b)) if a != b]
            if bad_ints or bad_fps:
                parts.append(f"t{tid} regs int{bad_ints[:4]} fp{bad_fps[:4]}")
    if ref_mem != got_mem:
        ref_map, got_map = dict(ref_mem), dict(got_mem)
        bad = [k for k in sorted(set(ref_map) | set(got_map))
               if ref_map.get(k) != got_map.get(k)]
        parts.append(
            f"{len(bad)} mem words, first at {hex(bad[0] << 3) if bad else '?'}"
        )
    return "; ".join(parts) or "digest mismatch"


# ---------------------------------------------------------------------------
# Shrinking.
# ---------------------------------------------------------------------------
def _engines(engine_diff: bool) -> tuple:
    return repro.engine.ENGINES if engine_diff else ("reference",)


def _still_fails(
    case: FuzzCase,
    defect: str | None,
    max_cycles: int,
    engine_diff: bool = False,
) -> bool:
    if lint_program(case.program.source, unit="shrink"):
        return False  # reduction broke validity; reject it
    return not run_case(
        case, defect=defect, max_cycles=max_cycles,
        engines=_engines(engine_diff),
    ).ok


def _with_ops(case: FuzzCase, ops: list, iters: int) -> FuzzCase:
    program = dataclasses.replace(
        case.program,
        ops=list(ops),
        iters=iters,
        source=render_program(
            list(ops),
            case.program.seed,
            iters,
            itlb_stride=case.program.itlb_stride,
        ),
    )
    return dataclasses.replace(case, program=program)


def shrink_case(
    case: FuzzCase,
    defect: str | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    max_attempts: int = 96,
    engine_diff: bool = False,
) -> tuple[FuzzCase, int]:
    """Greedy delta-debugging over the op IR, then the iteration count.

    Removes op chunks (halves down to singletons) as long as the case
    still fails, then halves ``iters``.  Returns the reduced case and
    the number of candidate evaluations spent.  ``engine_diff`` adds
    the kernel oracle, as in :func:`fuzz`.
    """
    attempts = 0
    best = case

    # Phase 1: iteration count (cheapest lever: shorter runs first).
    iters = best.program.iters
    while iters > 1 and attempts < max_attempts:
        candidate = _with_ops(best, best.program.ops, max(1, iters // 2))
        attempts += 1
        if _still_fails(candidate, defect, max_cycles, engine_diff):
            best = candidate
            iters = best.program.iters
        else:
            break

    # Phase 2: op-chunk deletion.
    chunk = max(1, len(best.program.ops) // 2)
    while chunk >= 1 and attempts < max_attempts:
        removed_any = False
        index = 0
        while index < len(best.program.ops) and attempts < max_attempts:
            ops = best.program.ops
            candidate_ops = ops[:index] + ops[index + chunk:]
            if not candidate_ops:
                index += chunk
                continue
            candidate = _with_ops(best, candidate_ops, best.program.iters)
            attempts += 1
            if _still_fails(candidate, defect, max_cycles, engine_diff):
                best = candidate
                removed_any = True
            else:
                index += chunk
        if chunk == 1 and not removed_any:
            break
        chunk = chunk // 2 if chunk > 1 else (chunk if removed_any else 0)

    # Phase 3: retry iteration halving on the smaller body.
    iters = best.program.iters
    while iters > 1 and attempts < max_attempts:
        candidate = _with_ops(best, best.program.ops, max(1, iters // 2))
        attempts += 1
        if _still_fails(candidate, defect, max_cycles, engine_diff):
            best = candidate
            iters = best.program.iters
        else:
            break
    return best, attempts


# ---------------------------------------------------------------------------
# The fuzzing loop.
# ---------------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Aggregated corpus statistics for one fuzzing session."""

    seed: int
    programs: int = 0
    cycles: int = 0
    elapsed_seconds: float = 0.0
    fault_counts: dict = field(default_factory=lambda: {k: 0 for k in FAULT_KINDS})
    failures: list = field(default_factory=list)
    defect: str | None = None
    engine_diff: bool = False
    #: Cause filter the session was pinned to (None = seed rotation).
    causes: list | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "programs": self.programs,
            "cycles": self.cycles,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "fault_counts": dict(self.fault_counts),
            "defect": self.defect,
            "engine_diff": self.engine_diff,
            "causes": list(self.causes) if self.causes is not None else None,
            "failures": list(self.failures),
        }


def _write_artifacts(
    artifacts: Path,
    case: FuzzCase,
    shrunk: FuzzCase,
    result: CaseResult,
    attempts: int,
    defect: str | None,
) -> Path:
    case_dir = artifacts / f"case_{case.seed}"
    case_dir.mkdir(parents=True, exist_ok=True)
    (case_dir / "program.s").write_text(case.program.source)
    (case_dir / "shrunken.s").write_text(shrunk.program.source)
    manifest = {
        "seed": case.seed,
        "faults": case.faults,
        "causes": list(case.causes),
        "config_overrides": dict(case.config_overrides),
        "defect": defect,
        "divergences": [dataclasses.asdict(d) for d in result.divergences],
        "original_ops": len(case.program.ops),
        "shrunken_ops": len(shrunk.program.ops),
        "original_iters": case.program.iters,
        "shrunken_iters": shrunk.program.iters,
        "shrink_attempts": attempts,
        "repro": {
            "source": "shrunken.s",
            "regions": shrunk.program.regions,
            "faults": shrunk.faults,
            "causes": list(shrunk.causes),
            "config_overrides": dict(shrunk.config_overrides),
            "mechanisms": [d.mechanism for d in result.divergences],
        },
    }
    (case_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return case_dir


def fuzz(
    seed: int = 0,
    budget_seconds: float | None = None,
    max_programs: int | None = None,
    artifacts: str | os.PathLike | None = None,
    defect: str | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    shrink: bool = True,
    engine_diff: bool = False,
    causes: tuple | None = None,
    log=None,
) -> FuzzReport:
    """Run differential trials until the budget or program cap is hit.

    Stops at the *first* failing case (after shrinking and writing its
    artifacts): one minimal reproducer beats a pile of noisy ones, and
    CI wants fast signal.  ``engine_diff`` runs every mechanism under
    both engine kernels and adds the kernel oracle to the others.
    ``causes`` pins every case to one cause set (``None`` rotates the
    default corpus through :data:`CAUSE_ROTATION`).
    """
    if defect is not None and defect not in DEFECTS:
        raise ValueError(
            f"unknown defect {defect!r}; known: {', '.join(sorted(DEFECTS))}"
        )
    if causes is not None:
        unknown = sorted(set(causes) - set(CAUSES))
        if unknown:
            raise ValueError(
                f"unknown causes {unknown}; known: {', '.join(CAUSES)}"
            )
    if budget_seconds is None and max_programs is None:
        max_programs = 20
    report = FuzzReport(
        seed=seed, defect=defect, engine_diff=engine_diff,
        causes=list(causes) if causes is not None else None,
    )
    start = time.monotonic()
    case_index = 0
    while True:
        if max_programs is not None and report.programs >= max_programs:
            break
        if (
            budget_seconds is not None
            and time.monotonic() - start >= budget_seconds
        ):
            break
        case = make_case(seed + case_index, causes=causes)
        case_index += 1
        result = run_case(
            case, defect=defect, max_cycles=max_cycles,
            engines=_engines(engine_diff),
        )
        report.programs += 1
        report.cycles += result.cycles
        for kind, count in result.fault_counts.items():
            report.fault_counts[kind] += count
        if log is not None:
            status = "ok" if result.ok else "FAIL"
            log(
                f"case {case.seed}: {status} "
                f"({result.cycles} cycles, faults={sum(result.fault_counts.values())})"
            )
        if result.ok:
            continue
        shrunk, attempts = (
            shrink_case(
                case, defect=defect, max_cycles=max_cycles,
                engine_diff=engine_diff,
            )
            if shrink
            else (case, 0)
        )
        failure = {
            "seed": case.seed,
            "faults": case.faults,
            "causes": list(case.causes),
            "divergences": [dataclasses.asdict(d) for d in result.divergences],
            "shrunken_ops": len(shrunk.program.ops),
            "original_ops": len(case.program.ops),
        }
        if artifacts is not None:
            case_dir = _write_artifacts(
                Path(artifacts), case, shrunk, result, attempts, defect
            )
            failure["artifacts"] = str(case_dir)
            if log is not None:
                log(f"reproducer written to {case_dir}")
        report.failures.append(failure)
        break
    report.elapsed_seconds = time.monotonic() - start
    return report
