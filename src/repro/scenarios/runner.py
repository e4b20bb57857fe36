"""Run scenario specs: every mechanism, both engine kernels, one digest.

For each :class:`~repro.scenarios.spec.ScenarioSpec` the runner:

1. runs the *perfect* machine once to define the reference
   architectural digest (:func:`repro.faults.fuzz.arch_digest`);
2. runs every requested mechanism under both engine backends (the
   reference cycle kernel and the fused kernel), sanitizer attached;
3. checks every run's digest against the reference and the two kernels
   against each other (digest, cycles, and every pipeline counter must
   match exactly);
4. folds the per-cause counters (``cause_taken`` / ``cause_squashes`` /
   ``cause_handler_cycles``) into a Table-3-style attribution: for each
   mechanism and cause, how many exceptions were taken and how many
   cycles their handling consumed.

Scenario programs halt by construction, so a run exceeding the cycle
bound is reported as a hang.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.analysis.sanitizer import SanitizerError
from repro.faults.fuzz import MECHANISMS, arch_digest
from repro.scenarios.spec import ScenarioSpec, build_scenario_program
from repro.sim.config import MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads.builder import make_program

__all__ = ["EngineRun", "ScenarioResult", "run_scenario", "run_matrix"]

#: Per-run cycle bound; scenario programs finish in a few thousand.
DEFAULT_MAX_CYCLES = 2_000_000

ENGINES = ("reference", "fused")


@dataclass
class EngineRun:
    """One (mechanism, engine) simulation of a scenario."""

    mechanism: str
    engine: str
    ok: bool = True
    reason: str = ""  # "", "sanitizer", "hang", "digest"
    detail: str = ""
    cycles: int = 0
    digest: tuple | None = None
    #: cause -> (taken, squashes, handler_cycles) from SimStats.
    attribution: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


@dataclass
class ScenarioResult:
    """Everything one scenario produced, plus pass/fail verdicts."""

    spec: ScenarioSpec
    runs: list[EngineRun] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    source: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.spec.name,
            "seed": self.spec.seed,
            "causes": list(self.spec.causes),
            "mix": self.spec.mix,
            "config_overrides": dict(self.spec.config_overrides),
            "ok": self.ok,
            "failures": list(self.failures),
            "runs": [
                {
                    "mechanism": r.mechanism,
                    "engine": r.engine,
                    "ok": r.ok,
                    "reason": r.reason,
                    "cycles": r.cycles,
                    "attribution": {
                        cause: {
                            "taken": taken,
                            "squashes": squashes,
                            "handler_cycles": cycles,
                        }
                        for cause, (taken, squashes, cycles) in sorted(
                            r.attribution.items()
                        )
                    },
                }
                for r in self.runs
            ],
        }


def _attribution(sim: Simulator) -> dict:
    stats = sim.core.stats
    causes = (
        set(stats.cause_taken)
        | set(stats.cause_squashes)
        | set(stats.cause_handler_cycles)
    )
    return {
        cause: (
            stats.cause_taken.get(cause, 0),
            stats.cause_squashes.get(cause, 0),
            stats.cause_handler_cycles.get(cause, 0),
        )
        for cause in causes
    }


def _run_one(
    spec: ScenarioSpec,
    program_source: str,
    regions: list,
    mechanism: str,
    engine: str,
    max_cycles: int,
) -> EngineRun:
    core_cls = None
    if engine != "reference":
        from repro.engine import core_class

        core_cls = core_class(engine)
    program = make_program(program_source, regions=regions, scenario_causes=True)
    config = MachineConfig(
        mechanism=mechanism, sanitize=True, **spec.config_overrides
    )
    sim = Simulator(program, config, core_cls=core_cls)
    core = sim.core
    run = EngineRun(mechanism=mechanism, engine=engine)
    user = [
        t
        for t in core.threads
        if t.program is not None and not t.is_exception_thread
    ]
    watch = [(t, max_cycles + 1) for t in user]
    try:
        while core.cycle < max_cycles and not all(t.halted for t in user):
            before = core.cycle
            core.run_to(watch, max_cycles)
            if core.cycle == before and not all(t.halted for t in user):
                core.step()
        if not all(t.halted for t in user):
            run.ok = False
            run.reason = "hang"
            run.detail = f"no halt within {max_cycles} cycles"
    except SanitizerError as exc:
        run.ok = False
        run.reason = "sanitizer"
        run.detail = str(exc)
    run.cycles = core.cycle
    if run.ok:
        run.digest = arch_digest(sim)
        run.attribution = _attribution(sim)
        run.stats = {
            "sim": core.stats.as_dict(),
            "mech": (
                dataclasses.asdict(sim.mechanism.stats) if sim.mechanism else None
            ),
        }
    return run


def run_scenario(
    spec: ScenarioSpec,
    mechanisms: tuple = MECHANISMS,
    engines: tuple = ENGINES,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> ScenarioResult:
    """Run one spec across the mechanism x engine matrix."""
    program = build_scenario_program(spec)
    result = ScenarioResult(spec=spec, source=program.source)

    reference = _run_one(
        spec, program.source, program.regions, "perfect", "reference", max_cycles
    )
    result.runs.append(reference)
    if not reference.ok:
        result.failures.append(
            f"perfect/reference {reference.reason}: {reference.detail}"
        )
        return result

    for mechanism in mechanisms:
        per_engine: dict[str, EngineRun] = {}
        for engine in engines:
            run = _run_one(
                spec, program.source, program.regions, mechanism, engine,
                max_cycles,
            )
            result.runs.append(run)
            per_engine[engine] = run
            if not run.ok:
                result.failures.append(
                    f"{mechanism}/{engine} {run.reason}: {run.detail[:200]}"
                )
            elif run.digest != reference.digest:
                run.ok = False
                run.reason = "digest"
                result.failures.append(
                    f"{mechanism}/{engine} digest mismatch vs perfect"
                )
        if len(per_engine) == len(ENGINES) and all(
            r.ok for r in per_engine.values()
        ):
            ref, fused = per_engine["reference"], per_engine["fused"]
            if (ref.cycles, ref.digest, ref.stats) != (
                fused.cycles,
                fused.digest,
                fused.stats,
            ):
                bad = [
                    k
                    for k in ref.stats.get("sim", {})
                    if ref.stats["sim"][k] != fused.stats.get("sim", {}).get(k)
                ]
                result.failures.append(
                    f"{mechanism} engine mismatch: cycles "
                    f"{ref.cycles} vs {fused.cycles}, counters {bad[:4]}"
                )
    return result


def run_matrix(
    specs: list[ScenarioSpec],
    mechanisms: tuple = MECHANISMS,
    engines: tuple = ENGINES,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    log=None,
) -> list[ScenarioResult]:
    """Run every spec; returns all results (never stops early)."""
    results = []
    for spec in specs:
        result = run_scenario(
            spec, mechanisms=mechanisms, engines=engines, max_cycles=max_cycles
        )
        results.append(result)
        if log is not None:
            status = "ok" if result.ok else "FAIL"
            log(f"{spec.describe()} ... {status}")
    return results
