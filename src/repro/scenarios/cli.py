"""``repro-scenarios``: run the randomized scenario matrix.

Expands a base seed into the standard scenario matrix (every scenario
cause alone, seeded pairs back-to-back, all-cause sweeps in every mix
style), runs each scenario as a fault-free differential trial
(:func:`repro.faults.fuzz.run_case`) under the requested mechanisms and
engine kernels -- every digest against the perfect reference, and the
two kernels against each other -- and prints a Table-3-style per-cause
cycle attribution.

Exit codes: 0 -- every run agreed; 1 -- at least one scenario failed
(its program source is written to ``--artifacts`` when set); 2 -- bad
usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.engine import ENGINES
from repro.faults.fuzz import DEFAULT_MAX_CYCLES, CaseResult, run_case
from repro.scenarios.spec import ScenarioSpec, generate_matrix
from repro.sim.config import MECHANISMS

#: Attribution table column order (stable for diffs and tests).
_CAUSE_ORDER = ("dtlb_miss", "itlb_miss", "unaligned", "emul", "brev", "swint")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description="Run randomized restartable-exception scenarios "
        "across every mechanism and engine kernel.",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for the scenario matrix (default: 0)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="trim the matrix to one spec per shape (CI smoke)",
    )
    parser.add_argument(
        "--mechanisms", default=None, metavar="LIST",
        help="comma-separated mechanisms to run "
        f"(default: {','.join(MECHANISMS)})",
    )
    parser.add_argument(
        "--engines", default=None, metavar="LIST",
        help="comma-separated engine kernels (default: "
        f"{','.join(ENGINES)}; both enables the bit-identity check)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=None, metavar="N",
        help="per-run hang bound in cycles (default: 2000000)",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None, metavar="FILE",
        help="write the full result matrix (JSON) here, pass or fail",
    )
    parser.add_argument(
        "--artifacts", type=Path, default=None, metavar="DIR",
        help="directory for failing scenarios' program sources",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-scenario progress"
    )
    return parser


def run_matrix(
    specs: list[ScenarioSpec],
    mechanisms: tuple = MECHANISMS,
    engines: tuple = ENGINES,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    log=None,
) -> list[tuple[ScenarioSpec, CaseResult]]:
    """Run every spec; returns all results (never stops early)."""
    results = []
    for spec in specs:
        result = run_case(
            spec.case(), max_cycles=max_cycles, engines=engines,
            mechanisms=mechanisms,
        )
        results.append((spec, result))
        if log is not None:
            log(f"{spec.describe()} ... {'ok' if result.ok else 'FAIL'}")
    return results


def _failures(result: CaseResult) -> list[str]:
    return [
        f"{d.mechanism} {d.reason}: {d.detail[:200]}" for d in result.divergences
    ]


def scenario_json(spec: ScenarioSpec, result: CaseResult) -> dict:
    """One scenario's ``--json-out`` entry: verdicts plus every run's
    per-cause attribution."""
    return {
        "name": spec.name,
        "seed": spec.seed,
        "causes": list(spec.causes),
        "mix": spec.mix,
        "config_overrides": dict(spec.config_overrides),
        "ok": result.ok,
        "failures": _failures(result),
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
            for r in result.runs
        ],
    }


def _attribution_table(results) -> str:
    """Per-cause cycle attribution in the style of the paper's Table 3."""
    lines = []
    for spec, result in results:
        lines.append(f"\n{spec.describe()}")
        lines.append(
            f"  {'mechanism':14s} {'engine':9s} {'cycles':>8s}  "
            + "  ".join(f"{c:>18s}" for c in _CAUSE_ORDER)
        )
        for run in result.runs:
            if not run.ok or not run.attribution:
                continue
            cells = []
            for cause in _CAUSE_ORDER:
                taken, _, handler_cycles = run.attribution.get(cause, (0, 0, 0))
                cells.append(
                    f"{taken:>6d}/{handler_cycles:<8d}" if taken else f"{'-':>15s}"
                )
            lines.append(
                f"  {run.mechanism:14s} {run.engine:9s} {run.cycles:>8d}  "
                + "  ".join(f"{c:>18s}" for c in cells)
            )
        lines.append("  (cells: exceptions taken / handler cycles)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    mechanisms = tuple(MECHANISMS)
    if args.mechanisms is not None:
        mechanisms = tuple(
            m.strip() for m in args.mechanisms.split(",") if m.strip()
        )
        unknown = sorted(set(mechanisms) - set(MECHANISMS))
        if unknown:
            print(
                f"error: unknown mechanisms {', '.join(unknown)} "
                f"(known: {', '.join(MECHANISMS)})",
                file=sys.stderr,
            )
            return 2
    engines = tuple(ENGINES)
    if args.engines is not None:
        engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
        unknown = sorted(set(engines) - set(ENGINES))
        if unknown:
            print(
                f"error: unknown engines {', '.join(unknown)} "
                f"(known: {', '.join(ENGINES)})",
                file=sys.stderr,
            )
            return 2

    log = (lambda msg: None) if args.quiet else (
        lambda msg: print(msg, flush=True)
    )
    kwargs = {}
    if args.max_cycles is not None:
        kwargs["max_cycles"] = args.max_cycles
    specs = generate_matrix(seed=args.seed, quick=args.quick)
    results = run_matrix(
        specs, mechanisms=mechanisms, engines=engines, log=log, **kwargs
    )

    failed = [(spec, result) for spec, result in results if not result.ok]
    if args.artifacts is not None and failed:
        args.artifacts.mkdir(parents=True, exist_ok=True)
        for spec, result in failed:
            stem = args.artifacts / f"{spec.name}_{spec.seed}"
            stem.with_suffix(".s").write_text(result.case.rendered())
            stem.with_suffix(".json").write_text(
                json.dumps(scenario_json(spec, result), indent=2) + "\n"
            )
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        args.json_out.write_text(
            json.dumps([scenario_json(*r) for r in results], indent=2) + "\n"
        )

    print(_attribution_table(results))
    print(
        f"\nrepro-scenarios: {len(results)} scenarios, "
        f"{sum(len(result.runs) for _, result in results)} runs, "
        f"{len(failed)} failure(s)"
    )
    for spec, result in failed:
        for failure in _failures(result):
            print(f"  {spec.name}: {failure}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
