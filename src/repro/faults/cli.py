"""``repro-fuzz``: the differential fuzzer's command-line front end.

Exit codes: 0 -- all cases agreed; 1 -- a divergence was found (and its
shrunken reproducer written when ``--artifacts`` is set); 2 -- bad
usage/configuration.  CI runs this twice: a short-budget smoke on every
PR and a long-budget nightly sweep (see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.faults.fuzz import CAUSES, DEFECTS, fuzz


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Differentially fuzz the five exception mechanisms "
        "under deterministic fault injection.",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; case N uses seed+N (default: 0)",
    )
    parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; stops starting new cases once exceeded",
    )
    parser.add_argument(
        "--programs", type=int, default=None, metavar="N",
        help="maximum number of generated programs (default: 20 when "
        "no --budget is given)",
    )
    parser.add_argument(
        "--artifacts", type=Path, default=None, metavar="DIR",
        help="directory for shrunken reproducers + manifests on failure",
    )
    parser.add_argument(
        "--defect", choices=sorted(DEFECTS), default=None,
        help="apply a known-broken test-only machine mutation "
        "(oracle self-test: the fuzzer must catch it)",
    )
    parser.add_argument(
        "--engine-diff", action="store_true",
        help="also fuzz the fused kernel (the default) against the "
        "reference kernel: every faulted run executes under both, passes "
        "every oracle on each, and the pair must agree exactly (digest, "
        "cycles, every counter)",
    )
    parser.add_argument(
        "--causes", default=None, metavar="LIST",
        help="comma-separated restartable-exception causes every case "
        f"targets ({', '.join(CAUSES)}); default rotates through all "
        "cause sets by seed",
    )
    parser.add_argument(
        "--stats-out", type=Path, default=None, metavar="FILE",
        help="write corpus statistics (JSON) here, pass or fail",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report the first failure without minimizing it",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=None, metavar="N",
        help="per-run hang bound in cycles (default: 2000000)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.budget is not None and args.budget <= 0:
        print("error: --budget must be positive", file=sys.stderr)
        return 2
    if args.programs is not None and args.programs <= 0:
        print("error: --programs must be positive", file=sys.stderr)
        return 2
    causes = None
    if args.causes is not None:
        causes = tuple(
            part.strip() for part in args.causes.split(",") if part.strip()
        )
        unknown = sorted(set(causes) - set(CAUSES))
        if unknown:
            print(
                f"error: unknown causes {', '.join(unknown)} "
                f"(known: {', '.join(CAUSES)})",
                file=sys.stderr,
            )
            return 2
    # The fuzzer owns its fault schedules; an inherited REPRO_FAULTS
    # would also fault the perfect reference run and poison the oracle.
    os.environ.pop("REPRO_FAULTS", None)

    log = (lambda msg: None) if args.quiet else (
        lambda msg: print(msg, flush=True)
    )
    kwargs = {}
    if args.max_cycles is not None:
        kwargs["max_cycles"] = args.max_cycles
    report = fuzz(
        seed=args.seed,
        budget_seconds=args.budget,
        max_programs=args.programs,
        artifacts=args.artifacts,
        defect=args.defect,
        shrink=not args.no_shrink,
        engine_diff=args.engine_diff,
        causes=causes,
        log=log,
        **kwargs,
    )
    if args.stats_out is not None:
        args.stats_out.parent.mkdir(parents=True, exist_ok=True)
        args.stats_out.write_text(
            json.dumps(report.to_json(), indent=2) + "\n"
        )
    total_faults = sum(report.fault_counts.values())
    print(
        f"repro-fuzz: {report.programs} programs, {report.cycles} cycles, "
        f"{total_faults} faults injected, "
        f"{len(report.failures)} failure(s) in {report.elapsed_seconds:.1f}s"
    )
    if report.failures:
        for failure in report.failures:
            for div in failure["divergences"]:
                print(
                    f"  seed {failure['seed']}: {div['mechanism']} "
                    f"{div['reason']}: {div['detail']}"
                )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
