"""Command-line entry point: ``python -m repro.experiments <id>``.

``repro-experiments all`` regenerates every table and figure of the
paper; individual ids (``fig2`` ... ``table4``) run one experiment.
``REPRO_SCALE`` scales run lengths (1 = quick, 4+ = measurement grade).
``REPRO_ENGINE`` picks the cycle kernel (``fused`` by default,
``reference`` for the oracle); results are bit-identical either way.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    fig2_pipeline,
    fig3_width,
    fig5_mechanisms,
    fig6_quickstart,
    fig7_multiprogram,
    table2_suite,
    table3_limits,
    table4_speedups,
)

EXPERIMENTS = {
    "fig2": fig2_pipeline.main,
    "fig3": fig3_width.main,
    "table2": table2_suite.main,
    "fig5": fig5_mechanisms.main,
    "table3": table3_limits.main,
    "fig6": fig6_quickstart.main,
    "fig7": fig7_multiprogram.main,
    "table4": table4_speedups.main,
}

#: Order used by ``all`` (motivation first, like the paper).
ALL_ORDER = ("fig2", "fig3", "table2", "fig5", "table3", "fig6", "fig7", "table4")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render figure results as ASCII bar charts",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per experiment grid (default: REPRO_JOBS "
        "or the CPU count); 1 forces the serial path",
    )
    parser.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="resolve experiment grids against a running repro-serve "
        "sweep service instead of local worker processes (results are "
        "bit-identical; see docs/SERVICE.md)",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None:
        import os

        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.server is not None:
        import os

        from repro.serve.client import ServeError, SweepClient

        # Probe up front so a dead or mistyped server is an argparse
        # error, not a mid-experiment stack trace; the environment then
        # carries the URL to every grid (experiments.common).
        try:
            SweepClient(args.server).stats()
        except ServeError as exc:
            parser.error(f"--server {args.server}: {exc}")
        os.environ["REPRO_SERVER"] = args.server

    names = ALL_ORDER if args.experiment == "all" else (args.experiment,)
    for name in names:
        start = time.time()
        print(f"\n{'=' * 72}\n[{name}]\n{'=' * 72}")
        result = EXPERIMENTS[name]()
        if args.chart:
            from repro.experiments.common import ExperimentResult
            from repro.experiments.report import bar_chart

            if isinstance(result, ExperimentResult):
                print()
                print(bar_chart(result, title=f"{name} (bar chart)"))
        print(f"\n({name} took {time.time() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
