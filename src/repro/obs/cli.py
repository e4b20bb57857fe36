"""``repro-trace`` / ``python -m repro.obs`` — trace one run to JSON.

Runs a suite workload under one mechanism with the full observability
stack attached and writes a Chrome ``trace_event`` file (open it in
``chrome://tracing`` or Perfetto) plus, optionally, a run manifest and
a Table-3 cycle-attribution breakdown::

    repro-trace compress --mechanism multithreaded --out run.trace.json
    repro-trace compress li --mechanism traditional --attribution
    repro-trace compress --validate          # schema-check what it wrote

``--validate`` re-reads every file the run produced and schema-checks
it (:func:`repro.obs.chrome.validate_chrome_trace`,
:func:`repro.obs.manifest.validate_manifest`); the exit status is then
non-zero iff a check failed, which is how CI consumes this command.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.attribution import CycleAttribution
from repro.obs.chrome import ChromeTraceExporter, validate_chrome_trace
from repro.obs.manifest import build_manifest, validate_manifest, write_manifest
from repro.sim.config import MECHANISMS, MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads import BENCHMARKS
from repro.workloads.suite import build_workload


def _build_programs(names: list[str]):
    for name in names:
        if name not in BENCHMARKS:
            raise SystemExit(
                f"repro-trace: unknown workload {name!r} "
                f"(choose from {sorted(BENCHMARKS)})"
            )
    return build_workload(names[0] if len(names) == 1 else names)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Run one workload with tracing on and export a "
        "Chrome trace_event JSON (plus manifest and cycle attribution).",
    )
    parser.add_argument(
        "workload",
        nargs="+",
        help="benchmark name(s); several names run as an SMT mix",
    )
    parser.add_argument(
        "--mechanism",
        choices=MECHANISMS,
        default="multithreaded",
        help="exception mechanism to simulate (default: multithreaded)",
    )
    parser.add_argument(
        "--insts", type=int, default=5_000,
        help="measured user instructions per thread (default: 5000)",
    )
    parser.add_argument(
        "--warmup", type=int, default=1_000,
        help="warm-up user instructions per thread (default: 1000)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=10_000_000,
        help="simulation cycle budget (default: 10M)",
    )
    parser.add_argument(
        "--out", default=None,
        help="trace output path (default: <workload>-<mechanism>.trace.json)",
    )
    parser.add_argument(
        "--manifest", default=None,
        help="also write the run manifest to this path",
    )
    parser.add_argument(
        "--attribution", action="store_true",
        help="print the Table-3 cycle-attribution breakdown",
    )
    parser.add_argument(
        "--no-retires", action="store_true",
        help="omit per-instruction retire slices (smaller traces)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="schema-check the written files; non-zero exit on problems",
    )
    args = parser.parse_args(argv)

    sim = Simulator(
        _build_programs(args.workload),
        MachineConfig(mechanism=args.mechanism),
    )
    exporter = ChromeTraceExporter.attach(sim.core, retires=not args.no_retires)
    attribution = CycleAttribution.attach(sim.core)
    result = sim.run(
        user_insts=args.insts,
        warmup_insts=args.warmup,
        max_cycles=args.max_cycles,
    )
    table = attribution.finalize(sim.core.cycle)
    table.check_sum()

    # A plain Simulator runs the reference kernel, whatever REPRO_ENGINE
    # says (with listeners attached the fused loop would fall back to
    # the reference stages anyway).
    manifest = build_manifest(
        result, sim.config, attribution=table, workload=tuple(args.workload),
        engine_backend="reference",
    )
    out = args.out or f"{'-'.join(args.workload)}-{args.mechanism}.trace.json"
    exporter.write(out, manifest)
    written = [out]
    if args.manifest:
        write_manifest(args.manifest, manifest)
        written.append(args.manifest)

    print(
        f"{'+'.join(args.workload)} under {args.mechanism}: "
        f"{result.cycles} cycles, {result.committed_fills} fills, "
        f"ipc {result.ipc:.3f}"
    )
    for path in written:
        print(f"wrote {path}")
    if args.attribution:
        print()
        print(table.format(fills=result.committed_fills))

    if args.validate:
        problems: list[str] = []
        with open(out) as fh:
            doc = json.load(fh)
        problems += [f"{out}: {p}" for p in validate_chrome_trace(doc)]
        problems += [
            f"{out} (embedded manifest): {p}"
            for p in validate_manifest(doc.get("otherData", {}))
        ]
        if args.manifest:
            with open(args.manifest) as fh:
                problems += [
                    f"{args.manifest}: {p}"
                    for p in validate_manifest(json.load(fh))
                ]
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            return 1
        print(f"validated {len(written)} file(s): ok")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
