"""Engine throughput ledger: ``python -m repro.sim.perfbench``.

Measures simulated user-instructions per wall-clock second on the
8-benchmark suite, once per exception mechanism, for both cycle kernels
(``reference`` and ``fused``) interleaved in one process, and writes the
one engine perf ledger, ``BENCH_engine.json`` (see
``benchmarks/perf/README.md`` for the protocol and the committed
numbers).  The ledger stamps host, Python, commit and protocol.

The protocol is deliberately modest -- short runs, best-of-N timing --
so it finishes in a couple of minutes on one core while still being
dominated (>95%) by the cycle loop rather than setup.  Construction
(program build, page-table setup, cache prewarm) is excluded from the
timed region, and reps are isolated (fresh simulators, collected heap)
so best-of-N compares like against like.

Two gates, usable together: ``--baseline FILE --max-drop F`` fails when
either kernel drops past ``F`` against its own entry in a committed
ledger, and ``--min-speedup X`` fails when the fused kernel's aggregate
is less than ``X`` times the reference kernel's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.engine import ENGINES, core_class
from repro.sim.config import MECHANISMS, MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads.suite import BENCHMARKS

#: Timed run lengths (per benchmark).
USER_INSTS = 4_000
WARMUP_INSTS = 1_000
MAX_CYCLES = 5_000_000

#: Pre-optimization engine throughput on the reference host (commit
#: 69ca06f, the growth seed), measured with this same protocol
#: interleaved against the optimized engine on one core.  Kept in the
#: ledger so it records the speedup the engine work since then claims.
BASELINE_IPS = {
    "perfect": 16596.3,
    "traditional": 13916.1,
    "multithreaded": 13797.6,
    "hardware": 16496.0,
    "quickstart": 12550.4,
}


def measure_mechanism(mechanism: str, reps: int, core_cls=None) -> float:
    """Best-of-``reps`` suite throughput (user instrs/sec) for one
    mechanism under a kernel's core class (``None``: reference).

    Reps are isolated: every rep builds fresh programs and simulators,
    and starts from a collected heap -- without the collection, garbage
    left by rep N is collector work billed to rep N+1, so best-of-N
    would quietly favour whichever rep ran first (and, with two kernels
    interleaved, whichever kernel ran first).
    """
    best = 0.0
    for _ in range(reps):
        gc.collect()
        insts = 0
        seconds = 0.0
        for name in BENCHMARKS:
            config = MachineConfig(mechanism=mechanism, idle_threads=1)
            sim = Simulator(
                [BENCHMARKS[name].build(0)], config, core_cls=core_cls
            )
            start = time.perf_counter()
            result = sim.run(
                user_insts=USER_INSTS,
                max_cycles=MAX_CYCLES,
                warmup_insts=WARMUP_INSTS,
            )
            seconds += time.perf_counter() - start
            insts += result.retired_user
        best = max(best, insts / seconds)
    return best


def aggregate(per_mechanism: dict[str, float]) -> float:
    """Harmonic mean across mechanisms (equal suite weight each)."""
    return len(per_mechanism) / sum(1.0 / v for v in per_mechanism.values())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """``git describe`` of the measured sources (``-dirty`` marks
    uncommitted edits), or ``unknown`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _stamp(reps: int) -> dict:
    return {
        "host": {
            "cpu": _cpu_model(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "python": platform.python_version(),
        "commit": _commit(),
        "protocol": {
            "suite": list(BENCHMARKS),
            "user_insts": USER_INSTS,
            "warmup_insts": WARMUP_INSTS,
            "reps_best_of": reps,
            "kernels": list(ENGINES),
            "order": "per mechanism, reference then fused, one process",
        },
    }


def run_compare(reps: int = 3) -> dict:
    """Measure both kernels interleaved and build the ledger.

    Per mechanism, the reference suite pass and the fused suite pass run
    back to back (same process, same core, reps isolated), so the
    speedups compare equal-resource measurements rather than two runs
    taken under different machine load.
    """
    per: dict[str, dict[str, float]] = {kernel: {} for kernel in ENGINES}
    for mechanism in MECHANISMS:
        for kernel in ENGINES:
            per[kernel][mechanism] = round(
                measure_mechanism(mechanism, reps, core_class(kernel)), 1
            )
        ref, fused = per["reference"][mechanism], per["fused"][mechanism]
        print(
            f"{mechanism:<14}reference {ref:>10.1f}  "
            f"fused {fused:>10.1f} instrs/sec  (x{fused / ref:.2f})",
            flush=True,
        )
    engines = {
        kernel: {"instrs_per_sec": ips, "aggregate": round(aggregate(ips), 1)}
        for kernel, ips in per.items()
    }
    ref, fused = per["reference"], per["fused"]
    speedup = {mech: round(fused[mech] / ref[mech], 2) for mech in MECHANISMS}
    speedup["aggregate"] = round(
        engines["fused"]["aggregate"] / engines["reference"]["aggregate"], 3
    )
    return {
        **_stamp(reps),
        "engines": engines,
        "fused_speedup": speedup,
        "baseline": {
            "note": "pre-optimization engine (growth seed), same protocol",
            "instrs_per_sec": BASELINE_IPS,
            "aggregate": round(aggregate(BASELINE_IPS), 1),
        },
    }


def check_gate(
    report: dict, baseline: dict, max_drop: float
) -> tuple[list[tuple[str, float | None, float, float | None, bool]], bool]:
    """Gate each kernel of a fresh report against its own baseline entry.

    Returns ``(rows, ok)`` where each row is ``(name, baseline_ips,
    measured_ips, delta_fraction, within_gate)`` and ``name`` is
    ``kernel/mechanism`` or ``kernel/aggregate``.  A row trips the gate
    when it drops by more than ``max_drop`` (a fraction, e.g. ``0.15``)
    -- improvements never do -- or when the baseline lacks it: its
    ``baseline_ips`` and ``delta_fraction`` are then ``None``, so a stale
    or mismatched baseline fails loudly instead of gating nothing.
    """
    rows = []
    base_engines = baseline.get("engines", {})
    for kernel, entry in report["engines"].items():
        base_entry = base_engines.get(kernel, {})
        base_ips = {
            **base_entry.get("instrs_per_sec", {}),
            "aggregate": base_entry.get("aggregate"),
        }
        for name, now in {
            **entry["instrs_per_sec"], "aggregate": entry["aggregate"]
        }.items():
            base = base_ips.get(name)
            if not base:
                rows.append((f"{kernel}/{name}", None, now, None, False))
                continue
            delta = now / base - 1.0
            rows.append((f"{kernel}/{name}", base, now, delta, delta >= -max_drop))
    return rows, all(within for *_, within in rows)


def format_gate_summary(
    rows: list[tuple[str, float | None, float, float | None, bool]],
    ok: bool,
    max_drop: float,
) -> str:
    """Render gate rows as a GitHub-flavored markdown table."""
    lines = [
        f"### Engine perf gate ({'PASS' if ok else 'FAIL'}, "
        f"max drop {max_drop:.0%})",
        "",
        "| kernel/mechanism | baseline (instrs/s) | measured (instrs/s) | delta | gate |",
        "|---|---:|---:|---:|---|",
    ]
    for name, base, now, delta, within in rows:
        if base is None:
            lines.append(
                f"| {name} | missing | {now:.1f} | - | **MISSING FROM BASELINE** |"
            )
            continue
        lines.append(
            f"| {name} | {base:.1f} | {now:.1f} | {delta:+.1%} "
            f"| {'ok' if within else '**REGRESSION**'} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.sim.perfbench",
        description="Measure both cycle kernels interleaved and write "
        "the engine perf ledger (BENCH_engine.json).",
    )
    parser.add_argument(
        "--reps", type=int, default=3, help="best-of repetitions (default 3)"
    )
    parser.add_argument(
        "--output", default="BENCH_engine.json",
        help="output path (default BENCH_engine.json)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="FACTOR",
        help="exit 1 unless the fused kernel's aggregate throughput is at "
        "least FACTOR times the reference kernel's",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="committed BENCH_engine.json to gate against; exit 1 when "
        "either kernel's mechanism (or aggregate) regresses past "
        "--max-drop or is missing from FILE",
    )
    parser.add_argument(
        "--max-drop", type=float, default=0.15, metavar="FRACTION",
        help="largest tolerated throughput drop vs the baseline "
        "(default 0.15)",
    )
    parser.add_argument(
        "--summary", metavar="FILE", default=None,
        help="append a markdown delta table here (defaults to "
        "$GITHUB_STEP_SUMMARY when set)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.max_drop < 1:
        parser.error(f"--max-drop must be in [0, 1), got {args.max_drop}")
    # Read the baseline before measuring: --output may name the same file.
    baseline = None
    if args.baseline is not None:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    report = run_compare(reps=args.reps)
    speedup = report["fused_speedup"]["aggregate"]
    line = (
        f"\nfused {report['engines']['fused']['aggregate']:.1f} vs reference "
        f"{report['engines']['reference']['aggregate']:.1f} instrs/sec "
        f"(x{speedup:.3f} aggregate)"
    )
    ok = True
    if args.min_speedup is not None:
        ok = speedup >= args.min_speedup
        line += (
            f" -- gate >= x{args.min_speedup:.2f}: "
            f"{'PASS' if ok else 'FAIL'}"
        )
    print(line + f" -> {args.output}")
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if baseline is None:
        return 0 if ok else 1
    rows, within = check_gate(report, baseline, args.max_drop)
    summary = format_gate_summary(rows, within, args.max_drop)
    print("\n" + summary, end="")
    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write(summary + "\n")
    return 0 if ok and within else 1


if __name__ == "__main__":
    sys.exit(main())
