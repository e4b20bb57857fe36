"""The repository's end-to-end benchmark.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace 0|1]
                                  [--repeat N] [--update-golden]

Workloads (see README.md): ``kernel`` (the simulator in process),
``paper`` (``repro-experiments all``), ``serve-cold`` and ``serve-hot``
(one sweep-service node, cold and warm store).  Without ``--workload``
every workload runs, each in a fresh interpreter.

Each run prints its metrics by name and unit, checks every result
against ``golden.json``, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics, or
with ``--trace 1`` the per-layer ones.  A traced run measures the
workload untraced and then traced, writes ``.bench_e2e/trace/<workload>``
(per-process span files, ``trace.json`` for chrome://tracing or Perfetto,
``layers.json``), and prints the per-layer table, where the time goes,
and the tracing overhead.  ``--repeat N`` runs N fresh interpreters with
seeds SEED..SEED+N-1 and prints each metric's median, quartiles and
spread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
# Import the benchmark as the ``benchmarks.e2e`` package: its own
# directory on sys.path would shadow the standard ``trace`` module.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
sys.path.insert(0, str(_HERE.parents[1]))

from benchmarks.e2e import common  # noqa: E402
from benchmarks.e2e.common import (  # noqa: E402
    DEFAULT_SEED,
    E2E_UNITS,
    PARALLEL,
    WORK,
    WORKLOADS,
    Outcome,
)

DEFAULT_SECONDS = 20


def measure(workload: str, seed: int, seconds: float, golden: dict) -> Outcome:
    """One untraced run of ``workload``."""
    if workload == "kernel":
        from benchmarks.e2e import kernel

        return kernel.run(seed, seconds, golden["kernel"])
    if workload == "paper":
        from benchmarks.e2e import paper

        return paper.run(seed, seconds, golden["paper"])
    from benchmarks.e2e import serve

    return serve.run(workload, seed, seconds, golden["serve"])


def measure_traced(workload: str, seed: int, seconds: float, golden: dict,
                   trace_dir: Path) -> tuple[Outcome, dict]:
    """One traced run; returns it and the context :mod:`layers` needs."""
    from benchmarks.e2e import trace

    context: dict = {"workers": PARALLEL}
    if workload == "kernel":
        from benchmarks.e2e import kernel

        tracer = trace.install(trace_dir)
        try:
            out = kernel.run(seed, seconds, golden["kernel"], tracer=tracer)
        finally:
            trace.uninstall()
        speedup, cells, mismatches = kernel.fused_speedup(seed, golden["kernel"])
        out.attempted += cells
        for cid in mismatches:
            out.fail(1, f"{cid}: fused kernel result differs from reference")
        context.update(rounds=out.extra["passes"][0], fused_speedup=speedup)
        return out, context
    if workload == "paper":
        from benchmarks.e2e import paper

        out = paper.run(seed, seconds, golden["paper"], trace_dir=trace_dir)
        context.update(
            rounds=out.attempted // len(paper.EXPERIMENTS),
            wall_s=out.extra["wall_s"][0],
            experiments={
                e: out.extra[f"experiments.{e}_s"][0]
                for e in paper.EXPERIMENTS
                if f"experiments.{e}_s" in out.extra
            },
            accuracy={k: v[0] for k, v in out.extra.items() if k.startswith("accuracy.")},
        )
        return out, context
    from benchmarks.e2e import serve

    client_tracer = trace.Tracer(trace_dir)
    out = serve.run(workload, seed, seconds, golden["serve"],
                    trace_dir=trace_dir, tracer=client_tracer)
    client_tracer.flush()
    context.update(
        # serve-hot simulates only its 40-cell fill; serve-cold 40 a lap.
        rounds=1 if workload == "serve-hot" else out.extra["cells"][0] / 40,
        server_life_s=out.extra["server_life_s"][0],
        simulated_frac=out.extra["serve.simulated_frac"][0],
        hot_fill_s=out.extra.get("serve.hot_fill_s", (0.0,))[0],
        first_cell_ms=out.extra.get("client.first_cell_ms", (0.0,))[0],
    )
    return out, context


# ----------------------------------------------------------------------
# Output.

def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_outcome(out: Outcome, title: str) -> None:
    print(f"== {out.workload} (seed {out.seed}) {title}")
    for name, (value, unit) in out.metrics.items():
        print(f"  {name:28s} {_fmt(value):>14s} {unit}")
    for name, (value, unit) in out.extra.items():
        print(f"  {name:28s} {_fmt(value):>14s} {unit}   (not gated)")
    frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'fail_frac':28s} {_fmt(frac):>14s} ratio  "
          f"({out.failed} of {out.attempted} operations)")
    print(f"  results_digest {out.results_digest}")
    for problem in out.problems:
        print(f"  PROBLEM: {problem}")


def result_line(out: Outcome, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": out.correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def run_one(args) -> int:
    common.scrub_environment()
    golden = common.load_golden()
    if not args.trace:
        out = measure(args.workload, args.seed, args.seconds, golden)
        print_outcome(out, "end to end")
        print(result_line(out, {k: out.metrics[k] for k in E2E_UNITS}))
        return 0 if out.correct else 1

    from benchmarks.e2e import layers, trace
    from repro.obs.chrome import validate_chrome_trace

    base = measure(args.workload, args.seed, args.seconds, golden)
    print_outcome(base, "untraced")
    trace_dir = WORK / "trace" / args.workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    out, context = measure_traced(args.workload, args.seed, args.seconds,
                                  golden, trace_dir)
    print_outcome(out, "traced")
    if out.results_digest != base.results_digest:
        out.fail(1, "traced results_digest differs from the untraced run")
    out.attempted += base.attempted
    out.failed += base.failed
    out.problems += [f"untraced: {p}" for p in base.problems]
    merged = trace.load(trace_dir)
    doc = trace.chrome_trace(merged)
    errors = validate_chrome_trace(doc)
    if errors:
        out.problems.append(f"chrome trace invalid: {errors[:3]}")
    (trace_dir / "trace.json").write_text(json.dumps(doc))
    line, table = layers.compute(merged, context)
    (trace_dir / "layers.json").write_text(json.dumps(table, indent=1, sort_keys=True))

    print(f"== per-layer metrics ({context['rounds']:.4g} rounds traced)")
    for name, value in table.items():
        print(f"  {name:40s} {_fmt(value):>14s}")
    print("== where the time goes (self time over every traced process)")
    print(f"  {'span':32s} {'calls':>10s} {'incl s':>9s} {'self s':>9s} {'share':>7s}")
    for name, n, incl, self_s, share in layers.where_time_goes(merged):
        print(f"  {name:32s} {n:10d} {incl:9.3f} {self_s:9.3f} {share:7.1%}")
    print("== tracing overhead (traced - untraced)")
    for name, (value, unit) in base.metrics.items():
        traced_value = out.metrics[name][0]
        delta = traced_value - value
        print(f"  {name:28s} {_fmt(delta):>12s} {unit} "
              f"({_fmt(100 * delta / value if value else 0.0)}%)")
    print(f"  chrome trace: {trace_dir / 'trace.json'} "
          f"({len(doc['traceEvents'])} events, "
          f"{'valid' if not errors else 'INVALID'})")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    print(result_line(out, {k: (line[k], units[k]) for k in units}))
    return 0 if out.correct else 1


def _child(workload: str, seed: int, args) -> dict:
    """Run one workload in a fresh interpreter; echo its output and
    return its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate()
    except BaseException:
        # SIGTERM, not SIGKILL: the child must stop the nodes it started.
        proc.terminate()
        proc.wait()
        raise
    sys.stdout.write(stdout)
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def run_many(args) -> int:
    """All workloads and/or repeated seeds, each in its own interpreter."""
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    repeat = args.repeat or 1
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for i in range(repeat):
            result = _child(workload, args.seed + i, args)
            summary["correct"] &= bool(result["correct"])
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        if repeat > 1:
            print(f"== {workload}: {repeat} runs, seeds {args.seed}..{args.seed + repeat - 1}")
            print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, vals in values.items():
            stats = common.spread(vals)
            if repeat > 1:
                print(f"  {name:28s} {_fmt(stats['median']):>12s} "
                      f"{_fmt(stats['q1']):>12s} {_fmt(stats['q3']):>12s} "
                      f"{stats['spread']:8.2%}")
            summary["metrics"][f"{workload}/{name}"] = {
                "value": stats["median"], "unit": units[name],
                "q1": stats["q1"], "q3": stats["q3"], "spread": stats["spread"],
                "values": vals,
            }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def update_golden() -> int:
    common.scrub_environment()
    from benchmarks.e2e import kernel, paper, serve

    golden = {
        "about": "Digests for benchmarks/e2e/run.py; regenerate with "
        "--update-golden only when the model's results change on purpose.",
        "kernel": kernel.make_golden(),
        "paper": paper.make_golden(),
        "serve": serve.make_golden(),
    }
    common.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {common.GOLDEN}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still stops what it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common.ensure_source()
    try:
        if args.update_golden:
            return update_golden()
        if args.workload and not args.repeat:
            return run_one(args)
        return run_many(args)
    finally:
        for path in WORK.glob(f"*-{os.getpid()}"):
            shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
