"""A/B a change against another commit on the end-to-end benchmark.

    python3 benchmarks/ab.py --against REV [--workload W ...]

Builds REV with ``git archive`` under ``.bench_e2e/ab/``, gives that tree
this checkout's ``benchmarks/e2e`` and ``BENCHMARK.json`` (so both sides
run the same benchmark and golden results), and measures each side's own
``src``: the parent is REV, the change is this checkout as it stands.
Each workload (default: every one in ``BENCHMARK.json``) first runs once
per tree untimed, which fills the bytecode and fused-kernel caches on
both sides, then runs in ten pairs of
``benchmarks/e2e/run.py --workload W --seed S --seconds <run_seconds>``:
one seed per pair, consecutive from the benchmark's default seed, and
the side that goes first alternating.

For each workload and end-to-end metric it prints each side's median
and quartiles, the pairs the change won and lost, and a verdict; its
last line is one JSON report stamped with host, Python, both commits
and the protocol.  It exits 0 on a pass, 1 on a failed verdict and 2
when REV does not resolve or a tree cannot be built.  The rule:

* a run that exits non-zero or prints ``"correct": false`` fails ("parent
  failed" on the parent side: nothing can be compared);
* a larger failed share (``failed`` / ``attempted``) on the change side
  fails;
* a metric whose change median is worse than the parent's by more than
  its ``BENCHMARK.json`` bound fails, unless the parent's quartile spread
  is wider than the bound: then it is unresolved, and fails only when
  every change run is worse than every parent run;
* ``cells_per_s`` lower in at least 9 of 10 pairs (ties count for
  neither side) with the medians further apart than the parent's
  quartile spread fails, so a consistent throughput loss inside the
  bound still shows;
* the mirror of that rule, on any metric, is reported as a gain.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.common import DEFAULT_SEED, WORK, spread  # noqa: E402

#: Pairs per workload: the fewest that the 9-of-10 rule can be read on.
PAIRS = 10
#: Pairs a side must win for a consistent gain (or loss).
CONSISTENT = 9
#: The metric a consistent loss inside its bound still fails.
THROUGHPUT = "cells_per_s"
#: Seconds of the untimed run that fills each tree's caches.
WARMUP_SECONDS = 1
SIDES = ("parent", "change")

#: ``runner(side, workload, seed, seconds)`` -> one run's result line
#: plus ``exit``, ``digest`` and ``wall_s``.
Runner = Callable[[str, str, int, float], dict]


def load_benchmark(root: Path = ROOT) -> dict:
    with (root / "BENCHMARK.json").open() as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Trees and runs.

class BuildError(Exception):
    """REV does not resolve, or its tree cannot be built."""


def _git(*args: str) -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)
    if proc.returncode:
        raise BuildError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def resolve(rev: str) -> str:
    try:
        return _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    except BuildError:
        raise BuildError(f"{rev} does not resolve to a commit") from None


def change_commit() -> str:
    """This checkout's HEAD, ``+dirty`` when tracked files are edited."""
    head = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return head + ("+dirty" if dirty else "")


def build_tree(sha: str) -> Path:
    """``git archive`` of ``sha`` with this checkout's benchmark."""
    tree = WORK / "ab" / sha[:12]
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                          capture_output=True)
    if proc.returncode:
        raise BuildError(f"git archive {sha}: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(tree, **safe)
    shutil.rmtree(tree / "benchmarks" / "e2e", ignore_errors=True)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tree / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    if not (tree / "src" / "repro" / "__init__.py").is_file():
        raise BuildError(f"{sha[:12]} has no src/repro")
    return tree


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` of ``tree``: its result line, exit status, results
    digest and wall time."""
    cmd = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate()
    except BaseException:
        # SIGTERM, not SIGKILL: run.py must stop the nodes it started.
        proc.terminate()
        proc.wait()
        raise
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    lines = stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    digest = next((line.split()[1] for line in lines
                   if line.strip().startswith("results_digest ")), "")
    return {**result, "exit": proc.returncode, "digest": digest,
            "wall_s": round(time.monotonic() - start, 2)}


# ----------------------------------------------------------------------
# Measuring and judging.

def measure(workload: str, runner: Runner, seconds: float) -> dict:
    """The untimed run per side, then :data:`PAIRS` alternating pairs."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    warmup = {side: runner(side, workload, DEFAULT_SEED, WARMUP_SECONDS)
              for side in SIDES}
    for i in range(PAIRS):
        seed = DEFAULT_SEED + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            run = runner(side, workload, seed, seconds)
            runs[side].append(run)
            print(f"  pair {i + 1:2d} {side:6s} seed {seed}: "
                  f"{run.get('metrics', {}).get(THROUGHPUT, {}).get('value', 'n/a')} "
                  f"{THROUGHPUT}, exit {run['exit']}, {run['wall_s']} s", flush=True)
    return {"warmup": warmup, "runs": runs}


def _ok(run: dict) -> bool:
    return run["exit"] == 0 and run.get("correct") is True


def _failed_share(runs: list[dict]) -> float:
    attempted = sum(r.get("attempted", 0) for r in runs)
    return sum(r.get("failed", 0) for r in runs) / attempted if attempted else 0.0


def _worse(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of
    ``parent`` (negative when better)."""
    delta = change - parent if better == "lower" else parent - change
    if parent:
        return delta / abs(parent)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def judge_metric(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, pairs won and lost, and the verdict of one
    metric over paired runs (``parent[i]`` and ``change[i]`` share a seed)."""
    better = spec["better"]
    p, c = spread(parent), spread(change)
    won = sum(_worse(a, b, better) < 0 for a, b in zip(parent, change))
    lost = sum(_worse(a, b, better) > 0 for a, b in zip(parent, change))
    worse = _worse(p["median"], c["median"], better)
    parent_iqr = p["q3"] - p["q1"]
    apart = abs(c["median"] - p["median"]) > parent_iqr
    if worse > spec["bound"]:
        all_worse = all(_worse(a, b, better) > 0 for a in parent for b in change)
        if p["spread"] <= spec["bound"] or all_worse:
            verdict = "worse"
        else:
            verdict = "unresolved"
    elif spec["name"] == THROUGHPUT and lost >= CONSISTENT and apart:
        verdict = "loss"
    elif won >= CONSISTENT and apart:
        verdict = "gain"
    else:
        verdict = "same"
    return {
        "unit": spec["unit"],
        "parent": {**p, "values": parent},
        "change": {**c, "values": change},
        "worse": worse,
        "won": won,
        "lost": lost,
        "verdict": verdict,
    }


#: Verdicts that fail the A/B.
FAILING = {"worse", "loss"}


def judge(workload: str, measured: dict, metrics: list[dict]) -> dict:
    """The verdict for one workload: failures (empty on a pass) and a
    row per end-to-end metric."""
    failures = []
    runs = measured["runs"]
    for side in SIDES:
        bad = [r for r in [measured["warmup"][side], *runs[side]] if not _ok(r)]
        if bad:
            who = "parent failed" if side == "parent" else "change failed"
            failures.append(f"{workload}: {who}: {len(bad)} run(s) exited "
                            f"{sorted({r['exit'] for r in bad})} or were not correct")
    shares = {side: _failed_share(runs[side]) for side in SIDES}
    if shares["change"] > shares["parent"]:
        failures.append(f"{workload}: failed share rose from "
                        f"{shares['parent']:.4g} to {shares['change']:.4g}")
    rows = {}
    if not failures:
        for spec in metrics:
            name = spec["name"]
            rows[name] = judge_metric(
                spec,
                [r["metrics"][name]["value"] for r in runs["parent"]],
                [r["metrics"][name]["value"] for r in runs["change"]],
            )
            if rows[name]["verdict"] in FAILING:
                failures.append(f"{workload}: {name} {rows[name]['verdict']} "
                                f"({rows[name]['worse']:+.1%} worse, "
                                f"lost {rows[name]['lost']} of {PAIRS} pairs)")
    return {
        "failures": failures,
        "failed_share": shares,
        "metrics": rows,
        "digests": {side: sorted({r["digest"] for r in runs[side]}) for side in SIDES},
        "wall_s": {side: round(sum(r["wall_s"] for r in runs[side]), 1) for side in SIDES},
    }


def _fmt(value: float) -> str:
    return f"{value:.5g}"


def print_table(workload: str, result: dict) -> None:
    seeds = f"{DEFAULT_SEED}..{DEFAULT_SEED + PAIRS - 1}"
    print(f"== {workload}: {PAIRS} pairs, seeds {seeds}")
    print(f"  {'metric':16s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'worse':>8s} {'won':>4s} "
          f"{'lost':>4s}  verdict")
    for name, row in result["metrics"].items():
        sides = [f"{_fmt(row[s]['median'])} [{_fmt(row[s]['q1'])}, "
                 f"{_fmt(row[s]['q3'])}]" for s in SIDES]
        print(f"  {name:16s} {sides[0]:>32s} {sides[1]:>32s} "
              f"{row['worse']:+8.1%} {row['won']:4d} {row['lost']:4d}  {row['verdict']}")
    for failure in result["failures"]:
        print(f"  FAIL: {failure}")


def compare(workloads: list[str], runner: Runner, bench: dict) -> dict:
    """Measure and judge every workload; the report without its stamp."""
    report = {"verdict": "pass", "failures": [], "workloads": {}}
    for workload in workloads:
        print(f"== {workload}: untimed run per side, then {PAIRS} pairs", flush=True)
        result = judge(workload, measure(workload, runner, bench["run_seconds"]),
                       bench["end_to_end"])
        print_table(workload, result)
        report["workloads"][workload] = result
        report["failures"] += result["failures"]
    if report["failures"]:
        report["verdict"] = "fail"
    return report


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks/ab.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the commit to compare this checkout against")
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to measure (repeatable; default: all)")
    args = parser.parse_args(argv)
    try:
        parent = resolve(args.against)
        change = change_commit()
        trees = {"parent": build_tree(parent), "change": ROOT}
    except BuildError as err:
        print(f"ab: {err}", file=sys.stderr)
        return 2
    print(f"ab: parent {parent[:12]} ({args.against}), change {change[:12]}"
          f"{'+dirty' if change.endswith('+dirty') else ''}", flush=True)
    start = time.monotonic()
    report = compare(args.workload or names,
                     lambda side, *a: run_tree(trees[side], *a), bench)
    report.update(
        host=host(),
        python=sys.version.split()[0],
        commits={"parent": parent, "change": change},
        protocol={"pairs": PAIRS, "run_seconds": bench["run_seconds"],
                  "seeds": [DEFAULT_SEED, DEFAULT_SEED + PAIRS - 1],
                  "order": "alternating, parent first in odd pairs",
                  "warmup": f"one untimed {WARMUP_SECONDS}-s run per tree and workload"},
        wall_s=round(time.monotonic() - start, 1),
    )
    print(f"ab: {report['verdict']} in {report['wall_s']} s")
    print(json.dumps(report))
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
