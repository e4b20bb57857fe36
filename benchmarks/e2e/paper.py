"""``paper`` workload: the reader's reproduction command, cold.

Runs ``python -m repro.experiments all --jobs 2`` at ``REPRO_SCALE=0.15``
with a fresh result cache, as a child process, and times it from
outside: the command's wall, each experiment from its ``[name]`` header
to its ``(name took ...)`` line (stdout is unbuffered), and set-up as
launch to first header.  It exercises the experiments, the
``sim.parallel`` pool runner and result cache, the serial table2/table3
paths, and fig7's 3-thread SMT mixes.  The command has no generated
inputs, so the seed changes nothing; the command reruns, whole, until
the run's seconds are spent.  Timings leave out the short pauses in
which the host's speed is sampled (``common.HostSpeed``).
"""

from __future__ import annotations

import hashlib
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.common import (
    HERE,
    HostSpeed,
    Outcome,
    child_env,
    digest_of,
    kill_group,
    scratch_dir,
    timing_metrics,
    vm_hwm_mb,
)

SCALE = "0.15"
JOBS = 2
ARGS = ("all", "--jobs", str(JOBS))
EXPERIMENTS = ("fig2", "fig3", "table2", "fig5", "table3", "fig6", "fig7", "table4")
#: Extra launches per run that stop at the first experiment, so set-up
#: time is a median of several samples.
SETUP_SAMPLES = 3

_HEADER = re.compile(r"^\[(\w+)\]$")
_TOOK = re.compile(r"^\((\w+) took [0-9.]+s\)$")


def _argv(trace_dir: Path | None) -> list[str]:
    if trace_dir is None:
        return [sys.executable, "-u", "-m", "repro.experiments", *ARGS]
    return [
        sys.executable, "-u", str(HERE / "boot.py"), str(trace_dir),
        "repro.experiments", *ARGS,
    ]


def _launch(argv: list[str], cache: Path, host: HostSpeed) -> subprocess.Popen:
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=child_env(REPRO_SCALE=SCALE, REPRO_CACHE_DIR=str(cache)),
        start_new_session=True,
    )
    host.watch(proc.pid)
    return proc


def _kill_group(proc: subprocess.Popen, host: HostSpeed) -> None:
    """Stop the command and any pool workers it started."""
    host.watch(None)
    kill_group(proc)
    proc.stdout.close()


def setup_sample(work: Path, index: int, host: HostSpeed) -> tuple[float, float]:
    """Launch, wait for the first experiment header, and stop; returns
    the ``perf_counter`` readings at launch and at the header."""
    start = time.perf_counter()
    proc = _launch(_argv(None), work / f"setup-cache-{index}", host)
    try:
        for line in proc.stdout:
            if _HEADER.match(line.strip()):
                return start, time.perf_counter()
        raise RuntimeError("experiments exited before the first experiment")
    finally:
        _kill_group(proc, host)


def run_once(work: Path, index: int, host: HostSpeed,
             trace_dir: Path | None = None) -> dict:
    """One cold ``all`` run.  Returns ``perf_counter`` readings (launch,
    first header, each experiment's header and ``took`` line, exit), the
    output blocks, the exit status, the command's peak RSS and the
    largest of it and its pool workers' (``wait4``), and how many cells
    its result cache holds."""
    cache = work / f"cache-{index}"
    start = time.perf_counter()
    proc = _launch(_argv(trace_dir), cache, host)
    blocks: dict[str, list[str]] = {}
    began: dict[str, float] = {}
    took: dict[str, float] = {}
    current = None
    rss = 0.0
    try:
        for raw in proc.stdout:
            now = time.perf_counter()
            # VmHWM only grows; the last reading, after table4, is the peak.
            rss = max(rss, vm_hwm_mb(proc.pid))
            line = raw.rstrip("\n")
            header = _HEADER.match(line.strip())
            if header:
                current = header.group(1)
                began[current] = now
                blocks[current] = []
                continue
            done = _TOOK.match(line.strip())
            if done:
                took[done.group(1)] = now
                continue
            if current is not None and not set(line) <= {"="}:
                blocks[current].append(line)
        # wait4, not wait: its rusage is this child's alone.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        _kill_group(proc, host)
        raise
    end = time.perf_counter()
    host.watch(None)
    proc.stdout.close()
    return {
        "start": start,
        "end": end,
        "began": began,
        "took": took,
        "blocks": {k: "\n".join(v).strip() + "\n" for k, v in blocks.items()},
        "returncode": proc.returncode,
        "rss_mb": rss,
        "workers_rss_mb": usage.ru_maxrss / 1024,
        "cells": sum(1 for _ in cache.glob("*.pkl")),
    }


def block_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def accuracy(blocks: dict[str, str]) -> dict[str, float]:
    """The paper's headline claims, read off the printed tables: Fig 5
    traditional / multithreaded(1) average penalty (paper 1.94), Fig 7
    multithreaded(1) average penalty reduction (paper 25%), and the share
    of the multithreaded-to-hardware gap that instant handler
    fetch/decode recovers in Table 3 (paper 64%)."""

    def average_row(text: str) -> list[float]:
        for line in text.splitlines():
            if line.startswith("average"):
                return [float(x) for x in line.split()[1:]]
        raise ValueError("no average row")

    def table3_value(text: str, label: str) -> float:
        for line in text.splitlines():
            if line.startswith(label + " ") and line[len(label):].strip():
                return float(line.split()[-1])
        raise ValueError(f"no {label!r} row")

    fig5 = average_row(blocks["fig5"])
    fig7 = average_row(blocks["fig7"])
    t3 = blocks["table3"]
    mt = table3_value(t3, "Multithreaded")
    instant = table3_value(t3, "Multi w/ instant handler fetch/decode")
    hardware = table3_value(t3, "Hardware TLB miss handler")
    return {
        "accuracy.fig5_trad_over_mt1": fig5[0] / fig5[1],
        "accuracy.fig7_mt1_reduction_pct": 100 * (1 - fig7[1] / fig7[0]),
        "accuracy.table3_instant_recovery_pct": 100 * (mt - instant) / (mt - hardware),
    }


def check(out: Outcome, run: dict, golden: dict) -> None:
    """Count every experiment whose output differs from golden."""
    expected = golden["experiments"]
    for exp in EXPERIMENTS:
        out.attempted += 1
        text = run["blocks"].get(exp)
        if run["returncode"] != 0:
            out.fail(1, f"{exp}: command exited {run['returncode']}")
        elif text is None or exp not in run["took"]:
            out.fail(1, f"{exp}: missing from the output")
        elif block_digest(text) != expected.get(exp):
            out.fail(1, f"{exp}: output differs from golden")


def run(seed: int, seconds: float, golden: dict, trace_dir: Path | None = None) -> Outcome:
    out = Outcome("paper", seed)
    work = scratch_dir("paper")
    host = HostSpeed()
    with host.freezing():
        setups = [] if trace_dir is not None else [
            setup_sample(work, i, host) for i in range(SETUP_SAMPLES)
        ]
        runs = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            result = run_once(work, len(runs), host, trace_dir)
            check(out, result, golden)
            runs.append(result)
    setups += [(r["start"], min(r["began"].values())) for r in runs if r["began"]]
    cells = sum(r["cells"] for r in runs)

    def timed(span):
        walls = [span(r["start"], r["end"]) for r in runs]
        return timing_metrics(
            statistics.median(span(a, b) for a, b in setups),
            cells / sum(walls),
            [w * 1000 for w in walls],
        )

    out.record(host, timed, len(runs))
    out.metrics["peak_rss_mb"] = (max(r["rss_mb"] for r in runs), "MB")
    out.extra["workers.peak_rss_mb"] = (max(r["workers_rss_mb"] for r in runs), "MB")
    out.extra["wall_s"] = (out.metrics["latency_p50_ms"][0] / 1000, "s")
    out.extra["cached_cells"] = (runs[0]["cells"], "count/run")
    for exp in EXPERIMENTS:
        took = [host.span(r["began"][exp], r["took"][exp])
                for r in runs if exp in r["took"]]
        if took:
            out.extra[f"experiments.{exp}_s"] = (statistics.median(took), "s")
    if out.correct:
        for key, value in accuracy(runs[0]["blocks"]).items():
            out.extra[key] = (value, "%" if key.endswith("_pct") else "ratio")
    out.results_digest = digest_of(
        {k: block_digest(v) for k, v in runs[0]["blocks"].items()}
    )
    return out


def make_golden() -> dict:
    work = scratch_dir("paper-golden")
    result = run_once(work, 0, HostSpeed())
    if result["returncode"] != 0:
        raise RuntimeError(f"experiments exited {result['returncode']}")
    return {
        "scale": SCALE,
        "experiments": {
            exp: block_digest(result["blocks"][exp]) for exp in EXPERIMENTS
        },
    }
