"""``kernel`` workload: the simulator alone, in process, serial.

Each pass runs the 8 suite benchmarks x 5 mechanisms (the perfect cells
are the same programs with the exceptions layer bypassed) at 2000
measured + 500 warm-up instructions, in a seed-shuffled order, with the
default (reference) engine.  Passes repeat, whole, until the run's
seconds are spent -- four or more on the calibration host.  It stresses
pipeline, memory, branch and exceptions and nothing else: no pool, no
cache, no service.

Set-up time and throughput use each cell's median over the passes, so a
burst of host noise in one pass does not move them; the latency
percentiles are over every cell run.  Before each cell, outside its
timing, a garbage collection gives every cell the same collector state
whatever ran before it, and a host-speed sample is taken (see
``common.HostSpeed``).
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time

from benchmarks.e2e.common import (
    INSTS,
    WARMUP,
    HostSpeed,
    Outcome,
    digest_of,
    result_digest,
    suite,
    timing_metrics,
)


def grid() -> list[tuple[str, str]]:
    names, mechs = suite()
    return [(bench, mech) for bench in names for mech in mechs]


def run_cell(bench: str, mech: str, core_cls=None, insts: int = INSTS):
    """Build, construct and run one cell; returns ``(result, retired,
    times)`` where ``retired`` counts warm-up instructions too and
    ``times`` are the ``perf_counter`` readings before the build, after
    construction, and after the run."""
    from repro.sim.config import MachineConfig
    from repro.sim.simulator import Simulator
    from repro.workloads import suite

    t0 = time.perf_counter()
    program = suite.build_benchmark(bench)
    sim = Simulator(program, MachineConfig(mechanism=mech), core_cls=core_cls)
    t1 = time.perf_counter()
    result = sim.run(user_insts=insts, warmup_insts=WARMUP)
    t2 = time.perf_counter()
    return result, sim.core.stats.retired_user, (t0, t1, t2)


def run(seed: int, seconds: float, golden: dict, tracer=None, cells=None) -> Outcome:
    """Run whole passes for ``seconds``; check every cell against the
    golden digests and against its first pass."""
    cells = cells or grid()
    out = Outcome("kernel", seed)
    rng = random.Random(seed)
    host = HostSpeed(probes=2, smooth=5)
    first: dict[str, str] = {}
    #: cell id -> per-pass (build start, construct end, run end).
    times: dict[str, list[tuple[float, float, float]]] = {}
    retired: dict[str, int] = {}
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        order = list(cells)
        rng.shuffle(order)
        for bench, mech in order:
            cid = f"{bench}/{mech}"
            gc.collect()
            host.sample()
            out.attempted += 1
            if tracer is None:
                result, ret, stamps = run_cell(bench, mech)
            else:
                with tracer.span("kernel.cell"):
                    result, ret, stamps = run_cell(bench, mech)
            times.setdefault(cid, []).append(stamps)
            retired[cid] = ret
            digest = result_digest(result)
            first.setdefault(cid, digest)
            if digest != golden["cells"].get(cid):
                out.fail(1, f"{cid}: digest {digest[:12]} != golden")
            elif digest != first[cid]:
                out.fail(1, f"{cid}: digest changed between passes")
        passes += 1
    host.sample()
    wall = time.perf_counter() - start

    def timed(span):
        setup = {c: statistics.median(span(t0, t1) for t0, t1, _ in v)
                 for c, v in times.items()}
        runs = {c: statistics.median(span(t1, t2) for _, t1, t2 in v)
                for c, v in times.items()}
        latencies = [span(t0, t2) * 1000 for v in times.values() for t0, _, t2 in v]
        return timing_metrics(
            sum(setup.values()),
            len(times) / (sum(setup.values()) + sum(runs.values())),
            latencies,
        )

    out.record(host, timed, out.attempted)
    out.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
    )
    run_s = sum(statistics.median(t2 - t1 for _, t1, t2 in v) for v in times.values())
    out.extra["sim_kips"] = (sum(retired.values()) / run_s / 1000, "kinstr/s")
    out.extra["wall_s"] = (wall / passes, "s/pass")
    out.extra["passes"] = (passes, "count")
    out.results_digest = digest_of(first)
    return out


def fused_speedup(seed: int, golden: dict, cells=None) -> tuple[float, int, list[str]]:
    """Reference vs fused (``batched`` backend) kernel, tracing off.

    One pass over the grid, interleaved per cell and alternating which
    kernel goes first, so drift on the host hits both sides alike.
    Returns ``(reference_run_s / fused_run_s, cells, mismatches)``:
    every fused result must equal the reference one bit for bit."""
    from repro.engine import core_class

    fused = core_class("batched")
    order = list(cells or grid())
    random.Random(seed).shuffle(order)
    ref_s = fused_s = 0.0
    mismatches = []
    for i, (bench, mech) in enumerate(order):
        digests = {}
        for core_cls in ([None, fused] if i % 2 == 0 else [fused, None]):
            gc.collect()
            result, _, (_, t1, t2) = run_cell(bench, mech, core_cls=core_cls)
            digests[core_cls] = result_digest(result)
            if core_cls is None:
                ref_s += t2 - t1
            else:
                fused_s += t2 - t1
        expected = golden["cells"].get(f"{bench}/{mech}")
        if not digests[None] == digests[fused] == expected:
            mismatches.append(f"{bench}/{mech}")
    return ref_s / fused_s, len(order), mismatches


def make_golden() -> dict:
    return {
        "insts": INSTS,
        "warmup": WARMUP,
        "cells": {
            f"{bench}/{mech}": result_digest(run_cell(bench, mech)[0])
            for bench, mech in grid()
        },
    }
