"""``serve-cold`` and ``serve-hot`` workloads: one sweep-service node.

Both start ``python -m repro.serve serve --pools 1 --workers 2`` on a
fresh store and drive it closed-loop from two client threads of this
process (``repro.serve.client.SweepClient``), each sending its next
sweep when the last one has streamed its summary, until the run's
seconds are spent.

``serve-cold`` is the cold-grid regime: every cell is distinct, so each
is a store miss that is simulated and then written.  Cells come in laps
of the 40 (benchmark, mechanism) pairs, two per sweep, in a seeded order;
lap ``L`` runs ``2000 + L`` measured instructions, which keeps every cell
of the run distinct while its cost stays flat.

``serve-hot`` is the read path beside it: set-up fills the 8 x 5 grid,
then every sweep asks for a seeded 4-benchmark x 5-mechanism subgrid of
it, so every cell is a store read and nothing is simulated.  Store,
HTTP and streaming changes show here; kernel changes should not.

Timings leave out the short pauses in which the host's speed is sampled
(``common.HostSpeed``).
"""

from __future__ import annotations

import http.client
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchmarks.e2e.common import (
    HERE,
    INSTS,
    PARALLEL,
    WARMUP,
    HostSpeed,
    Outcome,
    child_env,
    digest_of,
    group_members,
    kill_group,
    scratch_dir,
    suite,
    timing_metrics,
    triple,
    vm_hwm_mb,
)
from benchmarks.e2e.kernel import run_cell

#: Laps of distinct cold cells ``golden.json`` covers; a run that would
#: need more ends its measured phase early instead.
LAPS = 32
#: Server launches per run (set-up time is their median); the last one
#: serves the measured phase.
SETUP_SAMPLES = 3
#: A tiny sweep that makes the node fork its pool workers.
WARM_UP = {
    "workloads": ["compress"],
    "mechanisms": ["perfect", "traditional"],
    "user_insts": 200,
    "warmup_insts": 50,
    "include_results": False,
}


def cold_sweeps(seed: int, laps: int = LAPS):
    """``(payload, [(bench, mech, lap), ...])`` for every cold sweep,
    in order; every cell distinct."""
    names, mechs = suite()
    combos = [(b, m) for b in names for m in mechs]
    rng = random.Random(seed)
    for lap in range(laps):
        order = list(combos)
        rng.shuffle(order)
        for i in range(0, len(order), 2):
            pair = order[i : i + 2]
            cells = [
                {
                    "workload": b,
                    "config": {"mechanism": m},
                    "user_insts": INSTS + lap,
                    "warmup_insts": WARMUP,
                }
                for b, m in pair
            ]
            yield {"cells": cells, "include_results": True}, [
                (b, m, lap) for b, m in pair
            ]


def hot_sweeps(seed: int):
    """Endless seeded 4 x 5 subgrids of the filled grid."""
    names, mechs = suite()
    rng = random.Random(seed)
    while True:
        chosen = rng.sample(names, 4)
        yield _grid_payload(chosen), [(b, m, 0) for b in chosen for m in mechs]


def _grid_payload(names) -> dict:
    return {
        "workloads": list(names),
        "mechanisms": list(suite()[1]),
        "user_insts": INSTS,
        "warmup_insts": WARMUP,
        "include_results": True,
    }


class Server:
    """One ``repro.serve serve`` node in its own process group."""

    def __init__(self, store: Path, log: Path, speed: HostSpeed,
                 trace_dir: Path | None = None):
        argv = ["serve", "--port", "0", "--pools", "1",
                "--workers", str(PARALLEL), "--cache-dir", str(store)]
        if trace_dir is None:
            cmd = [sys.executable, "-u", "-m", "repro.serve", *argv]
        else:
            cmd = [sys.executable, "-u", str(HERE / "boot.py"),
                   str(trace_dir), "repro.serve", *argv]
        self.started = time.perf_counter()
        with log.open("w") as err:
            self.proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
                env=child_env(),
                start_new_session=True,
            )
        self.speed = speed
        speed.watch(self.proc.pid)
        self.stopped = None
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://([0-9.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r} (see {log})")
            self.host, self.port = match.group(1), int(match.group(2))
            self.url = f"http://{self.host}:{self.port}"
            self._healthz()
        except BaseException:
            self.stop()
            raise

    def _healthz(self) -> None:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"/healthz returned {response.status}")
        finally:
            conn.close()

    def client(self):
        from repro.serve.client import SweepClient

        return SweepClient(self.url, timeout=120)

    def peak_rss_mb(self) -> tuple[float, float]:
        """Peak resident set of the node and the largest of its pool
        workers' (MB)."""
        workers = [
            vm_hwm_mb(pid)
            for pid in group_members(self.proc.pid)
            if pid != self.proc.pid
        ]
        return vm_hwm_mb(self.proc.pid), max(workers, default=0.0)

    def stop(self) -> None:
        """Interrupt the node (it shuts its pools down and flushes its
        trace), then make sure the whole group is gone."""
        if self.stopped is not None:
            return
        self.speed.watch(None)
        try:
            self.proc.send_signal(signal.SIGINT)
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        finally:
            self.stopped = time.perf_counter()
            kill_group(self.proc)
            self.proc.stdout.close()


def drive(server: Server, sweeps, seconds: float, check, tracer=None) -> dict:
    """Two closed-loop clients over ``sweeps`` for ``seconds``.

    ``check(ids, lines)`` returns the failed-cell count of one sweep.
    Returns ``perf_counter`` readings -- the start, and per sweep its
    send, first cell line and end; the arrival of every resolved cell --
    plus attempted and failed cells and whether ``sweeps`` ran out."""
    lock = threading.Lock()
    source = iter(sweeps)
    totals = {"sweeps": [], "arrivals": [], "attempted": 0, "failed": 0,
              "exhausted": False, "errors": []}
    start = totals["start"] = time.perf_counter()
    deadline = start + seconds

    def one_sweep(client, payload, ids) -> None:
        from repro.serve.client import ServeError

        lines: dict[int, dict] = {}
        arrivals = []
        t0 = time.perf_counter()
        try:
            for event in client.sweep(payload):
                if event.get("kind") == "cell":
                    arrivals.append(time.perf_counter())
                    lines[event.get("index")] = event
            failed = check(ids, lines)
            error = None
        except (ServeError, OSError, ValueError) as exc:
            failed, error = len(ids), f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        with lock:
            totals["attempted"] += len(ids)
            totals["failed"] += failed
            if error is not None:
                totals["errors"].append(error)
                return
            totals["sweeps"].append((t0, (arrivals or [t1])[0], t1))
            totals["arrivals"] += arrivals

    def loop() -> None:
        client = server.client()
        while time.perf_counter() < deadline:
            with lock:
                item = next(source, None)
                if item is None:
                    totals["exhausted"] = True
                    return
            if tracer is None:
                one_sweep(client, *item)
            else:
                with tracer.request("client.sweep"):
                    one_sweep(client, *item)

    threads = [threading.Thread(target=loop) for _ in range(PARALLEL)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    totals["end"] = time.perf_counter()
    return totals


def windowed_rate(arrivals: list[float], start: float, end: float, span,
                  windows: int = 10) -> float:
    """Cells per second as the median over ``windows`` equal windows of
    ``[start, end]``, each count over that window's ``span``: a burst of
    host noise slows one window, not the result."""
    width = (end - start) / windows
    counts = [0] * windows
    for t in arrivals:
        if start <= t < end:
            counts[int((t - start) / width)] += 1
    return statistics.median(
        n / span(start + i * width, start + (i + 1) * width)
        for i, n in enumerate(counts)
    )


def make_check(golden: dict, seen: dict[str, str]):
    """Cell-line checker against golden ``(cycles, retired_user,
    committed_fills)`` triples; records lap-0 triples in ``seen``."""
    expected = golden["cells"]

    def check(ids, lines) -> int:
        failed = 0
        for index, (bench, mech, lap) in enumerate(ids):
            line = lines.get(index)
            if line is None or line.get("workload") != bench or line.get(
                "mechanism"
            ) != mech:
                failed += 1
                continue
            got = triple(line)
            want = expected.get(f"{bench}/{mech}", [])
            if lap >= len(want) or got != want[lap]:
                failed += 1
            elif lap == 0:
                seen.setdefault(f"{bench}/{mech}", got)
        return failed

    return check


def run(workload: str, seed: int, seconds: float, golden: dict,
        trace_dir: Path | None = None, tracer=None, laps: int = LAPS) -> Outcome:
    hot = workload == "serve-hot"
    out = Outcome(workload, seed)
    seen: dict[str, str] = {}
    check = make_check(golden, seen)
    host = HostSpeed()
    with host.freezing():
        got = _exercise(out, hot, seed, seconds, check, host, trace_dir, tracer, laps)
    totals = got["totals"]
    out.attempted += totals["attempted"]
    if totals["failed"]:
        out.fail(totals["failed"], f"{totals['failed']} cells failed or differ "
                 f"from golden; errors: {totals['errors'][:3]}")
    before, after = got["before"], got["after"]
    requested = after["cells_requested"] - before["cells_requested"]
    simulated = after["cells_simulated"] - before["cells_simulated"]
    frac = simulated / requested if requested else 0.0
    if hot and simulated:
        out.problems.append(f"serve-hot simulated {simulated} cells while measured")
    if not hot and frac < 0.95:
        out.problems.append(f"serve-cold simulated only {frac:.1%} of its cells")
    start = totals["start"]
    end = min(start + seconds, totals["end"])
    if totals["exhausted"]:
        out.extra["ended_early_s"] = (end - start, "s")

    def timed(span):
        return timing_metrics(
            statistics.median(span(a, b) for a, b in got["setups"]),
            windowed_rate(totals["arrivals"], start, end, span),
            [span(t0, t1) * 1000 for t0, _, t1 in totals["sweeps"]],
        )

    out.record(host, timed, len(totals["sweeps"]))
    out.metrics["peak_rss_mb"] = (got["peak_rss"][0], "MB")
    out.extra["workers.peak_rss_mb"] = (got["peak_rss"][1], "MB")
    out.extra["client.first_cell_ms"] = (
        statistics.median(host.span(t0, first) for t0, first, _ in totals["sweeps"])
        * 1000, "ms",
    )
    if hot:
        out.extra["serve.hot_fill_s"] = (host.span(*got["fill"]), "s")
    out.extra["cells"] = (len(totals["arrivals"]), "count")
    out.extra["serve.simulated_frac"] = (frac, "ratio")
    out.extra["measured_wall_s"] = (totals["end"] - start, "s")
    out.extra["server_life_s"] = (host.active(*got["life"]), "s")
    out.results_digest = digest_of(seen)
    return out


def _exercise(out: Outcome, hot: bool, seed: int, seconds: float, check,
              host: HostSpeed, trace_dir: Path | None, tracer, laps: int) -> dict:
    """Launch the node (several times, for set-up samples), fill it for
    serve-hot, drive the measured phase, and stop it."""
    work = scratch_dir("serve-hot" if hot else "serve-cold")
    got: dict = {"setups": []}
    server = None
    try:
        samples = 1 if trace_dir is not None else SETUP_SAMPLES
        for i in range(samples):
            start = time.perf_counter()
            server = Server(work / f"store-{i}", work / f"server-{i}.log", host,
                            trace_dir)
            list(server.client().sweep(WARM_UP))
            got["setups"].append((start, time.perf_counter()))
            if i < samples - 1:
                server.stop()
        if hot:
            names, mechs = suite()
            start = time.perf_counter()
            fill = {e["index"]: e for e in server.client().sweep(_grid_payload(names))
                    if e.get("kind") == "cell"}
            got["fill"] = (start, time.perf_counter())
            ids = [(b, m, 0) for b in names for m in mechs]
            out.attempted += len(ids)
            failed = check(ids, fill)
            if failed:
                out.fail(failed, f"grid fill: {failed} cells differ from golden")
        got["before"] = server.client().stats()
        sweeps = hot_sweeps(seed) if hot else cold_sweeps(seed, laps)
        got["totals"] = drive(server, sweeps, seconds, check, tracer)
        got["after"] = server.client().stats()
        got["peak_rss"] = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    got["life"] = (server.started, server.stopped)
    return got


def make_golden(laps: int = LAPS) -> dict:
    """Every cold cell's triple, simulated in process (not through the
    service), two processes at a time."""
    from concurrent.futures import ProcessPoolExecutor

    names, mechs = suite()
    keys = [(b, m, lap) for b in names for m in mechs for lap in range(laps)]
    with ProcessPoolExecutor(max_workers=PARALLEL) as pool:
        triples = list(pool.map(_golden_cell, keys, chunksize=8))
    cells: dict[str, list[str]] = {}
    for (b, m, lap), value in zip(keys, triples):
        cells.setdefault(f"{b}/{m}", []).append(value)
    return {"insts": INSTS, "warmup": WARMUP, "laps": laps, "cells": cells}


def _golden_cell(key) -> str:
    bench, mech, lap = key
    return triple(run_cell(bench, mech, insts=INSTS + lap)[0])
