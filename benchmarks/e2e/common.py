"""Shared plumbing for the end-to-end benchmark: paths, child
environments, result digests, and the percentile rules every timing
follows."""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Checkout root (the benchmark lives at ``benchmarks/e2e``).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
#: Scratch space for stores, caches and traces; listed in .gitignore.
WORK = ROOT / ".bench_e2e"

DEFAULT_SEED = 1999
WORKLOADS = ("kernel", "paper", "serve-cold", "serve-hot")
#: Workers and client connections never exceed this (the benchmark
#: host has two CPUs; more would measure oversubscription).
PARALLEL = 2
#: Measured and warm-up instructions of a kernel or serve cell.
INSTS = 2000
WARMUP = 500

#: End-to-end metrics: name -> unit.  Every workload reports all five.
E2E_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def ensure_source() -> None:
    """Put the checkout's ``src`` on ``sys.path``; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"benchmark: no simulator sources at {SRC}; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scrub_environment() -> None:
    """Drop inherited ``REPRO_*`` knobs (fault specs, engines, cache
    dirs) so a caller's shell cannot change what is measured."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a child interpreter running the simulator."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def group_members(pgid: int) -> list[int]:
    """Live pids in process group ``pgid`` (children started with
    ``start_new_session`` lead their own group, pool workers included)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB; 0 once
    it is gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def kill_group(proc, timeout: float = 10.0) -> None:
    """SIGKILL a child's whole process group, reap the child, and wait
    until every other member (forked pool workers) is gone too."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + timeout
    while group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.02)


def scratch_dir(name: str) -> Path:
    """A fresh directory under ``.bench_e2e`` (removed and recreated)."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def suite() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The suite's benchmark names and the exception mechanisms."""
    from repro.sim.config import MECHANISMS
    from repro.workloads.suite import BENCHMARK_NAMES

    return BENCHMARK_NAMES, MECHANISMS


def result_digest(result) -> str:
    """sha256 of a ``SimResult`` as sorted-key JSON, minus the
    checkpoint lineage (which does not define the result)."""
    data = dataclasses.asdict(result)
    data.pop("checkpoint", None)
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()
    ).hexdigest()


def triple(result_or_line) -> str:
    """The ``cycles,retired_user,committed_fills`` a cell line carries."""
    get = (
        result_or_line.get
        if isinstance(result_or_line, dict)
        else lambda key: getattr(result_or_line, key)
    )
    return f"{get('cycles')},{get('retired_user')},{get('committed_fills')}"


def digest_of(mapping: dict[str, str]) -> str:
    """One digest over ``id -> digest`` pairs (order-free)."""
    text = "\n".join(f"{k}={v}" for k, v in sorted(mapping.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden() -> dict:
    with GOLDEN.open() as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Percentiles.

def nearest_rank(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    ``pct`` percentile.  A tail percentile is trusted only with at least
    ten beyond it, which is why the latency tail is p90: kernel and serve
    runs keep 100 or more samples."""
    return count - max(math.ceil(pct / 100 * count), 1)


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and the quartile spread as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


# ----------------------------------------------------------------------
# Host speed.

#: Median seconds of one :func:`probe` on the calibration host
#: (CALIBRATION.md); normalized timings are at this host speed.
PROBE_S = 0.0023


class _Node:
    __slots__ = ("key", "value", "next")


def probe() -> float:
    """CPU seconds one fixed pure-Python routine takes: a host-speed
    sample.

    The routine is not repository code, so no change to the program can
    move it.  It does what the simulator does most -- attribute access,
    small allocations, dict and list traffic -- so it slows down with the
    host the way the simulator does.  It counts the thread's CPU time,
    not wall time: a shared host's slowdown shows in both, but time spent
    waiting for a CPU the benchmark's own processes hold shows only in
    wall time."""
    start = time.thread_time()
    table: dict[int, int] = {}
    head = None
    for i in range(8000):
        node = _Node()
        node.key = i & 127
        node.value = i * 7
        node.next = head
        head = node
        table[node.key] = table.get(node.key, 0) + node.value
    stack = []
    while head is not None:
        if head.key in table:
            stack.append(head.value)
        head = head.next
    while stack:
        stack.pop()
    return time.thread_time() - start


def _cpu_busy() -> dict[int, int]:
    """Busy ticks (user, nice, system, irq, softirq) per CPU, from
    ``/proc/stat``."""
    busy = {}
    with open("/proc/stat") as fh:
        for line in fh:
            name, *ticks = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                user, nice, system, _idle, _iowait, irq, softirq = map(int, ticks[:7])
                busy[int(name[3:])] = user + nice + system + irq + softirq
    return busy


class HostSpeed:
    """Host-speed samples taken while the measured work is paused, and
    the arithmetic that scales the work's timings by them.

    A shared cloud host can change speed by up to 2x over minutes (other
    tenants on the same cores); medians inside one run remove bursts of
    noise, not that drift.  A sample times :func:`probe` while none of
    the benchmark's own work runs, so it sees the host alone:

    * in-process work (the kernel) calls :meth:`sample` between cells,
      probing the CPU it runs on;
    * child commands (paper, serve) are frozen: inside
      ``with host.freezing():`` a thread stops the process group given
      to :meth:`watch` four times a second (SIGSTOP), samples, and
      resumes it (SIGCONT); about 2-3% of the run is frozen.  The CPUs
      of a shared host slow down independently, so a frozen sample
      probes each CPU in turn and weights each CPU's speed by the CPU
      time spent on it since the last sample (``/proc/stat``).

    :meth:`span` turns a measured interval into seconds of work at the
    calibration host's speed: the interval minus frozen time, each part
    divided by the host factor (probe time over :data:`PROBE_S`) of the
    samples nearest it -- the median of many, since one sample is a few
    milliseconds of a bursty host.  :meth:`active` leaves out only the
    frozen time.
    """

    def __init__(self, probes: int = 1, smooth: int = 20,
                 interval: float = 0.25) -> None:
        #: Probes per sample (per CPU for a frozen sample).
        self.probes = probes
        #: How many samples nearest an interval give its host factor.
        self.smooth = smooth
        #: Seconds between frozen samples.
        self.interval = interval
        self.cpus = sorted(os.sched_getaffinity(0))
        self._busy = _cpu_busy()
        #: ``(paused_from, paused_to, factor)`` per sample, in
        #: ``time.perf_counter`` seconds, in time order.
        self.samples: list[tuple[float, float, float]] = []
        self._group: int | None = None
        self._lock = threading.Lock()

    def sample(self, every_cpu: bool = False) -> None:
        """Probe now, on this thread's CPU or on each CPU in turn; the
        caller's work must be paused."""
        start = time.perf_counter()
        if every_cpu:
            busy = _cpu_busy()
            used = [busy[c] - self._busy.get(c, 0) for c in self.cpus]
            self._busy = busy
            speeds = []
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    speeds.append(PROBE_S / self._median_probe())
            finally:
                os.sched_setaffinity(0, self.cpus)
            if sum(used) <= 0:
                used = [1] * len(speeds)
            factor = sum(used) / sum(u * v for u, v in zip(used, speeds))
        else:
            factor = self._median_probe() / PROBE_S
        self.samples.append((start, time.perf_counter(), factor))

    def _median_probe(self) -> float:
        return statistics.median(probe() for _ in range(self.probes))

    def watch(self, pgid: int | None) -> None:
        """Freeze process group ``pgid`` for the samples from now on
        (``None``: nothing to freeze)."""
        with self._lock:
            self._group = pgid

    @contextlib.contextmanager
    def freezing(self):
        stop = threading.Event()
        thread = threading.Thread(target=self._freeze_loop, args=(stop,))
        self.sample(every_cpu=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()
            self.watch(None)
            self.sample(every_cpu=True)

    def _freeze_loop(self, stop: threading.Event) -> None:
        while not stop.wait(self.interval):
            with self._lock:
                group = self._group
                if group is not None:
                    try:
                        os.killpg(group, signal.SIGSTOP)
                    except ProcessLookupError:
                        group = None
                try:
                    self.sample(every_cpu=True)
                finally:
                    if group is not None:
                        try:
                            os.killpg(group, signal.SIGCONT)
                        except ProcessLookupError:
                            pass

    def factor(self) -> float:
        """The run's median host factor (1 = the calibration host)."""
        return statistics.median(f for _, _, f in self.samples)

    def _factor_at(self, t: float) -> float:
        """Median factor of the ``smooth`` samples nearest ``t``."""
        n = self.smooth
        i = bisect.bisect(self.samples, (t,))
        near = self.samples[max(0, i - n) : i + n]
        near.sort(key=lambda s: abs(s[0] + s[1] - 2 * t))
        return statistics.median(f for _, _, f in near[:n])

    def _parts(self, t0: float, t1: float):
        """The unfrozen parts of ``[t0, t1]``."""
        cursor = t0
        first = max(0, bisect.bisect(self.samples, (t0,)) - 1)
        for start, end, _ in self.samples[first:]:
            if end <= cursor:
                continue
            if start >= t1:
                break
            if start > cursor:
                yield cursor, start
            cursor = end
        if cursor < t1:
            yield cursor, t1

    def active(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` the work was not frozen."""
        return sum(b - a for a, b in self._parts(t0, t1))

    def span(self, t0: float, t1: float) -> float:
        """Seconds of work in ``[t0, t1]`` at the calibration host's speed."""
        return sum(
            (b - a) / self._factor_at((a + b) / 2) for a, b in self._parts(t0, t1)
        )


def timing_metrics(setup_s: float, cells_per_s: float,
                   latencies_ms: list[float]) -> dict[str, tuple[float, str]]:
    """The four timed end-to-end metrics, from already-measured parts."""
    return {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (cells_per_s, "cells/s"),
        "latency_p50_ms": (nearest_rank(latencies_ms, 50), "ms"),
        "latency_p90_ms": (nearest_rank(latencies_ms, 90), "ms"),
    }


# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit); the end-to-end metrics.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Extra end-to-end context printed but not gated (sim_kips,
    #: wall_s, sample counts, validity ratios).
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Workload-validity failures (serve regimes); any makes the run
    #: incorrect.
    problems: list[str] = field(default_factory=list)
    results_digest: str = ""

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def record(self, host: HostSpeed, timed, samples: int) -> None:
        """Record the timed metrics: ``timed(span)`` computes them with
        ``span(t0, t1)`` giving an interval's seconds.  The gated values
        use :meth:`HostSpeed.span`; the values as measured (less frozen
        time) are kept as ``raw.<name>``.  ``samples`` is the latency
        sample count."""
        self.metrics.update(timed(host.span))
        for name, value in timed(host.active).items():
            self.extra[f"raw.{name}"] = value
        self.extra["host_factor"] = (host.factor(), "ratio")
        self.extra["latency_samples"] = (samples, "count")
        self.extra["latency_beyond_p90"] = (samples_beyond(samples, 90), "count")
