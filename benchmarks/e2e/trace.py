"""Host-side span tracer, installed from outside the program.

The benchmark measures every layer by timing calls into that layer's
public functions; nothing under ``src/`` is edited.  :func:`install`
replaces those functions *on their classes and modules* with timing
wrappers before any simulator or server exists.  Class level matters:
``SMTCore`` binds ``hierarchy.l1i.access`` and ``mechanism.tick`` when
it is constructed, so a patch on an instance would miss them.

Every call becomes a span with a name (``<layer>.<what>``, the layer
being the ``src/repro`` package), start and end in ns, its parent span,
pid, thread, and a request id.  Self time is a span's duration minus the
time its child spans cover; it is computed as each span closes, from
the per-thread stack of open spans.  Per-name totals (calls, inclusive
ns, self ns) are kept for every span.  Full span records are kept only
for the coarse names -- the per-cycle ones (``pipeline.step``, cache,
TLB, predictor and mechanism hooks) run millions of times, so they are
aggregated and never stored one by one.

Spans stay in memory until the process's outermost span closes; then
they are appended to ``DIR/spans.<pid>.jsonl`` with the process's
cumulative totals.  Pool workers are forked from a traced process, so
they inherit the wrappers, but they end through ``os._exit`` with no
atexit: a forked child therefore writes after *every* outermost span,
and a main process at most every half second and once more at exit.
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Request id of the sweep a server coroutine is handling (set by the
#: request wrapper; sync spans on the event loop inherit it).
REQUEST = contextvars.ContextVar("bench_request", default=None)

#: Span names aggregated only (too frequent to store one by one).
HOT_PREFIXES = ("pipeline.", "memory.", "branch.", "exceptions.")

#: A main process writes its spans at most this often (ns).
_FLUSH_NS = 500_000_000

#: Overlapping request spans are drawn on this many lanes.
_LANES = 8
_LANE_BASE = 1_000_000


class Tracer:
    """Per-process span recorder (see module docstring)."""

    def __init__(self, out_dir: str | Path | None = None, clock=time.perf_counter_ns):
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.clock = clock
        self.role = "main"
        self._local = threading.local()
        self._lock = threading.Lock()
        #: One ``{name: [calls, total_ns, self_ns]}`` per thread.
        self._aggs: list[dict[str, list[int]]] = []
        #: Process-wide counters (simulated work, cache hits, ...).
        self.counters: dict[str, float] = {}
        self._spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._last_flush = clock()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state ------------------------------------------------
    def _state(self) -> tuple[list, dict]:
        try:
            return self._local.state
        except AttributeError:
            state = ([], {})
            self._local.state = state
            with self._lock:
                self._aggs.append(state[1])
            return state

    def after_fork(self) -> None:
        """Reset inherited buffers in a forked child: its spans, totals
        and open stack belong to the parent."""
        # Another parent thread may have held the lock across fork().
        self._lock = threading.Lock()
        stack, agg = self._state()
        stack.clear()
        agg.clear()
        self._aggs = [agg]
        self.counters = {}
        self._spans = []
        self._pid = os.getpid()
        self.role = "worker"

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    # -- spans -----------------------------------------------------------
    def _open(self, record: bool):
        stack, agg = self._state()
        parent = stack[-1] if stack else None
        if record:
            sid = next(self._ids)
            rid = parent[2] if parent else (REQUEST.get() or sid)
            frame = [0, sid, rid]
        elif parent is not None:
            frame = [0, parent[1], parent[2]]
        else:
            frame = [0, None, None]
        stack.append(frame)
        return stack, agg, parent, frame, self.clock()

    def _close(self, name: str, record: bool, opened) -> None:
        end = self.clock()
        stack, agg, parent, frame, start = opened
        stack.pop()
        dur = end - start
        self_ns = dur - frame[0]
        totals = agg.get(name)
        if totals is None:
            totals = agg[name] = [0, 0, 0]
        totals[0] += 1
        totals[1] += dur
        totals[2] += self_ns
        if parent is not None:
            parent[0] += dur
        if record:
            self._spans.append(
                (name, start, end, frame[1], parent[1] if parent else None,
                 frame[2], threading.get_ident(), self_ns)
            )
        if not stack and self.out_dir is not None:
            if self.role == "worker" or end - self._last_flush >= _FLUSH_NS:
                self.flush()

    @contextlib.contextmanager
    def span(self, name: str):
        """``with tracer.span(name):`` -- a recorded span around a block
        (the benchmark's own kernel cells)."""
        opened = self._open(True)
        try:
            yield
        finally:
            self._close(name, True, opened)

    def wrap(self, fn, name: str, record: bool | None = None, hook=None):
        """A timing wrapper around ``fn`` recording spans named ``name``.

        ``hook(tracer, args, result)`` runs after each successful call
        (to count simulated work, cache hits, cells per batch)."""
        if record is None:
            record = not name.startswith(HOT_PREFIXES)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = tracer._open(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, record, opened)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def _request_closed(self, name: str, sid: int, start: int) -> None:
        end = self.clock()
        totals = self._state()[1].setdefault(name, [0, 0, 0])
        totals[0] += 1
        totals[1] += end - start
        self._spans.append(
            (name, start, end, sid, None, sid, _LANE_BASE + sid % _LANES, None)
        )

    @contextlib.contextmanager
    def request(self, name: str):
        """A request span: the time a caller waits for a whole request.
        Requests overlap and mostly wait on other processes, so they
        stay off the self-time stack (no self time) and are drawn on
        their own lanes."""
        sid = next(self._ids)
        token = REQUEST.set(sid)
        start = self.clock()
        try:
            yield sid
        finally:
            REQUEST.reset(token)
            self._request_closed(name, sid, start)

    def wrap_async(self, fn, name: str):
        """:meth:`request` around a request coroutine; sync spans on the
        event loop inherit its request id."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            with tracer.request(name):
                return await fn(*args, **kwargs)

        return traced

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr: str, name: str, record=None, hook=None) -> None:
        """Replace ``owner.attr`` (a class's own method or a dict entry);
        a coroutine function becomes a :meth:`request` span."""
        original = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        if inspect.iscoroutinefunction(original):
            wrapper = self.wrap_async(original, name)
        else:
            wrapper = self.wrap(original, name, record, hook)
        if isinstance(owner, dict):
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def patch_function(self, module, attr: str, name: str, hook=None) -> None:
        """Patch a module-level function and every ``repro`` module that
        imported it by name, so each call site (and pickling by
        reference, for pool submissions) sees the same wrapper."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, hook=hook)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------
    def snapshot(self) -> dict[str, list[int]]:
        """Cumulative per-name totals over every thread of the process."""
        merged: dict[str, list[int]] = {}
        with self._lock:
            aggs = list(self._aggs)
        for agg in aggs:
            for name, (calls, total, self_ns) in list(agg.items()):
                into = merged.setdefault(name, [0, 0, 0])
                into[0] += calls
                into[1] += total
                into[2] += self_ns
        return merged

    def flush(self) -> None:
        """Append pending spans plus the cumulative totals to this
        process's file (the last totals line in a file wins)."""
        if self.out_dir is None:
            return
        self._last_flush = self.clock()
        with self._lock:
            spans, self._spans = self._spans, []
            counters = dict(self.counters)
        lines = [json.dumps({"span": s}, separators=(",", ":")) for s in spans]
        lines.append(
            json.dumps(
                {
                    "proc": {"role": self.role, "argv": sys.argv[1:4]},
                    "totals": self.snapshot(),
                    "counters": counters,
                },
                separators=(",", ":"),
            )
        )
        with (self.out_dir / f"spans.{self._pid}.jsonl").open("a") as fh:
            fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# What the benchmark traces.

_ACTIVE: Tracer | None = None


def install(out_dir: str | Path | None) -> Tracer:
    """Import the traced layers, patch their public functions, and make
    forked children reset their buffers.  Returns the tracer."""
    global _ACTIVE
    # make_mechanism imports these lazily; their classes must exist now.
    import repro.exceptions.hardware  # noqa: F401
    import repro.exceptions.multithreaded  # noqa: F401
    import repro.exceptions.quickstart  # noqa: F401
    import repro.exceptions.traditional  # noqa: F401
    from repro.branch.unit import BranchPredictionUnit
    from repro.exceptions.base import ExceptionMechanism
    from repro.experiments import cli as experiments_cli
    from repro.memory.cache import Cache
    from repro.memory.tlb import TLB, PerfectTLB
    from repro.pipeline.core import SMTCore
    from repro.serve import http as serve_http
    from repro.serve import service as serve_service
    from repro.serve.store import ContentStore
    from repro.sim import parallel
    from repro.sim.simulator import Simulator
    from repro.workloads import suite

    if _ACTIVE is not None:
        raise RuntimeError("tracer already installed in this process")
    tracer = Tracer(out_dir)
    _ACTIVE = tracer

    tracer.patch_function(suite, "build_benchmark", "workloads.build")
    tracer.patch_function(suite, "build_mix", "workloads.build_mix")
    tracer.patch(Simulator, "__init__", "sim.construct")
    _patch_run_to(tracer, SMTCore)
    tracer.patch(SMTCore, "step", "pipeline.step")
    tracer.patch(Cache, "access", "memory.cache_access")
    tracer.patch(TLB, "lookup", "memory.tlb_lookup")
    tracer.patch(PerfectTLB, "lookup", "memory.tlb_lookup")
    for meth in ("predict", "train", "repair"):
        tracer.patch(BranchPredictionUnit, meth, f"branch.{meth}")
    for cls in _subclasses(ExceptionMechanism):
        for attr in sorted(vars(cls)):
            if attr.startswith("on_") or attr in ("tick", "fetch_idle"):
                tracer.patch(cls, attr, f"exceptions.{attr}")

    tracer.patch_function(
        parallel, "run_cells", "parallel.run_cells",
        hook=_count_cells("parallel.cells"),
    )
    tracer.patch_function(
        parallel, "run_cell_batch", "parallel.run_cell_batch",
        hook=_count_cells("parallel.batch_cells"),
    )
    tracer.patch(
        parallel.ResultCache, "get", "parallel.cache_get",
        hook=_count_hits("parallel.cache"),
    )
    tracer.patch(parallel.ResultCache, "put", "parallel.cache_put")
    tracer.patch(
        ContentStore, "get", "serve.store_get", hook=_count_hits("serve.store")
    )
    tracer.patch(ContentStore, "put", "serve.store_put")
    tracer.patch_function(serve_service, "expand_sweep", "serve.expand")
    tracer.patch_function(serve_http, "cell_line", "serve.cell_line")
    tracer.patch(serve_http.SweepHTTPServer, "_handle_sweep", "serve.request")
    for exp_id in list(experiments_cli.EXPERIMENTS):
        tracer.patch(experiments_cli.EXPERIMENTS, exp_id, f"experiments.{exp_id}")

    os.register_at_fork(after_in_child=_after_fork)
    if out_dir is not None:
        atexit.register(_flush_at_exit)
    return tracer


def uninstall() -> None:
    """Flush and restore the original functions.  Objects built while
    installed keep the wrappers they bound, so build new ones."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.flush()
        _ACTIVE.unpatch()
        _ACTIVE = None


def _after_fork() -> None:
    if _ACTIVE is not None:
        _ACTIVE.after_fork()


def _flush_at_exit() -> None:
    if _ACTIVE is not None and _ACTIVE.role == "main":
        _ACTIVE.flush()


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _count_cells(key: str):
    def hook(tracer: Tracer, args, result) -> None:
        tracer.count(key + "_calls")
        tracer.count(key, len(args[0]))

    return hook


def _count_hits(key: str):
    def hook(tracer: Tracer, args, result) -> None:
        tracer.count(key + "_gets")
        if result is not None:
            tracer.count(key + "_hits")

    return hook


#: What one ``run_to`` call simulated, read off the core's counters.
_PROBES = (
    ("sim.cycles", lambda c: c.stats.cycles),
    ("sim.retired_user", lambda c: c.stats.retired_user),
    ("sim.retired_handler", lambda c: c.stats.retired_handler),
    ("sim.fetched", lambda c: c.stats.fetched),
    ("memory.l1d_accesses", lambda c: c.hierarchy.l1d.stats.accesses),
    ("memory.l1d_misses", lambda c: c.hierarchy.l1d.stats.misses),
    ("memory.dtlb_misses", lambda c: c.dtlb.stats.misses),
)


def _patch_run_to(tracer: Tracer, core_cls) -> None:
    """``SMTCore.run_to`` gets a span plus a probe of what the call
    simulated (cycles, instructions, L1-D and DTLB traffic) and the host
    ns it took per mechanism."""
    original = vars(core_cls)["run_to"]
    timed = tracer.wrap(original, "sim.run_to")

    @functools.wraps(original)
    def probed(core, watch, stop_cycle):
        before = [read(core) for _, read in _PROBES]
        start = tracer.clock()
        try:
            return timed(core, watch, stop_cycle)
        finally:
            ns = tracer.clock() - start
            for (key, read), value in zip(_PROBES, before):
                tracer.count(key, read(core) - value)
            mech = core.config.mechanism
            tracer.count(f"sim.{mech}_ns", ns)
            tracer.count(
                f"sim.{mech}_retired", core.stats.retired_user - before[1]
            )

    tracer._patches.append((core_cls, "run_to", original))
    core_cls.run_to = probed


# ----------------------------------------------------------------------
# Reading a trace directory back.

def load(out_dir: str | Path) -> dict:
    """Merge every ``spans.<pid>.jsonl`` under ``out_dir``.

    Returns ``{"spans": [...], "procs": {pid: info}, "totals": {name:
    [calls, total_ns, self_ns]}, "counters": {...}, "by_pid": {pid:
    last totals line}}``; totals and counters are summed over processes
    from each file's last totals line."""
    spans: list[dict] = []
    by_pid: dict[int, dict] = {}
    for path in sorted(Path(out_dir).glob("spans.*.jsonl")):
        pid = int(path.name.split(".")[1])
        with path.open() as fh:
            for line in fh:
                record = json.loads(line)
                if "span" not in record:
                    by_pid[pid] = record
                    continue
                name, start, end, sid, parent, rid, tid, self_ns = record["span"]
                spans.append(
                    {
                        "name": name, "start": start, "end": end,
                        "id": sid, "parent": parent, "rid": rid,
                        "pid": pid, "tid": tid, "self": self_ns,
                    }
                )
    totals: dict[str, list[int]] = {}
    counters: dict[str, float] = {}
    for info in by_pid.values():
        for name, values in info["totals"].items():
            into = totals.setdefault(name, [0, 0, 0])
            for i in range(3):
                into[i] += values[i]
        for key, value in info["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {
        "spans": spans,
        "procs": {pid: info["proc"] for pid, info in by_pid.items()},
        "totals": totals,
        "counters": counters,
        "by_pid": by_pid,
    }


def chrome_trace(merged: dict) -> dict:
    """Trace Event Format document of the recorded spans: one process
    track per pid, one thread track per OS thread or request lane,
    1 us of host time per trace microsecond."""
    spans = sorted(merged["spans"], key=lambda s: s["start"])
    origin = spans[0]["start"] if spans else 0
    tids: dict[tuple[int, int], int] = {}
    events: list[dict] = [
        {
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"{info['role']} {' '.join(info['argv'])}".strip()},
        }
        for pid, info in sorted(merged["procs"].items())
    ]
    for span in spans:
        tid = tids.setdefault((span["pid"], span["tid"]), len(tids) + 1)
        args = {"id": span["id"], "request": span["rid"]}
        if span["parent"] is not None:
            args["parent"] = span["parent"]
        if span["self"] is not None:
            args["self_us"] = span["self"] // 1000
        events.append(
            {
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "ts": (span["start"] - origin) // 1000,
                "dur": max(1, (span["end"] - span["start"]) // 1000),
                "pid": span["pid"],
                "tid": tid,
                "args": args,
            }
        )
    for (pid, raw_tid), tid in tids.items():
        label = (
            f"request lane {raw_tid - _LANE_BASE}"
            if raw_tid >= _LANE_BASE
            else f"thread {raw_tid}"
        )
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": label}}
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {"unit": "1 us of host time", "format": "trace_event"},
    }
