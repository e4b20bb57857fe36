"""Parallel experiment runner with an on-disk result cache.

Experiment grids (Figures 2-7, Tables 2-4) are embarrassingly parallel:
every cell is an independent ``Simulator`` run.  This module fans cells
out across processes and memoises finished cells on disk so that
re-running a figure -- or running a different figure that shares cells --
costs nothing.

A cell is described by a :class:`CellSpec`, which is picklable by
construction: the workload is a benchmark *name* (or a tuple of names
for a co-scheduled mix), never a ``Program`` object or factory closure.
Workers rebuild the programs from the name, which is cheap next to the
simulation itself.

Cells run in worker processes through one :class:`CellPool`, shared by
:func:`run_cells` and the sweep service (:mod:`repro.serve`).

A spec is everything its result depends on: the fault plan rides in
``config.faults`` and the cycle kernel in ``engine``, both filled from
the environment when the spec (or its config) is made and carried from
then on -- into the content address, pool workers, the sweep service's
wire format and warm checkpoints -- so no layer reads either variable
again.

Environment knobs:

``REPRO_JOBS``
    Worker process count for :func:`run_cells`.  ``1`` (or unset on a
    single-CPU machine) runs serially in-process.  Results are returned
    in spec order either way, and are bit-identical between the serial
    and parallel paths (each simulation is deterministic and fully
    isolated in its own process).
``REPRO_JOB_TIMEOUT``
    Limit in seconds on one cell's own run time in a pool worker (time
    queued never counts).  An overrun is interrupted inside the worker,
    which stays healthy, and the cell is retried.  ``0``/unset disables
    it.  The in-process path never times out -- a cell that must
    finish always can.
``REPRO_RETRIES``
    How many times a cell that failed in the pool (crashed worker,
    timeout, or error) is resubmitted (default ``2``, linear backoff of
    0.25 s per attempt) before it runs in process.
``REPRO_ENGINE``
    Default of :attr:`CellSpec.engine`: ``fused`` (the default) or
    ``reference`` (the oracle), see :mod:`repro.engine`.  The kernels
    are differentially verified to be bit-identical, but the spec's
    kernel still keys the cache, so a result can always be traced to
    the kernel that produced it.  How much faster the fused kernel runs
    is the ``engine.fused_speedup`` metric in
    ``benchmarks/e2e/README.md``.
``REPRO_FAULTS``
    Default of ``MachineConfig.faults``, see :mod:`repro.sim.config`.
``REPRO_CACHE``
    Set to ``0`` to disable the on-disk result cache.
``REPRO_CACHE_DIR``
    Cache location (default ``~/.cache/repro-sim``).
``REPRO_WARM_CKPT``
    Set to ``1`` to share one warmup per workload family across cells
    via warm checkpoints (see :func:`derive_warm_cells`); the checkpoint
    hash becomes part of each cell's cache key.
``REPRO_CKPT_DIR``
    Where warm checkpoints live (default ``~/.cache/repro-ckpt``); see
    :func:`repro.checkpoint.checkpoint_dir`.

Cache keys (:attr:`CellSpec.key`) cover the whole spec *and* a
fingerprint of the installed ``repro`` sources, so a code change can
never serve stale results.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import pickle
import signal
import threading
import time
import warnings
from concurrent.futures import (
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro.sim.config import MachineConfig
from repro.sim.simulator import SimResult, Simulator
from repro.workloads.suite import build_workload


def _default_engine() -> str:
    from repro.engine import resolve_engine

    return resolve_engine()


@dataclass(frozen=True)
class CellSpec:
    """One independent simulation: a workload under a configuration.

    ``workload`` is a benchmark name (``"compress"``) or a tuple of
    names for a multiprogrammed mix.  The whole spec must stay picklable
    and deterministic -- it is both the unit of work shipped to worker
    processes and the cache key.  Frozen, so :attr:`key` can be computed
    once; derive variants with :func:`dataclasses.replace`.
    """

    workload: str | tuple[str, ...]
    config: MachineConfig
    user_insts: int
    warmup_insts: int
    max_cycles: int
    #: Path of a shared warm checkpoint to attach instead of running the
    #: in-process warmup.  A *location*, so deliberately NOT part of the
    #: cache key; ``warm_hash`` (the checkpoint's content hash) is.
    warm_from: str | None = None
    warm_hash: str | None = None
    #: Cycle kernel (:mod:`repro.engine`), resolved from ``REPRO_ENGINE``
    #: when the spec is made, so an alias never reaches a key.
    engine: str = field(default_factory=_default_engine)

    def build_programs(self):
        """Construct the program(s) this cell simulates."""
        return build_workload(self.workload)

    def cache_token(self) -> str:
        """A deterministic serialization of everything that defines
        this cell's result (:attr:`key` adds the source fingerprint)."""
        return repr(
            (
                self.workload,
                dataclasses.asdict(self.config),
                self.user_insts,
                self.warmup_insts,
                self.max_cycles,
                self.warm_hash,
                self.engine,
            )
        )

    @functools.cached_property
    def key(self) -> str:
        """The cell's content address: the name its result is filed
        under, computed once per spec."""
        token = f"{engine_fingerprint()}|{self.cache_token()}"
        return hashlib.sha256(token.encode()).hexdigest()[:40]


def _test_fault_hook() -> None:
    """Test-only worker sabotage, armed via ``REPRO_TEST_WORKER_FAULT``.

    The variable holds ``kill:<latch>`` or ``hang:<latch>``, where
    ``<latch>`` is a file path acting as a one-shot claim: the first
    cell to unlink it dies (``os._exit``) or hangs (sleeps past any
    job timeout).  Robustness tests use this to crash or wedge a real
    pool worker mid-grid and assert the runner recovers with identical
    results.  Unset in normal operation; never set this outside tests.
    """
    armed = os.environ.get("REPRO_TEST_WORKER_FAULT", "")
    if not armed:
        return
    action, _, latch = armed.partition(":")
    if not latch:
        return
    try:
        os.unlink(latch)
    except OSError:
        return  # latch already claimed (or never created): run normally
    if action == "kill":
        os._exit(43)
    if action == "hang":
        time.sleep(3600)


def run_cell(spec: CellSpec) -> SimResult:
    """Run one cell to completion (in the current process) on the
    spec's cycle kernel."""
    _test_fault_hook()
    from repro.engine import core_class

    sim = Simulator(
        spec.build_programs(), spec.config, core_cls=core_class(spec.engine)
    )
    warmup_insts = spec.warmup_insts
    if spec.warm_from is not None:
        # Attach the shared warm state and measure from there; the
        # warmup already happened once, in the checkpoint donor.
        from repro.checkpoint.warm import attach_warm

        attach_warm(sim, spec.warm_from)
        warmup_insts = 0
    return sim.run(
        user_insts=spec.user_insts,
        warmup_insts=warmup_insts,
        max_cycles=spec.max_cycles,
    )


def _on_cell_timeout(signum, frame) -> None:
    raise TimeoutError("cell ran longer than REPRO_JOB_TIMEOUT")


def run_cell_batch(
    specs: list[CellSpec], timeout: float = 0.0
) -> list[SimResult]:
    """Run ``specs`` one after another with :func:`run_cell`, in spec
    order.  The pool-worker entry point: :class:`CellPool` submits every
    cell through here (one cell per call).

    ``timeout`` > 0 limits each cell's run time with a ``SIGALRM`` timer,
    so it needs the main thread (a pool worker's): an overrun raises
    ``TimeoutError`` and leaves the process healthy.  The alarm
    interrupts Python bytecode only.
    """
    if not timeout:
        return [run_cell(spec) for spec in specs]
    signal.signal(signal.SIGALRM, _on_cell_timeout)
    results = []
    for spec in specs:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            results.append(run_cell(spec))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return results


def derive_warm_cells(specs: list[CellSpec]) -> list[CellSpec]:
    """Rewrite cells to share warm checkpoints per workload family.

    Cells that agree on workload, warmup length, and every
    mechanism-independent configuration knob form a *family*; each
    family's warmup runs once (here, serially, before the fan-out) and
    every member attaches to the saved warm state.  The checkpoint's
    content hash lands in each cell's cache key, so cached warm results
    can never be confused with cold ones or with a different warm state.
    """
    from repro.checkpoint.warm import ensure_warm_checkpoint, warm_token

    built: dict[str, tuple[Path, str]] = {}
    out: list[CellSpec] = []
    for spec in specs:
        if spec.warm_from is not None or not spec.warmup_insts:
            out.append(spec)
            continue
        token = warm_token(spec.workload, spec.warmup_insts, spec.config)
        if token not in built:
            built[token] = ensure_warm_checkpoint(
                spec.workload,
                spec.warmup_insts,
                spec.config,
                max_cycles=spec.max_cycles,
            )
        path, digest = built[token]
        out.append(
            dataclasses.replace(spec, warm_from=str(path), warm_hash=digest)
        )
    return out


#: ``repro.__file__`` -> digest of the source root it names.
#: Module-level (not ``lru_cache``) so the cache is keyed by the *root*
#: being hashed and tests can reset it; filled at most once per root per
#: process.
_FINGERPRINT_CACHE: dict[str, str] = {}

#: How many full tree-hash passes this process has actually performed.
#: Every spec's :attr:`CellSpec.key` (and every manifest, warm token and
#: checkpoint) consults the fingerprint, so anything above one pass per
#: source root is a per-cell O(repo) regression; the counter makes that
#: assertable (see tests/sim/test_parallel.py).
_fingerprint_passes = 0


def engine_fingerprint() -> str:
    """Hash of the installed ``repro`` sources, computed once per process.

    Part of every cache key: any source change invalidates all cached
    results, which keeps the cache trustworthy across engine work.  The
    tree walk happens exactly once per source root per process; every
    subsequent call is a dict hit, with no filesystem work.
    """
    import repro

    cached = _FINGERPRINT_CACHE.get(repro.__file__)
    if cached is not None:
        return cached
    global _fingerprint_passes
    _fingerprint_passes += 1
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    _FINGERPRINT_CACHE[repro.__file__] = digest.hexdigest()[:16]
    return _FINGERPRINT_CACHE[repro.__file__]


class ResultCache:
    """Pickle-per-cell result store keyed by :attr:`CellSpec.key`.

    ``REPRO_CACHE=0`` is enforced *here*, inside :meth:`get` and
    :meth:`put` (a disabled cache misses every get and drops every put),
    so callers never need their own ``enabled()`` guard and can hold a
    cache object unconditionally.
    """

    #: Process-wide "manifest write failed" warning latch (once is
    #: signal, once per cell is noise).
    _manifest_warned = False

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_CACHE_DIR") or (
                Path.home() / ".cache" / "repro-sim"
            )
        self.directory = Path(directory)

    @staticmethod
    def enabled() -> bool:
        return os.environ.get("REPRO_CACHE", "1") != "0"

    def _path(self, spec: CellSpec) -> Path:
        return self.directory / f"{spec.key}.pkl"

    def get(self, spec: CellSpec) -> SimResult | None:
        if not self.enabled():
            return None
        return self._load(self._path(spec))

    @staticmethod
    def _load(path: Path) -> SimResult | None:
        """Unpickle one entry; an absent or unreadable one is a miss."""
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None

    def put(self, spec: CellSpec, result: SimResult) -> None:
        """Durable atomic publish: a cell is either fully cached or
        absent.

        The pickle is written to a pid-suffixed temp file, fsynced, and
        renamed into place, so a worker killed mid-write (or mid-crash
        of the whole machine) can never leave a truncated pickle under
        the final name -- :meth:`get` would deserialize garbage as a
        result.  Temp files orphaned by dead writers are pruned here.

        The manifest is strictly an audit trail: once the pickle has
        been renamed into place the cell *is* published, so no manifest
        failure -- ``OSError`` or otherwise (say, an unserializable
        counter surfacing in ``build_manifest``) -- may escape and crash
        the worker into a pointless retry of a finished cell.
        """
        if not self.enabled():
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._prune_stale_tmps()
            path = self._path(spec)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            with tmp.open("wb") as fh:
                pickle.dump(result, fh)
                fh.flush()
                os.fsync(fh.fileno())
            tmp.replace(path)  # atomic: concurrent writers race benignly
        except OSError:
            return  # a read-only cache dir degrades to "no cache"
        try:
            self._write_manifest(spec, result, path)
        except Exception as exc:  # noqa: BLE001 - pickle already published
            if not isinstance(exc, OSError) and not ResultCache._manifest_warned:
                ResultCache._manifest_warned = True
                warnings.warn(
                    f"result-cache manifest write failed ({exc!r}); the "
                    "cached result itself is intact and manifest warnings "
                    "are reported once per process",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def _prune_stale_tmps(self) -> None:
        """Remove temp files whose writer process is gone.

        A worker killed between open and rename leaks one
        ``*.tmp.<pid>`` file; the pid suffix makes ownership checkable,
        so any tmp whose pid is dead is garbage by construction."""
        try:
            for tmp in self.directory.glob("*.tmp.*"):
                pid_text = tmp.name.rsplit(".", 1)[-1]
                if not pid_text.isdigit():
                    continue
                pid = int(pid_text)
                if pid == os.getpid() or _pid_alive(pid):
                    continue
                try:
                    tmp.unlink()
                except OSError:
                    pass
        except OSError:
            pass

    def _manifest_cache_stats(self) -> dict | None:
        """Cache counters to embed in manifests (the content-addressed
        store in :mod:`repro.serve.store` overrides this); ``None``
        omits the block."""
        return None

    def _manifest_node_info(self) -> dict | None:
        """Cluster-node identity to embed in manifests (node id and
        owned/forwarded counters; overridden by the serve store in
        cluster mode); ``None`` omits the block."""
        return None

    def _write_manifest(self, spec: CellSpec, result: SimResult, path: Path) -> None:
        """Audit trail: a human-readable manifest beside each pickle.

        Like the pickle, the manifest is published by rename, and the
        pid-suffixed ``*.json.tmp.<pid>`` intermediate falls under the
        same liveness rule as pickle temps: :meth:`_prune_stale_tmps`
        removes it only once this writer is dead.  A failure mid-build
        unlinks our own tmp immediately rather than leaving it to
        outlive the process.
        """
        from repro.obs.manifest import build_manifest, write_manifest

        tmp = path.with_suffix(f".json.tmp.{os.getpid()}")
        try:
            with tmp.open("w") as fh:
                write_manifest(
                    fh,
                    build_manifest(
                        result,
                        spec.config,
                        workload=spec.workload,
                        checkpoint=getattr(result, "checkpoint", None),
                        cache_stats=self._manifest_cache_stats(),
                        node=self._manifest_node_info(),
                        engine_backend=spec.engine,
                    ),
                )
            tmp.replace(path.with_suffix(".json"))
        except Exception:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def manifest_path(self, spec: CellSpec) -> Path:
        """Where :meth:`put` leaves the manifest for ``spec``."""
        return self._path(spec).with_suffix(".json")


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the CPU count.

    ``REPRO_JOBS`` must be a non-negative integer; ``0`` (or unset)
    means "use the CPU count".  Anything else raises :class:`ValueError`
    here, at configuration time, instead of crashing deep inside the
    worker pool.
    """
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be a non-negative integer, got {raw!r}"
        ) from None
    if jobs < 0:
        raise ValueError(f"REPRO_JOBS must be non-negative, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def warm_checkpoints() -> bool:
    """Whether ``REPRO_WARM_CKPT=1`` asks sweeps to share one warmup per
    workload family (see :func:`derive_warm_cells`), locally or through
    a sweep server alike."""
    return os.environ.get("REPRO_WARM_CKPT", "").strip() == "1"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` currently exists (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


#: Environment the parent must reproduce inside pool workers.  The
#: fault plan and the kernel are not here: they travel in the spec.
_WORKER_ENV_KEYS = ("REPRO_SANITIZE", "REPRO_TEST_WORKER_FAULT")


def _worker_env() -> dict[str, str]:
    return {
        key: os.environ[key] for key in _WORKER_ENV_KEYS if key in os.environ
    }


def _worker_init(env: dict[str, str]) -> None:
    """Reproduce the parent's behavioural environment in a pool worker.

    Spawn-based pools on some platforms start workers without the
    parent's (post-launch) environment mutations; cells must run under
    the same sanitizer setting either way, or sanitized parallel runs
    would silently check nothing.
    """
    for key in _WORKER_ENV_KEYS:
        if key in env:
            os.environ[key] = env[key]
        else:
            os.environ.pop(key, None)


def job_timeout() -> float:
    """Per-cell timeout in seconds from ``REPRO_JOB_TIMEOUT`` (0 = off)."""
    raw = os.environ.get("REPRO_JOB_TIMEOUT", "").strip()
    if not raw:
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_JOB_TIMEOUT must be a number of seconds, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"REPRO_JOB_TIMEOUT must be non-negative, got {value}")
    return value


def max_retries() -> int:
    """Pool retry budget from ``REPRO_RETRIES`` (default 2)."""
    raw = os.environ.get("REPRO_RETRIES", "").strip()
    if not raw:
        return 2
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_RETRIES must be a non-negative integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"REPRO_RETRIES must be non-negative, got {value}")
    return value


def _resolve(future: Future, result=None, error: Exception | None = None) -> None:
    """Settle ``future`` unless it was cancelled meanwhile."""
    try:
        future.set_result(result) if error is None else future.set_exception(error)
    except InvalidStateError:
        pass


class CellPool:
    """A persistent, self-healing executor: :meth:`submit` returns a
    :class:`~concurrent.futures.Future` of the cell's :class:`SimResult`.

    The ladder, per cell: (1) one pool future, ``run_cell_batch([spec])``
    -- the name is looked up at submit time, so a wrapper installed on
    this module sees every pool cell; (2) on a crashed worker, a
    ``REPRO_JOB_TIMEOUT`` overrun, or an exception from the cell, at
    most ``REPRO_RETRIES`` resubmits with linear backoff -- a broken
    pool is replaced only while it is still the current pool, so cells
    lost together share one rebuild, and a cell submitted just as its
    pool broke is lost with them, never stranded; (3) then a run in
    process, with no timeout, whose exception fails the future.

    Backoff waits and in-process runs happen on one helper thread, never
    on the submitting thread (the service's event loop) or the pool's.
    ``workers == 0`` has no pool: cells run in process on that thread.
    Both knobs are read once, here, so a bad value fails at construction
    instead of in every cell.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.timeout = job_timeout()
        self.retries = max_retries()
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False
        self._helper = ThreadPoolExecutor(1, thread_name_prefix="repro-cells")

    def submit(self, spec: CellSpec) -> Future:
        """Start ``spec`` up the ladder; never blocks."""
        outer: Future = Future()
        if self.workers:
            self._attempt(spec, outer, 0)
        else:
            self._defer(outer, self._run_here, spec, outer)
        return outer

    def close(self) -> None:
        """Stop now (idempotent): terminate the workers, wedged ones too,
        and cancel every cell not yet resolved."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        self._helper.shutdown(wait=False, cancel_futures=True)
        if pool is not None:
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                proc.terminate()
            pool.shutdown(wait=False, cancel_futures=True)

    def _new_pool(self) -> ProcessPoolExecutor:
        """The pool factory: one call per pool built."""
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_init,
            initargs=(_worker_env(),),
        )

    def _attempt(self, spec: CellSpec, outer: Future, attempt: int) -> None:
        pool = None
        try:
            with self._lock:
                if self._closed:
                    raise RuntimeError("the cell pool is closed")
                if self._pool is None:
                    self._pool = self._new_pool()
                pool = self._pool
            inner = pool.submit(run_cell_batch, [spec], timeout=self.timeout)
        except Exception as exc:  # a broken or closed pool, or none at all
            inner = Future()
            inner.set_exception(exc)
        else:
            if pool._broken:
                # The pool broke while this cell was being submitted, so
                # its manager may never fail it: see _retire.
                self._defer(outer, self._retire, pool)
        inner.add_done_callback(
            functools.partial(self._settle, spec, outer, attempt, pool)
        )

    def _settle(self, spec, outer, attempt, pool, inner: Future) -> None:
        """Pass a pool attempt's result on, or queue the next rung."""
        try:
            (result,) = inner.result()
        except Exception as exc:
            self._defer(
                outer, self._recover, spec, outer, attempt, pool, exc, time.monotonic()
            )
        else:
            _resolve(outer, result)

    def _recover(self, spec, outer, attempt, pool, exc, failed_at: float) -> None:
        """(Helper thread.)  Retire a broken pool, then retry or run here."""
        if isinstance(exc, BrokenProcessPool):
            self._retire(pool)
        if attempt >= self.retries:
            self._run_here(spec, outer)
            return
        time.sleep(max(0.0, failed_at + 0.25 * (attempt + 1) - time.monotonic()))
        self._attempt(spec, outer, attempt + 1)

    def _retire(self, pool: ProcessPoolExecutor) -> None:
        """(Helper thread.)  Stop using a broken pool, and fail every cell
        it stranded so that cell retries like the ones it lost.

        ``ProcessPoolExecutor`` does not lock ``submit`` against a broken
        pool's manager thread: a cell that passed the broken check just
        before the pool broke can be recorded after the manager failed
        and dropped the pending cells, and then nothing ever resolves it
        (recorded while the manager is failing them, it kills the manager
        before the manager stops the workers).  Once the manager has
        exited (``shutdown(wait=True)`` joins it), any cell still pending
        is such a cell.  Idempotent; the pool is replaced only while it
        is still the current one.
        """
        with self._lock:
            if self._pool is pool:
                self._pool = None
        workers = list((pool._processes or {}).values())
        pool.shutdown(wait=True)
        for proc in workers:
            proc.terminate()  # already stopped, unless the manager died
        lost = BrokenProcessPool("the pool broke while this cell was submitted")
        for item in list(pool._pending_work_items.values()):
            _resolve(item.future, error=lost)

    def _run_here(self, spec: CellSpec, outer: Future) -> None:
        """(Helper thread.)  The last rung: run in this process."""
        try:
            _resolve(outer, run_cell(spec))
        except Exception as exc:
            _resolve(outer, error=exc)

    def _defer(self, outer: Future, step, *args) -> None:
        """Run ``step(*args)`` on the helper thread; ``outer`` is
        cancelled if the step never runs (the pool closed first)."""
        try:
            work = self._helper.submit(step, *args)
        except RuntimeError:
            outer.cancel()
            return
        work.add_done_callback(lambda done: done.cancelled() and outer.cancel())


def run_cells(
    specs: list[CellSpec],
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> list[SimResult]:
    """Run every cell, in parallel when it pays, returning results in
    spec order.

    Cached results are returned without running anything; the rest fan
    out over ``jobs`` worker processes through a :class:`CellPool`
    (serially in this thread for ``jobs <= 1`` or a single missing
    cell).  The pool path is self-healing per cell: a cell lost to a
    crashed worker, a ``REPRO_JOB_TIMEOUT`` overrun, or an error is
    resubmitted up to ``REPRO_RETRIES`` times, then runs in process --
    as does every cell when the platform cannot parallelise at all.
    Results are bit-identical across all of these paths: every cell is
    a deterministic, isolated simulation, so *where* it runs (first
    pool, retry, or in process) cannot change *what* it computes.  A
    cell that fails in process too raises here.
    """
    if jobs is None:
        # Cells are pure CPU: more workers than cores is pure overhead,
        # so an ambitious REPRO_JOBS degrades gracefully on small
        # machines.  An explicit ``jobs`` argument is taken literally.
        jobs = min(default_jobs(), os.cpu_count() or 1)
    if warm_checkpoints():
        specs = derive_warm_cells(specs)
    # REPRO_CACHE=0 is enforced inside get/put themselves (a disabled
    # cache misses every get and drops every put), so no guard is
    # needed here or at any other call site.
    if cache is None:
        cache = ResultCache()

    results: list[SimResult | None] = [None] * len(specs)
    missing: list[int] = []
    for idx, spec in enumerate(specs):
        hit = cache.get(spec)
        if hit is not None:
            results[idx] = hit
        else:
            missing.append(idx)

    if missing:
        todo = [specs[idx] for idx in missing]
        workers = min(jobs, len(todo))
        if workers > 1:
            pool = CellPool(workers)
            try:
                futures = [pool.submit(spec) for spec in todo]
                fresh = [future.result() for future in futures]
            finally:
                pool.close()
        else:
            fresh = [run_cell(spec) for spec in todo]
        for idx, spec, result in zip(missing, todo, fresh):
            results[idx] = result
            cache.put(spec, result)

    return results  # type: ignore[return-value]
