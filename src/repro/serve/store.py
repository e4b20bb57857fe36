"""Content-addressed result store: the sweep service's cache layer.

:class:`ContentStore` promotes the fingerprint-keyed
:class:`~repro.sim.parallel.ResultCache` into a proper store: the same
on-disk layout (one fsynced, rename-published pickle plus a JSON
manifest per cell, addressed by the sha-256 of everything that defines
the result -- spec, engine backend, fault spec, source fingerprint), but
with

* a **size bound** -- ``max_entries`` / ``max_bytes`` (or the
  ``REPRO_SERVE_CACHE_ENTRIES`` / ``REPRO_SERVE_CACHE_MB`` knobs) --
  enforced by least-recently-used eviction after every publish;
* **counters** (hits, misses, puts, evictions, in-flight dedupes)
  surfaced on the service's ``/stats`` endpoint and embedded in every
  manifest the store writes (the ``cache`` block,
  :func:`repro.obs.manifest.build_manifest`);
* cross-process LRU: every hit touches the entry's mtime, so a store
  directory shared by several service processes still evicts globally
  least-recently-used cells first;
* reads by content address (:meth:`ContentStore.read`), which is how a
  job's results stream finds the cells its journal names.

Because the layout and addressing are identical to ``ResultCache``, the
service's store and the parallel runner's cache are the *same* cache: a
sweep run through ``run_cells`` warms the service and vice versa.
"""

from __future__ import annotations

import dataclasses
import os
import re
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.sim.parallel import CellSpec, ResultCache
from repro.sim.simulator import SimResult

#: What a content address looks like (the 40-hex-digit sha-256 prefix
#: :meth:`ResultCache._path` files results under).
_KEY_RE = re.compile(r"[0-9a-f]{40}")


def _env_int(name: str, default: int) -> int:
    """A non-negative integer knob (0 = unlimited), validated early."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a non-negative integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


@dataclass
class StoreStats:
    """Lifetime counters of one store instance (all monotonic)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    #: Requests served by awaiting an already-running simulation of the
    #: same cell instead of starting another one (service-level dedupe).
    inflight_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class ContentStore(ResultCache):
    """Size-bounded, stats-carrying, LRU-evicting result store."""

    def __init__(
        self,
        directory: str | Path | None = None,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        super().__init__(directory)
        if max_entries is None:
            max_entries = _env_int("REPRO_SERVE_CACHE_ENTRIES", 0)
        if max_bytes is None:
            max_bytes = _env_int("REPRO_SERVE_CACHE_MB", 0) * 1024 * 1024
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = StoreStats()
        #: Pickle names this process has touched, least recent first.
        self._lru: OrderedDict[str, None] = OrderedDict()
        #: Cluster identity block embedded in manifests (node id plus
        #: owned/forwarded counters); set by the service in cluster
        #: mode, ``None`` on a single host.
        self.node_info: Callable[[], dict] | None = None

    # ------------------------------------------------------------------
    def key(self, spec: CellSpec) -> str:
        """The cell's content address (the hash the pickle is filed
        under); in-flight dedupe and ring placement both key on this."""
        return self._path(spec).stem

    def get(self, spec: CellSpec) -> SimResult | None:
        result = super().get(spec)
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            self._touch(self._path(spec).name)
        return result

    def put(self, spec: CellSpec, result: SimResult) -> None:
        if not self.enabled():
            return
        # Counted before the write so the manifest published inside it
        # (which embeds stats_dict) already reflects this put.
        self.stats.puts += 1
        super().put(spec, result)
        self._touch(self._path(spec).name)
        self._evict()

    def read(self, key: str) -> SimResult | None:
        """The result stored under content address ``key`` (a job's
        journaled key), or ``None`` when the key is malformed, evicted
        or unreadable.  Counts no hit or miss: a job's results stream
        re-reads what the job already resolved."""
        if not _KEY_RE.fullmatch(key):
            return None  # never let a journal key escape the store dir
        return self._load(self.directory / f"{key}.pkl")

    # ------------------------------------------------------------------
    def _touch(self, name: str) -> None:
        """Move ``name`` to most-recently-used, in memory and on disk."""
        self._lru.pop(name, None)
        self._lru[name] = None
        try:
            os.utime(self.directory / name)
        except OSError:
            pass  # entry may have been evicted by another process

    def entries(self) -> list[Path]:
        """Every published pickle currently in the store."""
        try:
            return [p for p in self.directory.glob("*.pkl") if p.is_file()]
        except OSError:
            return []

    def total_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def _eviction_order(self) -> list[Path]:
        """Victims first: entries this process never touched (by mtime,
        oldest first -- other processes' cold cells), then our own in
        least-recently-used order."""
        ranks = {name: idx for idx, name in enumerate(self._lru)}
        known: list[tuple[int, Path]] = []
        unknown: list[tuple[float, Path]] = []
        for path in self.entries():
            rank = ranks.get(path.name)
            if rank is not None:
                known.append((rank, path))
            else:
                try:
                    unknown.append((path.stat().st_mtime, path))
                except OSError:
                    continue
        unknown.sort(key=lambda pair: pair[0])
        known.sort(key=lambda pair: pair[0])
        return [path for _, path in unknown] + [path for _, path in known]

    def _over_budget(self) -> bool:
        if self.max_entries and len(self.entries()) > self.max_entries:
            return True
        return bool(self.max_bytes) and self.total_bytes() > self.max_bytes

    def _evict(self) -> None:
        if not self.max_entries and not self.max_bytes:
            return
        order = self._eviction_order()
        while order and self._over_budget():
            victim = order.pop(0)
            try:
                victim.unlink()
            except OSError:
                continue
            try:
                victim.with_suffix(".json").unlink()
            except OSError:
                pass
            self._lru.pop(victim.name, None)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    def stats_dict(self) -> dict[str, int]:
        """Counters plus current occupancy, for ``/stats`` and
        manifests (all values are non-negative integers by schema)."""
        return {
            **self.stats.as_dict(),
            "entries": len(self.entries()),
            "bytes": self.total_bytes(),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }

    def _manifest_cache_stats(self) -> dict | None:
        return self.stats_dict()

    def _manifest_node_info(self) -> dict | None:
        return self.node_info() if self.node_info is not None else None
