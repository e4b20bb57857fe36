"""Content-addressed result store: the sweep service's cache layer.

:class:`ContentStore` promotes the fingerprint-keyed
:class:`~repro.sim.parallel.ResultCache` into a proper store: the same
on-disk layout (one fsynced, rename-published
:class:`~repro.sim.parallel.CellEntry` plus a JSON manifest per cell,
addressed by :attr:`~repro.sim.parallel.CellSpec.key`: the sha-256 of
the spec -- which carries its fault plan and kernel -- and the source
fingerprint), but with

* **reads that decode nothing** -- :meth:`ContentStore.get` and
  :meth:`ContentStore.read` return the entry's header and pickled
  payload as read, checksum verified, so a hit costs one file read;

* a **size bound** -- ``max_entries`` / ``max_bytes`` (or the
  ``REPRO_SERVE_CACHE_ENTRIES`` / ``REPRO_SERVE_CACHE_MB`` knobs) --
  enforced by least-recently-used eviction after every publish;
* **counters** (hits, misses, puts, evictions, in-flight dedupes)
  surfaced on the service's ``/stats`` endpoint (with the occupancy,
  ``entries`` and ``bytes``) and embedded in every manifest the store
  writes (the ``cache`` block,
  :func:`repro.obs.manifest.build_manifest`);
* recency kept in memory: a hit moves the entry to most-recently-used
  in this process and writes nothing to disk, and files another
  process wrote are ordered by their write time, oldest first;
* reads by content address (:meth:`ContentStore.read`), which is how a
  job's results find the cells its journal names.

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

from repro.sim.parallel import CellEntry, CellSpec, ResultCache, read_entry
from repro.sim.simulator import SimResult

#: What a content address looks like (the 40-hex-digit sha-256 prefix
#: :attr:`CellSpec.key` files results under).
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
        #: Entry names this process has read or written, least
        #: recent first.
        self._lru: OrderedDict[str, None] = OrderedDict()
        #: Cluster identity block embedded in manifests (node id plus
        #: owned/forwarded counters); set by the service in cluster
        #: mode, ``None`` on a single host.
        self.node_info: Callable[[], dict] | None = None

    # ------------------------------------------------------------------
    def key(self, spec: CellSpec) -> str:
        """The cell's content address (the hash the entry is filed
        under); in-flight dedupe and ring placement both key on this."""
        return spec.key

    def get(self, spec: CellSpec) -> CellEntry | None:
        """The cell's entry, undecoded, or ``None`` on a miss (absent,
        damaged, or the cache is disabled)."""
        path = self._path(spec)
        entry = read_entry(path) if self.enabled() else None
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            self._touch(path.name)
        return entry

    def put(self, spec: CellSpec, result: SimResult) -> CellEntry | None:
        if not self.enabled():
            return None
        # Counted before the write so the manifest published inside it
        # (which embeds the counters) already reflects this put.
        self.stats.puts += 1
        entry = super().put(spec, result)
        self._touch(self._path(spec).name)
        self._evict()
        return entry

    def read(self, key: str) -> CellEntry | None:
        """The entry stored under content address ``key`` (a job's
        journaled key), undecoded, or ``None`` when the key is
        malformed or the entry evicted or damaged.  Counts no hit or
        miss: a job's results re-read what the job already resolved."""
        if not _KEY_RE.fullmatch(key):
            return None  # never let a journal key escape the store dir
        return read_entry(self.directory / f"{key}.pkl")

    # ------------------------------------------------------------------
    def _touch(self, name: str) -> None:
        """Move ``name`` to most-recently-used, in memory only."""
        self._lru.pop(name, None)
        self._lru[name] = None

    def _scan(self) -> list[tuple[Path, os.stat_result]]:
        """Every published entry with its ``stat``, from one listing."""
        found = []
        try:
            with os.scandir(self.directory) as listing:
                for entry in listing:
                    try:
                        if entry.name.endswith(".pkl") and entry.is_file():
                            found.append((Path(entry.path), entry.stat()))
                    except OSError:
                        continue  # evicted by another process meanwhile
        except OSError:
            pass
        return found

    def entries(self) -> list[Path]:
        """Every published entry currently in the store."""
        return [path for path, _ in self._scan()]

    def _evict(self) -> None:
        """Unlink entries until the store is within its bounds: first
        those this process never read or wrote (other processes' cells,
        oldest write first), then its own, least recently used first."""
        if not self.max_entries and not self.max_bytes:
            return
        found = self._scan()
        count = len(found)
        size = sum(info.st_size for _, info in found)
        # list() copies in one step: other threads' hits may touch it.
        ranks = {name: idx for idx, name in enumerate(list(self._lru))}

        def victim_order(item: tuple[Path, os.stat_result]) -> tuple:
            rank = ranks.get(item[0].name)
            return (0, item[1].st_mtime) if rank is None else (1, rank)

        for victim, info in sorted(found, key=victim_order):
            if (not self.max_entries or count <= self.max_entries) and (
                not self.max_bytes or size <= self.max_bytes
            ):
                break
            try:
                victim.unlink()
            except OSError:
                continue
            try:
                victim.with_suffix(".json").unlink()
            except OSError:
                pass
            count -= 1
            size -= info.st_size
            self._lru.pop(victim.name, None)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    def stats_dict(self) -> dict[str, int]:
        """Counters plus current occupancy, for ``/stats`` (all values
        are non-negative integers by schema)."""
        found = self._scan()
        return {
            **self.stats.as_dict(),
            "entries": len(found),
            "bytes": sum(info.st_size for _, info in found),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }

    def _manifest_cache_stats(self) -> dict | None:
        """The counters alone: occupancy would cost every put a
        directory walk."""
        return self.stats.as_dict()

    def _manifest_node_info(self) -> dict | None:
        return self.node_info() if self.node_info is not None else None
