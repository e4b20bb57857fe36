"""Tag-only timing caches with MSHRs and bus occupancy.

The model follows Table 1 of the paper.  A :class:`Cache` answers timing
queries: given an address and the cycle the access starts, it returns the
cycle the data is available, recursively consulting the next level on a
miss.  Latency composition (with the Table 1 parameters) yields the
paper's best-case load-use latencies: 3 cycles for an L1 hit, 12 for an L2
hit, and 104 for memory.

Concurrency effects modelled:

* **MSHRs** -- up to ``mshr_count`` outstanding line fills; requests to a
  line already in flight merge with the existing fill (secondary misses);
  a full MSHR file stalls the new request until the earliest fill returns.
* **Buses** -- each inter-level :class:`Bus` is occupied for a fixed
  number of cycles per block transfer; transfers queue FIFO.
* **LRU replacement** with a dirty bit; dirty victims charge a writeback
  transfer on the downstream bus.

Lines are not objects: a set is a ``dict`` from line address to LRU
stamp (the cache's use clock at the line's last touch) and the dirty
bits are one ``set`` per cache, so prewarming thousands of L2 lines when
a machine is built allocates nothing per line.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(slots=True)
class Bus:
    """A shared inter-level transfer link with fixed per-block occupancy."""

    occupancy: int
    next_free: int = 0
    transfers: int = 0

    def acquire(self, cycle: int) -> int:
        """Reserve the bus at or after ``cycle``; returns the start cycle."""
        start = max(cycle, self.next_free)
        self.next_free = start + self.occupancy
        self.transfers += 1
        return start

    def reset(self) -> None:
        self.next_free = 0
        self.transfers = 0

    # -- checkpoint protocol --------------------------------------------
    #: ``occupancy`` is configuration, rebuilt from MachineConfig.
    _SNAPSHOT_TRANSIENT = ("occupancy",)

    def snapshot_state(self, ctx) -> dict:
        return {"next_free": self.next_free, "transfers": self.transfers}

    def restore_state(self, state: dict, ctx) -> None:
        self.next_free = state["next_free"]
        self.transfers = state["transfers"]


@dataclass(slots=True)
class CacheStats:
    """Per-cache event counters."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    mshr_merges: int = 0
    mshr_stalls: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class _DRAM:
    """Terminal level: a flat-latency memory."""

    def __init__(self, latency: int) -> None:
        self.latency = latency
        self.stats = CacheStats()

    def access(self, addr: int, cycle: int, is_write: bool = False) -> int:
        self.stats.accesses += 1
        self.stats.hits += 1
        return cycle + self.latency

    def reset(self) -> None:
        self.stats = CacheStats()

    # -- checkpoint protocol --------------------------------------------
    #: ``latency`` is configuration, rebuilt from MachineConfig.
    _SNAPSHOT_TRANSIENT = ("latency",)

    def snapshot_state(self, ctx) -> dict:
        return {"stats": dataclasses.asdict(self.stats)}

    def restore_state(self, state: dict, ctx) -> None:
        for f in dataclasses.fields(self.stats):
            setattr(self.stats, f.name, state["stats"][f.name])


class Cache:
    """A set-associative, write-back, write-allocate timing cache.

    ``_sets[i]`` maps each resident line address of set ``i`` to its LRU
    stamp; a hit restamps the line in place, so dict order stays install
    order, which checkpoints preserve.  ``_dirty`` holds the resident
    lines written since their fill; an evicted line always leaves it.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_size: int,
        latency: int,
        next_level: "Cache | _DRAM",
        bus_to_next: Bus,
        mshr_count: int = 64,
        fill_latency: int = 1,
    ) -> None:
        if size_bytes % (ways * line_size) != 0:
            raise ValueError(f"{name}: size {size_bytes} not divisible by ways*line")
        self.name = name
        self.ways = ways
        self.line_size = line_size
        self.line_shift = line_size.bit_length() - 1
        if (1 << self.line_shift) != line_size:
            raise ValueError(f"{name}: line size {line_size} not a power of two")
        self.num_sets = size_bytes // (ways * line_size)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: set count {self.num_sets} not a power of two")
        self.set_mask = self.num_sets - 1
        self.latency = latency
        self.fill_latency = fill_latency
        self.next_level = next_level
        self.bus = bus_to_next
        self.mshr_count = mshr_count
        self.stats = CacheStats()
        #: set index -> {line address: LRU stamp}, in install order.
        self._sets: list[dict[int, int]] = [{} for _ in range(self.num_sets)]
        #: Line addresses of the resident dirty lines.
        self._dirty: set[int] = set()
        #: line address -> fill completion cycle (outstanding misses).
        self._mshrs: dict[int, int] = {}
        self._use_clock = 0

    # ------------------------------------------------------------------
    def access(self, addr: int, cycle: int, is_write: bool = False) -> int:
        """Access ``addr`` starting at ``cycle``; return data-ready cycle."""
        stats = self.stats
        stats.accesses += 1
        self._use_clock += 1
        line_addr = addr >> self.line_shift
        # The full line address doubles as the tag key.
        lines = self._sets[line_addr & self.set_mask]
        if line_addr in lines:
            stats.hits += 1
            lines[line_addr] = self._use_clock
            if is_write:
                self._dirty.add(line_addr)
            ready = cycle + self.latency
            # The line may still be in flight (tags are installed when the
            # fill is requested): a hit under an outstanding miss merges
            # with the fill rather than completing early.
            if self._mshrs:
                pending = self._mshrs.get(line_addr)
                if pending is not None and pending > ready:
                    stats.mshr_merges += 1
                    return pending
            return ready

        set_idx = line_addr & self.set_mask
        stats.misses += 1
        self._reap_mshrs(cycle)

        # Merge with an in-flight fill of the same line.
        pending = self._mshrs.get(line_addr)
        if pending is not None:
            self.stats.mshr_merges += 1
            return max(pending, cycle + self.latency)

        # A full MSHR file delays the request until the earliest fill lands.
        if len(self._mshrs) >= self.mshr_count:
            self.stats.mshr_stalls += 1
            cycle = max(cycle, min(self._mshrs.values()))
            self._reap_mshrs(cycle)

        miss_known = cycle + self.latency
        bus_start = self.bus.acquire(miss_known)
        below_ready = self.next_level.access(
            line_addr << self.line_shift, bus_start + self.bus.occupancy, is_write
        )
        fill_cycle = below_ready + self.fill_latency
        self._install(set_idx, line_addr, fill_cycle, is_write)
        self._mshrs[line_addr] = fill_cycle
        return fill_cycle

    # ------------------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """True if the line holding ``addr`` is present (no side effects)."""
        line_addr = addr >> self.line_shift
        return line_addr in self._sets[line_addr & self.set_mask]

    def _install(self, set_idx: int, tag: int, fill_cycle: int, dirty: bool) -> None:
        lines = self._sets[set_idx]
        if len(lines) >= self.ways:
            victim = min(lines, key=lines.__getitem__)
            del lines[victim]
            self.stats.evictions += 1
            if victim in self._dirty:
                self._dirty.remove(victim)
                self.stats.writebacks += 1
                self.bus.acquire(fill_cycle)
        lines[tag] = self._use_clock
        if dirty:
            self._dirty.add(tag)

    def _reap_mshrs(self, cycle: int) -> None:
        if self._mshrs:
            done = [line for line, fill in self._mshrs.items() if fill <= cycle]
            for line in done:
                del self._mshrs[line]

    def prewarm(self, addr: int, size_bytes: int) -> int:
        """Install every line of ``[addr, addr+size)`` without timing.

        Models starting from a checkpoint partway into execution (the
        paper's methodology): hot data structures begin resident.  Each
        line is one touch that advances the use clock.  A resident line
        is restamped in place and keeps its dirty bit; a new line evicts
        its set's least-recently-used line when the set is full (no
        writeback, no statistics) and is installed clean.  So ranges
        beyond capacity keep only the tail.  Returns the number of
        touches, resident lines included.
        """
        first = addr >> self.line_shift
        last = (addr + max(size_bytes, 1) - 1) >> self.line_shift
        sets, set_mask, ways, dirty = self._sets, self.set_mask, self.ways, self._dirty
        clock = self._use_clock
        for line_addr in range(first, last + 1):
            clock += 1
            lines = sets[line_addr & set_mask]
            if line_addr not in lines and len(lines) >= ways:
                victim = min(lines, key=lines.__getitem__)
                del lines[victim]
                dirty.discard(victim)
            lines[line_addr] = clock
        self._use_clock = clock
        return last - first + 1

    def reset(self) -> None:
        """Drop all contents and statistics (cold cache)."""
        self._sets = [{} for _ in range(self.num_sets)]
        self._dirty = set()
        self._mshrs.clear()
        self.stats = CacheStats()
        self._use_clock = 0

    # -- checkpoint protocol --------------------------------------------
    #: Geometry/latency fields are configuration; next_level and bus are
    #: wired by MemoryHierarchy and snapshotted as their own objects.
    _SNAPSHOT_TRANSIENT = (
        "name", "ways", "line_size", "line_shift", "num_sets", "set_mask",
        "latency", "fill_latency", "next_level", "bus", "mshr_count",
    )

    def snapshot_state(self, ctx) -> dict:
        """Encode sets/MSHRs preserving dict insertion order.

        Each line is ``[line address, LRU stamp, dirty]``.  LRU victims
        are unique by stamp so order is not strictly architectural here,
        but preserving it keeps restored and straight-through runs
        structurally identical.
        """
        dirty = self._dirty
        return {
            "sets": [
                [[tag, last_use, tag in dirty] for tag, last_use in lines.items()]
                for lines in self._sets
            ],
            "mshrs": [[k, v] for k, v in self._mshrs.items()],
            "use_clock": self._use_clock,
            "stats": dataclasses.asdict(self.stats),
        }

    def restore_state(self, state: dict, ctx) -> None:
        if len(state["sets"]) != self.num_sets:
            raise ValueError(
                f"{self.name}: snapshot has {len(state['sets'])} sets, "
                f"cache has {self.num_sets}"
            )
        self._sets = [
            {tag: last_use for tag, last_use, _ in lines} for lines in state["sets"]
        ]
        self._dirty = {
            tag for lines in state["sets"] for tag, _, dirty in lines if dirty
        }
        self._mshrs = {k: v for k, v in state["mshrs"]}
        self._use_clock = state["use_clock"]
        for f in dataclasses.fields(self.stats):
            setattr(self.stats, f.name, state["stats"][f.name])


def make_dram(latency: int) -> _DRAM:
    """Construct the terminal DRAM level."""
    return _DRAM(latency)
