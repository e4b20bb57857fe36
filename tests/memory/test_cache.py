"""Unit tests for the cache timing model (Table 1 latencies)."""

import random

import pytest

from repro.memory.cache import Bus, Cache, make_dram
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy


@pytest.fixture
def hierarchy():
    return MemoryHierarchy(HierarchyConfig())


class TestTable1Latencies:
    def test_l1_hit_load_use_is_3(self, hierarchy):
        hierarchy.load(0x1000, 0)  # install (fill lands at cycle 104)
        assert hierarchy.load(0x1000, 200) == 203

    def test_hit_under_outstanding_miss_waits_for_fill(self, hierarchy):
        fill = hierarchy.load(0x1000, 0)
        assert hierarchy.load(0x1000, 50) == fill

    def test_l2_hit_load_use_is_12(self, hierarchy):
        hierarchy.l2.prewarm(0x1000, 64)
        assert hierarchy.load(0x1000, 100) == 112

    def test_memory_load_use_is_104(self, hierarchy):
        assert hierarchy.load(0x1000, 100) == 204

    def test_ifetch_same_path(self, hierarchy):
        assert hierarchy.ifetch(0x0, 0) == 104
        assert hierarchy.ifetch(0x0, 200) == 203


class TestCacheBehaviour:
    def test_hit_after_fill(self, hierarchy):
        hierarchy.load(0x4000, 0)
        assert hierarchy.l1d.probe(0x4000)

    def test_line_granularity(self, hierarchy):
        hierarchy.load(0x4000, 0)
        assert hierarchy.l1d.probe(0x4000 + 16)  # same 32B line
        assert not hierarchy.l1d.probe(0x4000 + 32)

    def test_lru_eviction(self):
        dram = make_dram(80)
        bus = Bus(2)
        cache = Cache("t", size_bytes=128, ways=2, line_size=32, latency=1,
                      next_level=dram, bus_to_next=bus)
        # Two sets; fill set 0's two ways then a third conflicting line.
        cache.access(0, 0)
        cache.access(128, 10)
        cache.access(0, 20)  # touch line 0: line 128 becomes LRU
        cache.access(256, 30)
        assert cache.probe(0)
        assert not cache.probe(128)
        assert cache.stats.evictions == 1

    def test_dirty_eviction_counts_writeback(self):
        dram = make_dram(80)
        bus = Bus(2)
        cache = Cache("t", size_bytes=64, ways=1, line_size=32, latency=1,
                      next_level=dram, bus_to_next=bus)
        cache.access(0, 0, is_write=True)
        cache.access(64, 200, is_write=False)  # evicts dirty line 0
        assert cache.stats.writebacks == 1

    def test_mshr_merge_same_line(self, hierarchy):
        first = hierarchy.load(0x8000, 0)
        merged = hierarchy.load(0x8000 + 8, 1)
        assert merged == first
        assert hierarchy.l1d.stats.mshr_merges == 1

    def test_bus_occupancy_serialises_misses(self, hierarchy):
        # Two misses to different lines in the same cycle: the second's
        # L1/L2 transfer queues behind the first's.
        a = hierarchy.load(0x10000, 0)
        b = hierarchy.load(0x20000, 0)
        assert b > a

    def test_mshr_capacity_stalls(self):
        dram = make_dram(80)
        bus = Bus(0)
        cache = Cache("t", size_bytes=1 << 16, ways=4, line_size=32, latency=1,
                      next_level=dram, bus_to_next=bus, mshr_count=2)
        cache.access(0 << 5, 0)
        cache.access(1 << 5, 0)
        third = cache.access(2 << 5, 0)
        assert cache.stats.mshr_stalls == 1
        assert third > 81  # waited for an earlier fill

    def test_prewarm_respects_capacity(self):
        dram = make_dram(80)
        cache = Cache("t", size_bytes=128, ways=2, line_size=32, latency=1,
                      next_level=dram, bus_to_next=Bus(2))
        cache.prewarm(0, 4 * 128)  # 4x capacity
        present = sum(
            1 for line in range(16) if cache.probe(line * 32)
        )
        assert present == 4  # exactly capacity survives

    def test_reset_clears_contents_and_stats(self, hierarchy):
        hierarchy.load(0x1000, 0)
        hierarchy.reset()
        assert not hierarchy.l1d.probe(0x1000)
        assert hierarchy.l1d.stats.accesses == 0

    def test_miss_rate_property(self, hierarchy):
        hierarchy.load(0x1000, 0)
        hierarchy.load(0x1000, 200)
        assert hierarchy.l1d.stats.miss_rate == 0.5


class TestValidation:
    def test_bad_geometry_rejected(self):
        dram = make_dram(80)
        with pytest.raises(ValueError):
            Cache("t", size_bytes=100, ways=3, line_size=32, latency=1,
                  next_level=dram, bus_to_next=Bus(2))

    def test_non_power_of_two_line_rejected(self):
        dram = make_dram(80)
        with pytest.raises(ValueError):
            Cache("t", size_bytes=960, ways=2, line_size=30, latency=1,
                  next_level=dram, bus_to_next=Bus(2))


class _RefLine:
    __slots__ = ("tag", "last_use", "dirty")

    def __init__(self, tag, last_use, dirty=False):
        self.tag, self.last_use, self.dirty = tag, last_use, dirty


class _RefCache:
    """Per-line LRU reference: one explicit object per resident line.

    Follows the model's rules: every access and every prewarm touch
    advances the clock; a hit restamps in place (a write sets the dirty
    bit); a miss evicts the least stamp of a full set (a dirty victim is
    a writeback), then appends the line; a prewarm touch restamps a
    resident line, keeping its dirty bit, or evicts without a writeback
    or any count and appends the line clean.
    """

    def __init__(self, num_sets, ways, line_shift):
        self.num_sets, self.ways, self.line_shift = num_sets, ways, line_shift
        self.reset()

    def reset(self):
        self.sets = [{} for _ in range(self.num_sets)]
        self.clock = self.hits = self.misses = self.evictions = self.writebacks = 0

    def _touch(self, line_addr, is_write, counted):
        self.clock += 1
        lines = self.sets[line_addr % self.num_sets]
        line = lines.get(line_addr)
        if line is not None:
            self.hits += counted
            line.last_use = self.clock
            line.dirty = line.dirty or is_write
            return
        self.misses += counted
        if len(lines) >= self.ways:
            victim = min(lines.values(), key=lambda line: line.last_use)
            del lines[victim.tag]
            if counted:
                self.evictions += 1
                self.writebacks += victim.dirty
        lines[line_addr] = _RefLine(line_addr, self.clock, is_write)

    def access(self, addr, is_write):
        self._touch(addr >> self.line_shift, is_write, counted=1)

    def prewarm(self, addr, size_bytes):
        first = addr >> self.line_shift
        last = (addr + max(size_bytes, 1) - 1) >> self.line_shift
        for line_addr in range(first, last + 1):
            self._touch(line_addr, False, counted=0)

    def state(self):
        sets = [[[line.tag, line.last_use, line.dirty] for line in lines.values()]
                for lines in self.sets]
        return sets, self.clock, (self.hits, self.misses, self.evictions, self.writebacks)


def _tiny_cache():
    """4 sets x 2 ways of 32-byte lines."""
    return Cache("t", size_bytes=256, ways=2, line_size=32, latency=1,
                 next_level=make_dram(80), bus_to_next=Bus(2))


def _state(cache):
    sets = [
        [[tag, last_use, tag in cache._dirty] for tag, last_use in lines.items()]
        for lines in cache._sets
    ]
    s = cache.stats
    return sets, cache._use_clock, (s.hits, s.misses, s.evictions, s.writebacks)


class TestPerLineReference:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_per_line_lru_reference(self, seed):
        rng = random.Random(seed)
        cache = _tiny_cache()
        ref = _RefCache(cache.num_sets, cache.ways, cache.line_shift)
        span = 24 * 32  # 24 lines over 8 ways: constant conflict
        writebacks = 0
        for i in range(400):
            op = rng.random()
            if op < 0.35:
                addr = rng.randrange(span)
                # 10,000 cycles apart: every earlier fill has landed.
                cache.access(addr, i * 10_000)
                ref.access(addr, False)
            elif op < 0.7:
                addr = rng.randrange(span)
                cache.access(addr, i * 10_000, is_write=True)
                ref.access(addr, True)
            elif op < 0.97:
                # Overlapping, retouching and over-capacity ranges.
                addr = rng.randrange(span)
                size = rng.choice([0, 1, 8, 32, 64, 100, 300, 700])
                assert cache.prewarm(addr, size) == (
                    (addr + max(size, 1) - 1) // 32 - addr // 32 + 1
                )
                ref.prewarm(addr, size)
            else:
                cache.reset()
                ref.reset()
            assert _state(cache) == ref.state(), f"op {i}"
            writebacks = max(writebacks, cache.stats.writebacks)
        assert writebacks > 0

    def test_reset_forgets_dirty_bits(self):
        cache = _tiny_cache()
        cache.access(0, 0, is_write=True)
        cache.reset()
        cache.access(0, 10_000)  # line 0 back, clean
        cache.access(128, 20_000)  # lines 4 and 8 share set 0
        cache.access(256, 30_000)  # evicts line 0
        assert not cache.probe(0)
        assert cache.stats.evictions == 1
        assert cache.stats.writebacks == 0
