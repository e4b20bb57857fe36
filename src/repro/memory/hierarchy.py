"""Composition of the Table 1 memory hierarchy.

``L1I`` and ``L1D`` share one L1/L2 bus and a unified L2, which talks to
DRAM over the L2/memory bus.  The facade methods
:meth:`MemoryHierarchy.load`, :meth:`MemoryHierarchy.store` and
:meth:`MemoryHierarchy.ifetch` return *data-ready cycles* for the pipeline
to use as instruction completion times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import Bus, Cache, make_dram


@dataclass
class HierarchyConfig:
    """Parameters of the cache hierarchy (defaults are Table 1)."""

    l1i_size: int = 64 * 1024
    l1i_ways: int = 2
    l1i_line: int = 32
    l1d_size: int = 64 * 1024
    l1d_ways: int = 2
    l1d_line: int = 32
    #: L1 hit latency == the load-use latency of a hitting load.
    l1_latency: int = 3
    l1_mshrs: int = 64
    l1l2_bus_occupancy: int = 2
    l2_size: int = 1024 * 1024
    l2_ways: int = 4
    l2_line: int = 64
    l2_latency: int = 6
    l2_mshrs: int = 64
    l2mem_bus_occupancy: int = 11
    memory_latency: int = 80


class MemoryHierarchy:
    """The full L1I/L1D/L2/DRAM timing stack."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        self.dram = make_dram(cfg.memory_latency)
        self.l2_bus = Bus(cfg.l2mem_bus_occupancy)
        self.l2 = Cache(
            "L2",
            cfg.l2_size,
            cfg.l2_ways,
            cfg.l2_line,
            cfg.l2_latency,
            next_level=self.dram,
            bus_to_next=self.l2_bus,
            mshr_count=cfg.l2_mshrs,
        )
        self.l1_bus = Bus(cfg.l1l2_bus_occupancy)
        self.l1d = Cache(
            "L1D",
            cfg.l1d_size,
            cfg.l1d_ways,
            cfg.l1d_line,
            cfg.l1_latency,
            next_level=self.l2,
            bus_to_next=self.l1_bus,
            mshr_count=cfg.l1_mshrs,
        )
        self.l1i = Cache(
            "L1I",
            cfg.l1i_size,
            cfg.l1i_ways,
            cfg.l1i_line,
            cfg.l1_latency,
            next_level=self.l2,
            bus_to_next=self.l1_bus,
            mshr_count=cfg.l1_mshrs,
        )

    def load(self, addr: int, cycle: int) -> int:
        """Data-ready cycle of a load issued at ``cycle``."""
        return self.l1d.access(addr, cycle, is_write=False)

    def store(self, addr: int, cycle: int) -> int:
        """Line-owned cycle of a store issued at ``cycle``.

        The pipeline treats stores as complete after the store-port
        latency (they drain through a write buffer); the returned cycle
        only matters for bus/cache state.
        """
        return self.l1d.access(addr, cycle, is_write=True)

    def ifetch(self, addr: int, cycle: int) -> int:
        """Instructions-ready cycle of an instruction-cache access."""
        return self.l1i.access(addr, cycle)

    def reset(self) -> None:
        """Return every level to a cold state."""
        for unit in (self.l1i, self.l1d, self.l2, self.dram):
            unit.reset()
        self.l1_bus.reset()
        self.l2_bus.reset()

    #: ``config`` is rebuilt from the MachineConfig stored in the header.
    _SNAPSHOT_TRANSIENT = ("config",)
