"""The page table, stored in cacheable memory.

A flat (single-level) table: the PTE for virtual page ``vpn`` lives at
``base + 8 * vpn``.  The table occupies a reserved high address range that
user code cannot name; the software TLB miss handler and the hardware
walker load PTEs from it with *physical* (untranslated) accesses that
nevertheless travel through L1D/L2 -- so PTEs compete with application
data for cache space, exactly as in the paper ("page table entries are
treated like any other data and compete for space in the cache").

PTE encoding: bit 0 is the valid bit, the page frame number sits above it.
A zero word (the default for untouched memory) is an invalid PTE, so
unmapped pages fault naturally.
"""

from __future__ import annotations

from repro.memory.address import PAGE_SHIFT, vpn_of
from repro.memory.main_memory import MainMemory

#: Valid bit of a PTE.
PTE_VALID = 0x1

#: Default base of the page-table region -- far above any workload data.
DEFAULT_PT_BASE = 1 << 40

_ADDR_MASK = (1 << 64) - 1


def make_pte(pfn: int, valid: bool = True) -> int:
    """Encode a PTE from a page frame number."""
    return ((pfn << 1) | (PTE_VALID if valid else 0)) & _ADDR_MASK


def pte_pfn(pte: int) -> int:
    """Page frame number field of a PTE."""
    return (pte & _ADDR_MASK) >> 1

def pte_valid(pte: int) -> bool:
    """True when the PTE's valid bit is set."""
    return bool(pte & PTE_VALID)


class PageTable:
    """Flat page table resident in :class:`MainMemory`."""

    def __init__(self, memory: MainMemory, base: int = DEFAULT_PT_BASE) -> None:
        if base % 8 != 0:
            raise ValueError("page table base must be 8-byte aligned")
        self.memory = memory
        self.base = base
        self._mapped: set[int] = set()

    def pte_address(self, vpn: int) -> int:
        """Physical address of the PTE for page ``vpn``."""
        return (self.base + 8 * (vpn & (_ADDR_MASK >> PAGE_SHIFT))) & _ADDR_MASK

    def map(self, vpn: int, pfn: int | None = None) -> None:
        """Install a valid translation (identity mapping by default)."""
        pfn = vpn if pfn is None else pfn
        self.memory.write_word(self.pte_address(vpn), make_pte(pfn))
        self._mapped.add(vpn)

    def unmap(self, vpn: int) -> None:
        """Invalidate a translation (subsequent misses page-fault)."""
        self.memory.write_word(self.pte_address(vpn), 0)
        self._mapped.discard(vpn)

    def map_range(self, base_va: int, size_bytes: int) -> int:
        """Map every page overlapping ``[base_va, base_va + size)``.

        Returns the number of pages mapped.
        """
        first = vpn_of(base_va)
        last = vpn_of(base_va + max(size_bytes, 1) - 1)
        for vpn in range(first, last + 1):
            self.map(vpn)
        return last - first + 1

    def is_mapped(self, vpn: int) -> bool:
        """True when ``vpn`` currently has a valid PTE."""
        return vpn in self._mapped

    def read_pte(self, vpn: int) -> int:
        """Functional read of the PTE word (what a handler load returns)."""
        value = self.memory.read_word(self.pte_address(vpn))
        return int(value)

    def mapped_vpns(self) -> set[int]:
        """The set of currently mapped virtual page numbers."""
        return set(self._mapped)

    @property
    def mapped_pages(self) -> int:
        return len(self._mapped)

    #: ``memory`` is the owning simulator's MainMemory, captured on its own.
    _SNAPSHOT_TRANSIENT = ("memory",)
