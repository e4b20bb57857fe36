"""Translation lookaside buffers.

The data TLB is the structure whose misses drive the whole paper.  The
model is a fully-associative, LRU, 64-entry (configurable) TLB supporting
*speculative* fills: ``tlbwr`` executed by an in-flight handler installs
an entry immediately usable by waiting instructions, tagged with the
identity of the producing exception instance.  When the handler retires
the entry is confirmed; if the handler (or the excepting instruction) is
squashed the entry is rolled back.  Hardware-walker fills install as
confirmed entries right away -- the paper's speculative-update behaviour
that produces the gcc anomaly.

:class:`PerfectTLB` is the infinite, always-hitting TLB used for the
baseline runs that define the penalty-per-miss metric.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class TLBEntry:
    """One installed translation."""

    vpn: int
    pfn: int
    speculative: bool = False
    #: Identity of the producing exception instance (speculative fills).
    producer: int | None = None


@dataclass
class TLBStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    confirmed_fills: int = 0
    rollbacks: int = 0
    invalidations: int = 0

    _SNAPSHOT_TRANSIENT = ()


class TLB:
    """Fully-associative LRU TLB with speculative-fill support."""

    def __init__(self, entries: int = 64) -> None:
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.capacity = entries
        self._entries: OrderedDict[int, TLBEntry] = OrderedDict()
        self.stats = TLBStats()

    def lookup(self, vpn: int) -> TLBEntry | None:
        """Translate ``vpn``; updates LRU state and hit/miss counters."""
        self.stats.lookups += 1
        entry = self._entries.get(vpn)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._entries.move_to_end(vpn)
        return entry

    def probe(self, vpn: int) -> TLBEntry | None:
        """Side-effect-free presence check (no LRU or counter update)."""
        return self._entries.get(vpn)

    def fill(
        self,
        vpn: int,
        pfn: int,
        speculative: bool = False,
        producer: int | None = None,
    ) -> TLBEntry:
        """Install a translation, evicting LRU if the TLB is full."""
        self.stats.fills += 1
        if not speculative:
            self.stats.confirmed_fills += 1
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        entry = TLBEntry(vpn=vpn, pfn=pfn, speculative=speculative, producer=producer)
        self._entries[vpn] = entry
        return entry

    def confirm(self, producer: int) -> int:
        """Commit speculative fills from ``producer``; returns the count."""
        confirmed = 0
        for entry in self._entries.values():
            if entry.speculative and entry.producer == producer:
                entry.speculative = False
                entry.producer = None
                confirmed += 1
                self.stats.confirmed_fills += 1
        return confirmed

    def rollback(self, producer: int) -> int:
        """Remove speculative fills from ``producer``; returns the count."""
        doomed = [
            vpn
            for vpn, entry in self._entries.items()
            if entry.speculative and entry.producer == producer
        ]
        for vpn in doomed:
            del self._entries[vpn]
        self.stats.rollbacks += len(doomed)
        return len(doomed)

    def invalidate(self, vpn: int) -> bool:
        """Drop the entry for ``vpn`` if present."""
        if vpn in self._entries:
            del self._entries[vpn]
            self.stats.invalidations += 1
            return True
        return False

    def flush(self) -> None:
        """Drop every entry (context-switch semantics)."""
        self._entries.clear()

    def resident_vpns(self) -> list[int]:
        """Every resident VPN in LRU order (oldest first).

        Side-effect-free; used by the fault injector to pick eviction
        victims deterministically.
        """
        return list(self._entries)

    def rollback_all_speculative(self) -> int:
        """Remove every speculative entry regardless of producer.

        Quiesce support: after a drain no in-flight handler can confirm a
        speculative fill, so any survivors would leak into the checkpoint.
        """
        doomed = [
            vpn for vpn, entry in self._entries.items() if entry.speculative
        ]
        for vpn in doomed:
            del self._entries[vpn]
        self.stats.rollbacks += len(doomed)
        return len(doomed)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    #: Checkpoints capture every field; ``_entries`` keeps its LRU order.
    _SNAPSHOT_TRANSIENT = ()


class PerfectTLB:
    """An always-hitting TLB with identity translation.

    Used for the baseline runs: the paper's penalty-per-miss metric is
    (run time - perfect-TLB run time) / number of fills.
    """

    capacity = None

    def __init__(self) -> None:
        self.stats = TLBStats()

    def lookup(self, vpn: int) -> TLBEntry:
        self.stats.lookups += 1
        self.stats.hits += 1
        return TLBEntry(vpn=vpn, pfn=vpn)

    def probe(self, vpn: int) -> TLBEntry:
        return TLBEntry(vpn=vpn, pfn=vpn)

    def fill(self, vpn: int, pfn: int, speculative: bool = False,
             producer: int | None = None) -> TLBEntry:
        return TLBEntry(vpn=vpn, pfn=pfn)

    def confirm(self, producer: int) -> int:
        return 0

    def rollback(self, producer: int) -> int:
        return 0

    def invalidate(self, vpn: int) -> bool:
        return False

    def flush(self) -> None:
        pass

    def rollback_all_speculative(self) -> int:
        return 0

    def resident_vpns(self) -> list[int]:
        """No storage to corrupt: TLB faults are no-ops on a perfect TLB."""
        return []

    _SNAPSHOT_TRANSIENT = ()
