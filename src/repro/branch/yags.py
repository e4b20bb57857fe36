"""YAGS conditional branch predictor (Eden & Mudge, MICRO-31 1998).

YAGS ("Yet Another Global Scheme") keeps a PC-indexed *choice* table of
2-bit counters giving each branch's bias, plus two small tagged caches
recording only the *exceptions* to that bias:

* the **NT-cache** holds cases where a taken-biased branch goes not-taken,
* the **T-cache** holds cases where a not-taken-biased branch goes taken.

Both caches are indexed by PC xor global history and tagged with low PC
bits.  On a prediction, the cache on the opposite side of the bias is
consulted; a tag hit overrides the bias with the cached 2-bit counter.

Sizing follows the paper's Table 1: a 2^14-entry choice table and
2^12-entry exception caches with 6-bit tags.
"""

from __future__ import annotations

from dataclasses import dataclass


def _counter_up(value: int) -> int:
    return min(3, value + 1)


def _counter_down(value: int) -> int:
    return max(0, value - 1)


@dataclass
class _CacheEntry:
    tag: int
    counter: int


class YAGSPredictor:
    """YAGS direction predictor with a shared global history register."""

    def __init__(
        self,
        choice_bits: int = 14,
        cache_bits: int = 12,
        tag_bits: int = 6,
        history_bits: int = 12,
    ) -> None:
        self.choice_size = 1 << choice_bits
        self.cache_size = 1 << cache_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        # Choice counters start weakly not-taken: a cold predictor must
        # not send handler fault-check branches down their taken path
        # (loops learn their bias after a single misprediction anyway).
        self.choice = [1] * self.choice_size
        self.t_cache: list[_CacheEntry | None] = [None] * self.cache_size
        self.nt_cache: list[_CacheEntry | None] = [None] * self.cache_size
        self.predictions = 0
        self.mispredictions = 0

    def _choice_index(self, pc: int) -> int:
        return pc % self.choice_size

    def _cache_index(self, pc: int, history: int) -> int:
        return (pc ^ (history & self.history_mask)) % self.cache_size

    def _tag(self, pc: int) -> int:
        return pc & self.tag_mask

    def predict(self, pc: int, history: int) -> bool:
        """Predicted direction of the branch at ``pc`` under ``history``."""
        self.predictions += 1
        bias_taken = self.choice[self._choice_index(pc)] >= 2
        cache = self.nt_cache if bias_taken else self.t_cache
        entry = cache[self._cache_index(pc, history)]
        if entry is not None and entry.tag == self._tag(pc):
            return entry.counter >= 2
        return bias_taken

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        """Train on the resolved outcome.

        Follows the YAGS update rule: the consulted exception-cache entry
        (on a tag hit) trains toward the outcome; a new exception entry is
        allocated when the bias mispredicts; the choice counter trains
        toward the outcome *except* when the exception cache correctly
        overrode a wrong bias (preserving the useful bias).
        """
        if taken != predicted:
            self.mispredictions += 1
        choice_idx = self._choice_index(pc)
        bias_taken = self.choice[choice_idx] >= 2
        cache = self.nt_cache if bias_taken else self.t_cache
        cache_idx = self._cache_index(pc, history)
        entry = cache[cache_idx]
        tag = self._tag(pc)
        hit = entry is not None and entry.tag == tag

        if hit:
            entry.counter = _counter_up(entry.counter) if taken else _counter_down(
                entry.counter
            )
        elif taken != bias_taken:
            # The bias failed and no exception entry existed: allocate one.
            cache[cache_idx] = _CacheEntry(tag=tag, counter=2 if taken else 1)

        cache_correct = hit and (entry.counter >= 2) == taken
        bias_correct = bias_taken == taken
        if not (cache_correct and not bias_correct):
            self.choice[choice_idx] = (
                _counter_up(self.choice[choice_idx])
                if taken
                else _counter_down(self.choice[choice_idx])
            )

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 0.0
        return 1.0 - self.mispredictions / self.predictions

    #: Geometry fields are configuration (fixed Table-1 sizing).
    _SNAPSHOT_TRANSIENT = (
        "choice_size", "cache_size", "tag_mask", "history_bits",
        "history_mask",
    )
