"""Functional main memory.

A sparse, word-granular value store.  Timing lives entirely in
:mod:`repro.memory.cache` / :mod:`repro.memory.hierarchy`; this class only
answers "what value is at this address?".  Unwritten words read as zero,
which doubles as the invalid-PTE encoding for unmapped pages.
"""

from __future__ import annotations

from typing import Mapping

from repro.memory.address import word_index


class MainMemory:
    """Sparse word-addressable memory holding native Python values."""

    __slots__ = ("_words",)

    def __init__(self, image: Mapping[int, int | float] | None = None) -> None:
        #: word index (``va >> 3``) -> value.
        self._words: dict[int, int | float] = dict(image) if image else {}

    def read_word(self, va: int) -> int | float:
        """Value of the aligned 8-byte word containing ``va`` (0 if unset)."""
        return self._words.get(word_index(va), 0)

    def write_word(self, va: int, value: int | float) -> None:
        """Store ``value`` into the aligned 8-byte word containing ``va``."""
        self._words[word_index(va)] = value

    def load_image(self, image: Mapping[int, int | float]) -> None:
        """Merge a word-indexed initial image (as built by a Program)."""
        self._words.update(image)

    def __len__(self) -> int:
        return len(self._words)

    def snapshot(self) -> dict[int, int | float]:
        """Copy of the current contents (for architectural-state checks)."""
        return dict(self._words)

    _SNAPSHOT_TRANSIENT = ()
