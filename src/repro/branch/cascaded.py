"""Cascaded indirect branch target predictor (Driesen & Hölzle, MICRO-31).

Two stages:

* **Stage 1** -- a small untagged, PC-indexed table holding each indirect
  branch's last target (a classic BTB-style predictor; 2^8 entries per
  the paper's Table 1).
* **Stage 2** -- a larger tagged table (2^10 entries) indexed by PC xor
  path history.  The *leaky filter* allocation rule inserts into stage 2
  only when stage 1 mispredicted, so monomorphic branches never consume
  second-stage space.

Prediction prefers a tag-matching stage-2 entry, falling back to stage 1.
Path history is a shift register of low target bits of recent indirect
branches.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class _Stage2Entry:
    tag: int
    target: int


class CascadedIndirectPredictor:
    """Two-stage cascaded predictor with leaky-filter allocation."""

    def __init__(
        self,
        stage1_bits: int = 8,
        stage2_bits: int = 10,
        tag_bits: int = 8,
        path_bits: int = 12,
    ) -> None:
        self.stage1_size = 1 << stage1_bits
        self.stage2_size = 1 << stage2_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.path_mask = (1 << path_bits) - 1
        self.stage1 = [0] * self.stage1_size
        self.stage2: list[_Stage2Entry | None] = [None] * self.stage2_size
        self.predictions = 0
        self.mispredictions = 0

    def _s1_index(self, pc: int) -> int:
        return pc % self.stage1_size

    def _s2_index(self, pc: int, path: int) -> int:
        return (pc ^ (path & self.path_mask)) % self.stage2_size

    def _tag(self, pc: int) -> int:
        return pc & self.tag_mask

    def predict(self, pc: int, path: int) -> int:
        """Predicted target of the indirect branch at ``pc``."""
        self.predictions += 1
        entry = self.stage2[self._s2_index(pc, path)]
        if entry is not None and entry.tag == self._tag(pc):
            return entry.target
        return self.stage1[self._s1_index(pc)]

    def update(self, pc: int, path: int, target: int, predicted: int) -> None:
        """Train on the resolved target."""
        if target != predicted:
            self.mispredictions += 1
        s1_idx = self._s1_index(pc)
        stage1_correct = self.stage1[s1_idx] == target
        s2_idx = self._s2_index(pc, path)
        entry = self.stage2[s2_idx]
        tag = self._tag(pc)
        if entry is not None and entry.tag == tag:
            entry.target = target
        elif not stage1_correct:
            # Leaky filter: only polymorphic branches earn stage-2 entries.
            self.stage2[s2_idx] = _Stage2Entry(tag=tag, target=target)
        self.stage1[s1_idx] = target

    @staticmethod
    def fold_path(path: int, target: int, path_bits: int = 12) -> int:
        """Shift a resolved indirect target into the path history."""
        return ((path << 2) ^ (target & 0x3F)) & ((1 << path_bits) - 1)

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 0.0
        return 1.0 - self.mispredictions / self.predictions

    #: Geometry fields are configuration (fixed Table-1 sizing).
    _SNAPSHOT_TRANSIENT = ("stage1_size", "stage2_size", "tag_mask", "path_mask")
