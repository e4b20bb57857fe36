"""The combined front-end prediction unit.

One object per core (shared by all SMT threads, as in the paper's Table 1:
"All threads share a single ... branch predictor").  It owns:

* the YAGS direction predictor plus a *speculative* global history
  register updated at fetch,
* perfect direct-branch targets (the static instruction carries them),
* the cascaded indirect predictor plus a speculative path history,
* the checkpointing RAS.

Every predicted branch returns a :class:`BranchCheckpoint` capturing the
speculative state *before* the branch's own effect; on a misprediction the
unit restores the checkpoint and re-applies the branch's now-known actual
effect, repairing history and RAS for the correct path.

``reti`` is returned as *unpredictable*: the front end must stall until it
executes (the paper's simulator has no RAS-like mechanism for exception
returns, giving traditional trap handling its second pipeline refill).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.cascaded import CascadedIndirectPredictor
from repro.branch.ras import RASCheckpoint, ReturnAddressStack
from repro.branch.yags import YAGSPredictor
from repro.isa.instructions import Instruction, Opcode


@dataclass(frozen=True)
class BranchCheckpoint:
    """Front-end speculative state before a branch's own effect."""

    ghr: int
    path: int
    ras: RASCheckpoint


@dataclass
class FetchPrediction:
    """What fetch learns about a branch: direction, target, checkpoint.

    ``target is None`` means the branch is unpredictable (``reti``) and
    fetch must stall until it executes.
    """

    taken: bool
    target: int | None
    checkpoint: BranchCheckpoint


@dataclass
class BranchStats:
    cond_predictions: int = 0
    cond_mispredictions: int = 0
    indirect_predictions: int = 0
    indirect_mispredictions: int = 0
    return_predictions: int = 0
    return_mispredictions: int = 0

    _SNAPSHOT_TRANSIENT = ()


class BranchPredictionUnit:
    """Shared front-end predictors with checkpoint/restore."""

    def __init__(
        self,
        yags: YAGSPredictor | None = None,
        indirect: CascadedIndirectPredictor | None = None,
        ras_entries: int = 64,
    ) -> None:
        self.yags = yags or YAGSPredictor()
        self.indirect = indirect or CascadedIndirectPredictor()
        self.ras = ReturnAddressStack(ras_entries)
        self.ghr = 0
        self.path = 0
        self.stats = BranchStats()

    # ------------------------------------------------------------------
    def _checkpoint(self) -> BranchCheckpoint:
        return BranchCheckpoint(ghr=self.ghr, path=self.path, ras=self.ras.checkpoint())

    def _shift_ghr(self, taken: bool) -> None:
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & self.yags.history_mask

    def predict(self, pc: int, inst: Instruction) -> FetchPrediction:
        """Predict the branch at ``pc`` and advance speculative state."""
        cp = self._checkpoint()
        op = inst.op
        if inst.is_cond_branch:
            taken = self.yags.predict(pc, self.ghr)
            self._shift_ghr(taken)
            target = inst.target if taken else pc + 1
            return FetchPrediction(taken=taken, target=target, checkpoint=cp)
        if op in (Opcode.JMP, Opcode.CALL):
            if op is Opcode.CALL:
                self.ras.push(pc + 1)
            return FetchPrediction(taken=True, target=inst.target, checkpoint=cp)
        if op in (Opcode.CALLI, Opcode.JMPI):
            target = self.indirect.predict(pc, self.path)
            self.path = self.indirect.fold_path(self.path, target)
            if op is Opcode.CALLI:
                self.ras.push(pc + 1)
            return FetchPrediction(taken=True, target=target, checkpoint=cp)
        if op is Opcode.RET:
            target = self.ras.pop()
            return FetchPrediction(taken=True, target=target, checkpoint=cp)
        if op is Opcode.RETI:
            # Exception returns are deliberately unpredicted.
            return FetchPrediction(taken=True, target=None, checkpoint=cp)
        raise ValueError(f"not a branch: {inst}")

    # ------------------------------------------------------------------
    def repair(
        self,
        pc: int,
        inst: Instruction,
        cp: BranchCheckpoint,
        actual_taken: bool,
        actual_target: int,
    ) -> None:
        """Restore speculative state after a misprediction.

        Rolls back to ``cp`` then re-applies the branch's *actual*
        outcome, leaving the front end exactly as if the branch had been
        predicted correctly.
        """
        self.ghr = cp.ghr
        self.path = cp.path
        self.ras.restore(cp.ras)
        op = inst.op
        if inst.is_cond_branch:
            self._shift_ghr(actual_taken)
        elif op in (Opcode.CALLI, Opcode.JMPI):
            self.path = self.indirect.fold_path(self.path, actual_target)
            if op is Opcode.CALLI:
                self.ras.push(pc + 1)
        elif op is Opcode.CALL:
            self.ras.push(pc + 1)
        elif op is Opcode.RET:
            self.ras.pop()

    def restore_checkpoint(self, cp: BranchCheckpoint) -> None:
        """Roll speculative state straight back to ``cp``.

        Used for non-mispredict squashes (the multithreaded mechanism's
        deadlock-avoidance tail squash) where the squashed instructions
        will simply be refetched: no branch outcome is re-applied.
        """
        self.ghr = cp.ghr
        self.path = cp.path
        self.ras.restore(cp.ras)

    # ------------------------------------------------------------------
    def train(
        self,
        pc: int,
        inst: Instruction,
        cp: BranchCheckpoint,
        actual_taken: bool,
        actual_target: int,
        pred_taken: bool,
        pred_target: int | None,
    ) -> None:
        """Update predictor tables at retirement (clean training)."""
        op = inst.op
        if inst.is_cond_branch:
            self.stats.cond_predictions += 1
            if actual_taken != pred_taken:
                self.stats.cond_mispredictions += 1
            self.yags.update(pc, cp.ghr, actual_taken, pred_taken)
        elif op in (Opcode.CALLI, Opcode.JMPI):
            self.stats.indirect_predictions += 1
            if actual_target != pred_target:
                self.stats.indirect_mispredictions += 1
            self.indirect.update(pc, cp.path, actual_target, pred_target or 0)
        elif op is Opcode.RET:
            self.stats.return_predictions += 1
            if actual_target != pred_target:
                self.stats.return_mispredictions += 1

    _SNAPSHOT_TRANSIENT = ()
