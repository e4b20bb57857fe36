"""Small hardware predictors supporting the exception architecture.

* :class:`ExceptionTypePredictor` -- Section 5.4: quick-start must guess
  *which* exception will occur next to prefetch its handler.  A small
  table of saturating counters per exception type (the paper suggests
  2-4 bits for each of ~16 types).  With only data-TLB misses modelled
  the prediction is trivially perfect, which the paper itself notes is
  optimistic.
* :class:`SpawnPredictor` -- Section 4.3: learns which exception types
  are implemented with spawning in mind by tracking ``hardexc`` usage,
  so exceptions that always revert skip the multithreaded attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExceptionTypePredictor:
    """History-based next-exception-type predictor."""

    counter_bits: int = 2
    _counters: dict[str, int] = field(default_factory=dict)
    predictions: int = 0
    correct: int = 0

    @property
    def _max(self) -> int:
        return (1 << self.counter_bits) - 1

    def record(self, exc_type: str) -> None:
        """An exception of ``exc_type`` occurred."""
        for key in self._counters:
            if key != exc_type and self._counters[key] > 0:
                self._counters[key] -= 1
        current = self._counters.get(exc_type, 0)
        self._counters[exc_type] = min(self._max, current + 1)

    def predict(self) -> str | None:
        """The most likely next exception type (None before any history)."""
        if not self._counters:
            return None
        return max(self._counters.items(), key=lambda kv: kv[1])[0]

    def verify(self, actual: str) -> bool:
        """Score a prediction against the exception that occurred."""
        predicted = self.predict()
        self.predictions += 1
        hit = predicted == actual
        if hit:
            self.correct += 1
        return hit

    #: Checkpoints capture every field; ``_counters`` keeps its insertion
    #: order, which breaks :meth:`predict`'s ties.
    _SNAPSHOT_TRANSIENT = ()


@dataclass
class SpawnPredictor:
    """2-bit confidence per exception type: worth spawning a thread?

    Starts optimistic; ``hardexc`` reversions decay confidence, clean
    multithreaded completions restore it.  This lets the hardware adapt
    to OSes that implement only some handlers with spawning in mind, and
    to dynamic behaviour like clustered page faults (Section 4.3).
    """

    counter_bits: int = 2
    _counters: dict[str, int] = field(default_factory=dict)

    @property
    def _max(self) -> int:
        return (1 << self.counter_bits) - 1

    def should_spawn(self, exc_type: str) -> bool:
        """True when confidence says a handler thread is worthwhile."""
        return self._counters.get(exc_type, self._max) >= (self._max + 1) // 2

    def record_success(self, exc_type: str) -> None:
        """A spawned handler completed cleanly: raise confidence."""
        current = self._counters.get(exc_type, self._max)
        self._counters[exc_type] = min(self._max, current + 1)

    def record_reversion(self, exc_type: str) -> None:
        """A spawned handler reverted (hardexc): lower confidence."""
        current = self._counters.get(exc_type, self._max)
        self._counters[exc_type] = max(0, current - 1)

    _SNAPSHOT_TRANSIENT = ()
