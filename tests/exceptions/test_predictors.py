"""Unit tests for the exception-architecture predictors."""

from repro.exceptions.predictors import ExceptionTypePredictor, SpawnPredictor


class TestExceptionTypePredictor:
    def test_empty_predicts_none(self):
        assert ExceptionTypePredictor().predict() is None

    def test_learns_dominant_type(self):
        pred = ExceptionTypePredictor()
        for _ in range(4):
            pred.record("dtlb_miss")
        pred.record("unaligned")
        assert pred.predict() == "dtlb_miss"

    def test_adapts_to_shift(self):
        pred = ExceptionTypePredictor()
        for _ in range(3):
            pred.record("dtlb_miss")
        for _ in range(6):
            pred.record("fp_trap")
        assert pred.predict() == "fp_trap"

    def test_verify_scores_accuracy(self):
        pred = ExceptionTypePredictor()
        pred.record("dtlb_miss")
        assert pred.verify("dtlb_miss") is True
        assert pred.verify("unaligned") is False
        assert pred.predictions == 2 and pred.correct == 1

    def test_counters_saturate(self):
        pred = ExceptionTypePredictor(counter_bits=2)
        for _ in range(100):
            pred.record("x")
        assert pred._counters["x"] == 3


class TestSpawnPredictor:
    def test_optimistic_by_default(self):
        assert SpawnPredictor().should_spawn("dtlb_miss")

    def test_reversions_decay_confidence(self):
        pred = SpawnPredictor()
        for _ in range(3):
            pred.record_reversion("page_fault_heavy")
        assert not pred.should_spawn("page_fault_heavy")

    def test_successes_restore_confidence(self):
        pred = SpawnPredictor()
        for _ in range(3):
            pred.record_reversion("x")
        for _ in range(3):
            pred.record_success("x")
        assert pred.should_spawn("x")

    def test_types_independent(self):
        pred = SpawnPredictor()
        for _ in range(3):
            pred.record_reversion("bad")
        assert pred.should_spawn("good")
