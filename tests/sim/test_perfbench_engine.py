"""Perfbench: the one interleaved mode, the ledger it writes, both CLI
gates, and rep isolation (no real benchmarking here -- measurement is
monkeypatched so these stay fast and deterministic)."""

import json

import pytest

import repro.sim.perfbench as perfbench
from repro.sim.config import MECHANISMS


def _fake_measure(values):
    def measure(mechanism, reps, core_cls=None):
        # Reference (core_cls None) measures half as fast as the fused
        # kernel in this canned world.
        base = values[mechanism]
        return base if core_cls is None else base * 2.0

    return measure


@pytest.fixture
def canned(monkeypatch):
    values = {mech: 10_000.0 + i for i, mech in enumerate(MECHANISMS)}
    monkeypatch.setattr(perfbench, "measure_mechanism", _fake_measure(values))
    return values


class TestRunCompare:
    def test_report_shape(self, canned):
        report = perfbench.run_compare(reps=1)
        assert report["protocol"]["reps_best_of"] == 1
        ref = report["engines"]["reference"]
        fused = report["engines"]["fused"]
        assert set(ref["instrs_per_sec"]) == set(MECHANISMS)
        for mech in MECHANISMS:
            assert ref["instrs_per_sec"][mech] == canned[mech]
            assert fused["instrs_per_sec"][mech] == pytest.approx(
                2 * canned[mech]
            )
            assert report["fused_speedup"][mech] == pytest.approx(2.0)
        assert fused["aggregate"] == pytest.approx(2 * ref["aggregate"])
        assert report["fused_speedup"]["aggregate"] == pytest.approx(2.0)
        assert report["baseline"]["instrs_per_sec"] == perfbench.BASELINE_IPS

    def test_run_records_engine_in_protocol(self, canned):
        report = perfbench.run_compare(reps=1)
        assert report["protocol"]["kernels"] == ["reference", "fused"]
        assert set(report["engines"]) == {"reference", "fused"}
        # The ledger stamps the host, Python and commit it measured.
        assert set(report["host"]) == {"cpu", "cpu_count", "platform"}
        assert report["python"]
        assert report["commit"]


def _ledger(tmp_path, name="ledger.json"):
    """A ledger measured in the canned world, as a dict and a path."""
    path = tmp_path / name
    assert perfbench.main(["--output", str(path)]) == 0
    return json.loads(path.read_text()), path


def _drop_fused_perfect(ledger):
    ledger["engines"]["fused"]["instrs_per_sec"]["perfect"] *= 2


class TestCli:
    def test_engine_compare_gate_pass_and_fail(
        self, canned, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_engine.json"
        assert perfbench.main(
            ["--min-speedup", "1.5", "--output", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["fused_speedup"]["aggregate"] == pytest.approx(2.0)
        assert "PASS" in capsys.readouterr().out
        assert perfbench.main(
            ["--min-speedup", "2.5", "--output", str(out)]
        ) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_engine_compare_default_output_name(
        self, canned, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        perfbench.main([])
        assert (tmp_path / "BENCH_engine.json").exists()

    @pytest.mark.parametrize(
        "argv", [["--engine", "fused"], ["--engine-compare"]]
    )
    def test_removed_engine_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            perfbench.main(argv)


class TestBaselineGate:
    def test_matching_baseline_within_bound_passes(
        self, canned, tmp_path, capsys
    ):
        _, baseline = _ledger(tmp_path)
        argv = ["--output", str(tmp_path / "fresh.json"),
                "--baseline", str(baseline), "--max-drop", "0.15"]
        assert perfbench.main(argv) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "stale",
        [
            pytest.param(lambda ledger: ledger.clear(), id="empty"),
            pytest.param(
                lambda ledger: ledger["engines"].pop("fused"),
                id="missing-kernel",
            ),
            pytest.param(
                lambda ledger: ledger["engines"]["reference"][
                    "instrs_per_sec"].pop("quickstart"),
                id="missing-mechanism",
            ),
            pytest.param(_drop_fused_perfect, id="drop-past-bound"),
        ],
    )
    def test_baseline_gate_fails(self, canned, tmp_path, capsys, stale):
        ledger, path = _ledger(tmp_path)
        stale(ledger)
        path.write_text(json.dumps(ledger))
        argv = ["--output", str(tmp_path / "fresh.json"),
                "--baseline", str(path), "--max-drop", "0.15"]
        assert perfbench.main(argv) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "MISSING FROM BASELINE" in out or "REGRESSION" in out

    def test_both_gates_in_one_run(self, canned, tmp_path):
        _, baseline = _ledger(tmp_path)
        argv = ["--output", str(tmp_path / "fresh.json"),
                "--baseline", str(baseline)]
        assert perfbench.main([*argv, "--min-speedup", "1.35"]) == 0
        # A speedup miss fails the run even with the baseline in bound.
        assert perfbench.main([*argv, "--min-speedup", "3"]) == 1

    def test_baseline_is_read_before_output_overwrites_it(
        self, canned, tmp_path, monkeypatch
    ):
        ledger, path = _ledger(tmp_path)
        _drop_fused_perfect(ledger)
        path.write_text(json.dumps(ledger))
        argv = ["--output", str(path), "--baseline", str(path)]
        assert perfbench.main(argv) == 1


class TestRepIsolation:
    def test_each_rep_starts_from_a_collected_heap(self, monkeypatch):
        collections = []
        monkeypatch.setattr(
            perfbench.gc, "collect", lambda: collections.append(1)
        )
        monkeypatch.setattr(perfbench, "BENCHMARKS", {})
        with pytest.raises(ZeroDivisionError):
            # No benchmarks -> 0/0, but the per-rep collect must have
            # happened before any timing work.
            perfbench.measure_mechanism("perfect", reps=1)
        assert collections, "rep did not gc.collect() before measuring"
