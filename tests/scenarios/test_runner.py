"""End-to-end scenario runs: mixed-cause traps under the sanitizer
across every mechanism, digest-checked against the perfect machine and
bit-identical between the two engine kernels."""

import pytest

from repro.engine import ENGINES
from repro.faults.fuzz import overrides_for_causes, run_case
from repro.scenarios.cli import run_matrix, scenario_json
from repro.scenarios.spec import SCENARIO_CAUSES, ScenarioSpec, generate_matrix
from repro.sim.config import MECHANISMS

TRAPPING = tuple(m for m in MECHANISMS if m != "perfect")


def _small_spec(mix, seed=11):
    causes = SCENARIO_CAUSES
    return ScenarioSpec(
        name=f"test-{mix}",
        seed=seed,
        causes=causes,
        mix=mix,
        length=20,
        iters=8,
        config_overrides=overrides_for_causes(causes),
    )


@pytest.mark.parametrize("mix", ("back_to_back", "nested"))
def test_mixed_cause_traps_agree_everywhere(mix, monkeypatch):
    """Satellite coverage: nested and back-to-back mixed-cause traps,
    REPRO_SANITIZE=1, all five mechanisms, both engine kernels."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    result = run_case(
        _small_spec(mix).case(), max_cycles=600_000, engines=ENGINES
    )
    assert result.ok, result.divergences

    by_mech = {}
    for run in result.runs:
        by_mech.setdefault(run.mechanism, []).append(run)
    assert set(by_mech) == set(MECHANISMS)

    for mechanism in TRAPPING:
        runs = [r for r in by_mech[mechanism] if r.engine in ENGINES]
        assert len(runs) == len(ENGINES)
        for run in runs:
            # Every requested cause actually fired and was attributed.
            for cause in SCENARIO_CAUSES:
                taken, _, handler_cycles = run.attribution[cause]
                assert taken > 0, (mechanism, run.engine, cause)
                assert handler_cycles > 0, (mechanism, run.engine, cause)
        # The engine-identity check already ran inside run_case;
        # spot-check the invariant it enforces anyway.
        ref, bat = runs[0], runs[1]
        assert (ref.cycles, ref.digest) == (bat.cycles, bat.digest)


def test_perfect_machine_never_traps():
    result = run_case(
        _small_spec("uniform", seed=4).case(),
        mechanisms=("perfect",),
        max_cycles=600_000,
        engines=ENGINES,
    )
    assert result.ok, result.divergences
    for run in result.runs:
        assert run.attribution == {}


def test_hang_is_reported_not_raised():
    result = run_case(
        _small_spec("uniform").case(), mechanisms=("traditional",),
        max_cycles=50, engines=ENGINES,
    )
    assert not result.ok
    assert result.divergences
    assert any(d.mechanism == "perfect" for d in result.divergences)


def test_run_matrix_collects_every_spec():
    specs = generate_matrix(seed=0, quick=True)
    small = [
        ScenarioSpec(
            name=s.name, seed=s.seed, causes=s.causes, mix=s.mix,
            length=14, iters=4, config_overrides=s.config_overrides,
        )
        for s in specs[:2]
    ]
    seen = []
    results = run_matrix(
        small,
        mechanisms=("traditional",),
        engines=("fused",),
        max_cycles=600_000,
        log=seen.append,
    )
    assert [spec.name for spec, _ in results] == [s.name for s in small]
    assert all(r.ok for _, r in results), [r.divergences for _, r in results]
    assert seen  # progress callback was exercised
    for spec, result in results:
        payload = scenario_json(spec, result)
        assert payload["name"] == spec.name
        assert payload["causes"] == list(spec.causes)
        assert payload["failures"] == []
