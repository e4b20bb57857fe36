"""Architecture lint: the shipped tree is clean, the fixture tree is not."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.archlint import (
    ALLOWED_IMPORTS,
    SLOTS_REQUIRED,
    check_file,
    check_tree,
)

BADARCH = Path(__file__).parent / "fixtures" / "badarch"
PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def codes_by_file(diagnostics):
    out = {}
    for diag in diagnostics:
        out.setdefault(Path(diag.unit).name, set()).add(diag.code)
    return out


class TestFixtureTree:
    def test_every_rule_fires_once(self):
        found = codes_by_file(check_tree(BADARCH))
        assert found["bad_layering.py"] == {"layering"}
        assert found["uop.py"] == {"missing-slots"}
        assert found["nondet.py"] == {
            "nondet-time",
            "nondet-random",
            "nondet-set-order",
        }
        assert found["simulator.py"] == {"nondet-random"}

    def test_isa_layering_message_names_the_target(self):
        diagnostics = check_file(
            BADARCH / "isa" / "bad_layering.py", Path("isa/bad_layering.py")
        )
        (diag,) = diagnostics
        assert "repro.pipeline" in diag.message
        assert diag.is_error

    def test_memory_must_not_import_exceptions(self):
        diagnostics = check_file(
            BADARCH / "memory" / "bad_layering.py",
            Path("memory/bad_layering.py"),
        )
        assert [d.code for d in diagnostics] == ["layering"]
        assert "repro.exceptions" in diagnostics[0].message

    def test_inline_suppression_is_honored(self):
        diagnostics = check_file(
            BADARCH / "sim" / "simulator.py", Path("sim/simulator.py")
        )
        assert [d.code for d in diagnostics] == ["nondet-random"]

    def test_sorted_iteration_is_not_flagged(self):
        diagnostics = check_file(
            BADARCH / "pipeline" / "nondet.py", Path("pipeline/nondet.py")
        )
        flagged_lines = {
            d.line for d in diagnostics if d.code == "nondet-set-order"
        }
        assert len(flagged_lines) == 1  # the bare loop, not the sorted() one


class TestShippedTree:
    def test_src_repro_is_clean(self):
        assert check_tree(PACKAGE_ROOT) == []

    def test_rule_tables_match_reality(self):
        # Every package in the layering table exists, and every class the
        # slots rule names still exists in the named module.
        for package in ALLOWED_IMPORTS:
            assert (PACKAGE_ROOT / package).is_dir(), package
        for rel, classes in SLOTS_REQUIRED.items():
            source = (PACKAGE_ROOT / rel).read_text()
            for cls in classes:
                assert f"class {cls}" in source, (rel, cls)

    def test_isa_remains_a_leaf(self):
        # The ISSUE's named regression: isa importing pipeline/sim.
        assert ALLOWED_IMPORTS["isa"] == frozenset()
        assert "exceptions" not in ALLOWED_IMPORTS["memory"]


class TestStaticPassLayering:
    """analysis/restart.py must stay AST-only."""

    def _lint(self, tmp_path, rel, source):
        path = tmp_path / Path(rel).name
        path.write_text(source)
        return check_file(path, Path(rel))

    def test_restart_importing_pipeline_is_flagged(self, tmp_path):
        diags = self._lint(
            tmp_path, "analysis/restart.py", "import repro.pipeline.core\n"
        )
        assert [d.code for d in diags] == ["layering-static-pass"]

    def test_isa_imports_remain_allowed(self, tmp_path):
        diags = self._lint(
            tmp_path,
            "analysis/restart.py",
            "from repro.isa.instructions import Instruction\n",
        )
        assert diags == []


class TestEngineLayering:
    """engine is a core-class registry: it must not drive cells itself."""

    def test_engine_row_is_the_core_layers(self):
        assert ALLOWED_IMPORTS["engine"] == frozenset({"isa", "memory", "pipeline"})

    @pytest.mark.parametrize("package", ["sim", "checkpoint", "faults"])
    def test_engine_driver_imports_are_flagged(self, tmp_path, package):
        path = tmp_path / "driver.py"
        path.write_text(f"def load():\n    import repro.{package}\n")
        diags = check_file(path, Path("engine/driver.py"))
        assert [d.code for d in diags] == ["layering"]
        assert f"repro.{package}" in diags[0].message
