"""AST-based architecture lint over ``src/repro``.

Four rule families, all error severity (they guard properties the test
suite cannot see until they have already caused a silent regression):

* ``layering`` — each package may only import from an allowed set of
  other ``repro`` packages.  The table below is the *actual* dependency
  discipline of the shipped tree; notably ``isa`` and ``memory`` are
  leaf layers (``isa`` must never import ``pipeline``/``sim``,
  ``memory`` must never import ``exceptions``).
* ``missing-slots`` — the hot-loop classes named in
  docs/PERFORMANCE.md must declare ``__slots__`` (directly or via
  ``@dataclass(slots=True)``); losing one silently costs ~20-30% of
  simulation throughput.
* ``nondet-*`` — the deterministic core (``pipeline/*`` and the model
  half of ``sim``) must not import ``time`` or ``random``, and must not
  iterate over sets of uops without ``sorted(...)``; any of these lets
  parallel and serial runs diverge bit-for-bit.
* ``layering-static-pass`` — the static kernel pass
  (:mod:`repro.analysis.restart`) must analyze the engine/pipeline
  layers as *source text*, never import them: a linter that imports
  the code it lints cannot report on a tree that fails to import.

Checkpoint coverage needs no rule: :mod:`repro.checkpoint.state`
captures every field a state class does not declare transient, and
refuses to capture a value it has no encoding for.

Suppression: append ``# lint: ok(rule)`` to the offending line.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic, Severity

_SUPPRESS_RE = re.compile(r"#.*lint:\s*ok\(([^)]*)\)")

#: package -> repro packages it may import from (itself always allowed).
ALLOWED_IMPORTS: dict[str, frozenset[str]] = {
    "isa": frozenset(),
    "memory": frozenset({"isa"}),
    "branch": frozenset({"isa"}),
    "workloads": frozenset({"isa", "exceptions"}),
    "exceptions": frozenset({"isa", "memory", "branch", "pipeline"}),
    # pipeline -> analysis is the lazily-imported sanitizer hookup and
    # pipeline -> faults the lazily-imported fault injector; pipeline ->
    # sim is config/stats plumbing.  The event bus needs no import at
    # all from pipeline (core.listeners is a plain attribute).
    "pipeline": frozenset(
        {"isa", "memory", "branch", "exceptions", "sim", "analysis", "faults"}
    ),
    # obs -> sim is type-only plus the lazily-imported engine
    # fingerprint for manifests; obs -> engine is the lazily-imported
    # backend name manifests record; obs -> workloads is the CLI
    # building the programs it traces.
    "obs": frozenset({"pipeline", "sim", "workloads", "engine"}),
    # checkpoint sits above the whole machine model (it serializes every
    # layer) but below the experiment/analysis tooling that consumes it.
    "checkpoint": frozenset(
        {"isa", "memory", "branch", "pipeline", "exceptions", "sim", "workloads"}
    ),
    # engine is a name -> core-class registry plus the fused SMTCore
    # subclass and the generator that builds its loop from the
    # reference stages, so it needs only the layers they read.
    # Everything that runs cells (sim, faults, scenarios) reaches it
    # through lazy imports of the registry (resolve_engine / core_class);
    # an engine that grows its own cell driver fails this row.
    "engine": frozenset({"isa", "memory", "pipeline"}),
    # sim -> checkpoint is lazily imported (warm cells in parallel.py,
    # Simulator.save/restore_checkpoint); checkpoint imports sim eagerly.
    # sim -> faults is the lazily-imported spec validation in
    # MachineConfig and the worker-kill hook in parallel.py.  sim ->
    # engine is the lazily-imported core-class registry (run_cell,
    # CellSpec's default kernel, perfbench).
    "sim": frozenset(
        {
            "isa",
            "memory",
            "branch",
            "pipeline",
            "exceptions",
            "workloads",
            "obs",
            "checkpoint",
            "faults",
            "engine",
        }
    ),
    # serve sits at the top of the runtime stack, beside experiments:
    # the service drives sim.parallel's cells and cache, derives
    # warm checkpoints, and embeds store stats in obs manifests.  It
    # must never import experiments or analysis, and nothing below it
    # may import serve (their allowed sets simply omit it).
    "serve": frozenset(
        {
            "isa",
            "memory",
            "branch",
            "pipeline",
            "exceptions",
            "workloads",
            "sim",
            "obs",
            "checkpoint",
            "engine",
        }
    ),
    # experiments -> serve is the lazily-imported --server client path.
    "experiments": frozenset(
        {
            "isa",
            "memory",
            "branch",
            "pipeline",
            "exceptions",
            "workloads",
            "sim",
            "analysis",
            "obs",
            "checkpoint",
            "engine",
            "serve",
        }
    ),
    "analysis": frozenset(
        {
            "isa",
            "memory",
            "branch",
            "pipeline",
            "exceptions",
            "workloads",
            "sim",
            "experiments",
            "obs",
            "checkpoint",
        }
    ),
    # faults sits beside analysis: the injector perturbs the machine
    # model, the fuzzer drives sim/workloads and uses the guest lint
    # (analysis) as its validity oracle; faults -> engine is the
    # engine-diff oracle running both backend kernels.
    "faults": frozenset(
        {
            "isa",
            "memory",
            "branch",
            "pipeline",
            "exceptions",
            "workloads",
            "sim",
            "analysis",
            "obs",
            "checkpoint",
            "engine",
        }
    ),
    # scenarios sits at the top of the testing stack: it composes the
    # fault generator (faults.progen) and the exception layer's cause
    # handlers into runnable scenario matrices, and runs them through
    # the fuzzer's differential trial on both engine kernels.  Nothing
    # below it may import it (no other allowed set names "scenarios").
    "scenarios": frozenset(
        {
            "isa",
            "memory",
            "branch",
            "pipeline",
            "exceptions",
            "workloads",
            "sim",
            "analysis",
            "obs",
            "checkpoint",
            "engine",
            "faults",
        }
    ),
}

#: Per-module forbidden packages, stricter than :data:`ALLOWED_IMPORTS`:
#: the static kernel pass reads these layers as source text (AST) and
#: must never import them at runtime, even though the ``analysis``
#: package as a whole may.
MODULE_FORBIDDEN: dict[str, frozenset[str]] = {
    "analysis/restart.py": frozenset({"engine", "pipeline"}),
}

#: Classes (by repo-relative module path) that must declare __slots__
#: because they are allocated in the simulator's hot loop (see
#: docs/PERFORMANCE.md).
SLOTS_REQUIRED: dict[str, frozenset[str]] = {
    "pipeline/uop.py": frozenset({"Uop"}),
    "pipeline/thread.py": frozenset({"ThreadContext"}),
    "pipeline/window.py": frozenset({"InstructionWindow"}),
    "isa/registers.py": frozenset({"RegisterFile"}),
    "memory/cache.py": frozenset({"CacheStats", "Bus"}),
}

#: Modules whose behaviour must be bit-reproducible across processes:
#: all of pipeline, plus the model half of sim.  parallel.py (process
#: management) and perfbench.py (wall-clock harness) are exempt.
_DETERMINISTIC_SIM = frozenset(
    {"simulator.py", "config.py", "stats.py", "metrics.py", "trace.py"}
)

_NONDET_MODULES = frozenset({"time", "random"})


def _is_deterministic_scope(rel: Path) -> bool:
    parts = rel.parts
    if not parts:
        return False
    # Engine backends are alternate cycle kernels: anything
    # nondeterministic there breaks the bit-identity contract with the
    # reference core (see docs/PERFORMANCE.md).
    if parts[0] in ("pipeline", "engine"):
        return True
    return parts[0] == "sim" and parts[-1] in _DETERMINISTIC_SIM


def _suppressions(source: str) -> dict[int, set[str]]:
    """line number -> rule codes suppressed on that line."""
    out: dict[int, set[str]] = {}
    for line_no, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            out[line_no] = {
                c.strip()
                for c in match.group(1).replace(",", " ").split()
                if c.strip()
            }
    return out


class _ModuleChecker(ast.NodeVisitor):
    """Runs every rule over one parsed module."""

    def __init__(self, rel: Path, source: str) -> None:
        self.rel = rel
        self.package = rel.parts[0] if len(rel.parts) > 1 else ""
        self.unit = "repro/" + rel.as_posix()
        self.deterministic = _is_deterministic_scope(rel)
        self.suppress = _suppressions(source)
        self.diagnostics: list[Diagnostic] = []

    def _emit(self, code: str, line: int, message: str) -> None:
        if code in self.suppress.get(line, ()):
            return
        self.diagnostics.append(
            Diagnostic(
                passname="arch",
                code=code,
                severity=Severity.ERROR,
                unit=self.unit,
                message=message,
                line=line,
                file="src/" + "repro/" + self.rel.as_posix(),
            )
        )

    # -- layering ------------------------------------------------------
    def _check_repro_import(self, module: str, node: ast.AST) -> None:
        parts = module.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return
        target = parts[1]
        forbidden = MODULE_FORBIDDEN.get(self.rel.as_posix())
        if forbidden is not None and target in forbidden:
            self._emit(
                "layering-static-pass",
                node.lineno,
                f"{self.rel.as_posix()} must not import repro.{target}: "
                "the static kernel pass analyzes that layer as source "
                "text, never at runtime",
            )
            return
        if target == self.package or not self.package:
            return
        allowed = ALLOWED_IMPORTS.get(self.package)
        if allowed is not None and target not in allowed:
            self._emit(
                "layering",
                node.lineno,
                f"package {self.package!r} must not import "
                f"repro.{target} (allowed: "
                f"{', '.join(sorted(allowed)) or 'nothing'})",
            )

    def _check_nondet_import(self, module: str, node: ast.AST) -> None:
        root = module.split(".")[0]
        if self.deterministic and root in _NONDET_MODULES:
            self._emit(
                f"nondet-{root}",
                node.lineno,
                f"deterministic core module imports {root!r}; wall-clock "
                "and RNG state diverge across processes",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_repro_import(alias.name, node)
            self._check_nondet_import(alias.name, node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            # Resolve "from . import x" against this module's package.
            base = ["repro", *self.rel.parts[:-1]]
            base = base[: len(base) - (node.level - 1)]
            module = ".".join(base + ([module] if module else []))
        self._check_repro_import(module, node)
        self._check_nondet_import(module, node)
        self.generic_visit(node)

    # -- __slots__ -----------------------------------------------------
    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call):
                name = deco.func
                deco_name = (
                    name.id
                    if isinstance(name, ast.Name)
                    else name.attr
                    if isinstance(name, ast.Attribute)
                    else ""
                )
                if deco_name == "dataclass" and any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in deco.keywords
                ):
                    return True
        for stmt in node.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        required = SLOTS_REQUIRED.get(self.rel.as_posix(), frozenset())
        if node.name in required and not self._has_slots(node):
            self._emit(
                "missing-slots",
                node.lineno,
                f"hot-loop class {node.name!r} must declare __slots__ "
                "(see docs/PERFORMANCE.md)",
            )
        self.generic_visit(node)

    # -- nondeterministic set iteration --------------------------------
    @staticmethod
    def _is_unordered_set(expr: ast.expr) -> str | None:
        """A human description if ``expr`` is an unordered set of uops."""
        if isinstance(expr, ast.Attribute) and expr.attr in ("_uops",):
            return f"set attribute .{expr.attr}"
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")
        ):
            return f"{expr.func.id}(...) result"
        if isinstance(expr, ast.Set):
            return "set literal"
        return None

    def _check_iteration(self, iter_expr: ast.expr, line: int) -> None:
        if not self.deterministic:
            return
        what = self._is_unordered_set(iter_expr)
        if what is not None:
            self._emit(
                "nondet-set-order",
                line,
                f"iteration over unordered {what}; wrap in sorted(...) to "
                "keep uop visit order deterministic",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node.lineno)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter, node.lineno)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def check_file(path: Path, rel: Path) -> list[Diagnostic]:
    """Lint one source file; syntax errors become diagnostics."""
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Diagnostic(
                passname="arch",
                code="syntax-error",
                severity=Severity.ERROR,
                unit="repro/" + rel.as_posix(),
                message=str(exc),
                line=exc.lineno,
                file=str(path),
            )
        ]
    checker = _ModuleChecker(rel, source)
    checker.visit(tree)
    return checker.diagnostics


def check_tree(root: Path) -> list[Diagnostic]:
    """Lint every ``*.py`` under ``root`` (the ``repro`` package dir)."""
    diagnostics: list[Diagnostic] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        diagnostics.extend(check_file(path, rel))
    return diagnostics
