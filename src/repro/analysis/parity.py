"""Semantic-drift detection between the reference and fused cycle kernels.

The fused kernel transcribes ~1k lines of :class:`SMTCore` logic
into one loop (``engine/core.py:_run_to_fused``).  The two kernels
are kept bit-identical by *dynamic* digest oracles; this pass adds the
*static* half of that contract: it extracts, from each kernel's AST, the
set of

* **mutation sites** — attribute/field writes per state-bearing class
  (``ThreadContext.pc``, ``SimStats.retired``, ...), container
  mutations (``ThreadContext.rob[]``), and calls to known state-mutator
  methods (``RegisterFile.write_int()``);
* **hook sites** — mechanism dispatch (``mechanism.on_tlbwr``), fault
  injection (``faults.on_retire``), sanitizer and observability
  callbacks, branch-predictor and memory-system entry points;

and diffs them.  A fact the reference kernel has that the fused kernel
lacks is a semantic drift **error** unless ``engine/core.py`` declares
it in an explicit ledger comment::

    # parity: elided(listeners.fetch, fused loop falls back to the
    #                reference kernel whenever listeners are attached)

Ledger entries that match nothing are themselves errors, so the ledger
cannot rot.  Facts only the fused kernel has are warnings (the fused
kernel doing *extra* work is suspicious but not an invariant break) —
except hooks, where either direction is an error: an observability
event or mechanism dispatch present on one path but not the other means
the two backends are observably different machines.

Extraction is deliberately *conservative-incomplete*: receivers are
resolved through a small alias/type environment (hoisted locals like
``stats = self.stats`` and ``win_uops = window._uops`` are followed;
``super()`` calls and ``if ...listeners...`` fallback branches in the
fused kernel are excluded because they re-enter the reference path).
Anything unresolvable is skipped on both sides, so the diff never
reports noise from analysis gaps — only from genuine one-sided facts.

Diagnostics (all ``passname="parity"``):

========================== ======== =====================================
code                       severity meaning
========================== ======== =====================================
parity-mutation-drift      error    reference-only mutation, not in ledger
parity-hook-drift          error    hook present on one path only
parity-elided-unused       error    ledger entry matching no drift
parity-unmatched-site      warning  fused-only mutation
========================== ======== =====================================

Run with ``repro-lint parity`` (or the default ``repro-lint`` sweep);
``repro-lint parity --selftest`` seeds a drift by deleting one mutation
fact from the fused set and fails unless the pass flags it — the same
"a broken machine must be caught" oracle style as ``repro-fuzz
--defect``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = [
    "ParityModel",
    "diff_model",
    "extract_model",
    "run_parity",
    "scan_ledger",
    "selftest",
]

# ---------------------------------------------------------------------------
# Type model
#
# Types are plain strings.  ``SMTCore`` is the canonical kernel class
# (``FusedSMTCore`` facts normalize onto it).  Hook receivers are the
# pluggable collaborators whose *calls* are semantic events; state
# classes are where *mutations* are semantic events.
# ---------------------------------------------------------------------------

_CANONICAL = {"FusedSMTCore": "SMTCore"}

#: Receivers whose method calls are recorded as hook facts.
HOOK_RECEIVERS = frozenset(
    {"mechanism", "faults", "listeners", "sanitizer", "bpu", "dtlb", "memory", "hierarchy"}
)

#: (type, attribute) -> value descriptor.  ``("obj", T)`` is an instance
#: of T; ``("cont", owner, attr, elem)`` is a mutable container whose
#: mutation fact is ``owner.attr[]`` and whose elements resolve to
#: ``elem``; elem may itself be a descriptor (nested containers).
ATTR_TYPES: dict[tuple[str, str], tuple] = {
    ("SMTCore", "stats"): ("obj", "SimStats"),
    ("SMTCore", "window"): ("obj", "InstructionWindow"),
    ("SMTCore", "memory"): ("obj", "memory"),
    ("SMTCore", "hierarchy"): ("obj", "hierarchy"),
    ("SMTCore", "bpu"): ("obj", "bpu"),
    ("SMTCore", "dtlb"): ("obj", "dtlb"),
    ("SMTCore", "mechanism"): ("obj", "mechanism"),
    ("SMTCore", "faults"): ("obj", "faults"),
    ("SMTCore", "listeners"): ("obj", "listeners"),
    ("SMTCore", "_sanitizer"): ("obj", "sanitizer"),
    ("SMTCore", "threads"): ("cont", "SMTCore", "threads", ("obj", "ThreadContext")),
    ("SMTCore", "_retry"): ("cont", "SMTCore", "_retry", ("obj", "Uop")),
    ("SMTCore", "_wake_buckets"): (
        "cont",
        "SMTCore",
        "_wake_buckets",
        ("cont", "SMTCore", "_wake_buckets", ("obj", "Uop")),
    ),
    ("SMTCore", "_exec_heap"): ("cont", "SMTCore", "_exec_heap", None),
    ("SMTCore", "_exec_seq"): ("cont", "SMTCore", "_exec_seq", ("obj", "Uop")),
    ("SMTCore", "fu_pool"): ("cont", "SMTCore", "fu_pool", None),
    ("InstructionWindow", "_uops"): (
        "cont",
        "InstructionWindow",
        "_uops",
        ("obj", "Uop"),
    ),
    ("InstructionWindow", "_reservations"): (
        "cont",
        "InstructionWindow",
        "_reservations",
        None,
    ),
    ("InstructionWindow", "sanitizer"): ("obj", "sanitizer"),
    ("ThreadContext", "arch"): ("obj", "RegisterFile"),
    ("ThreadContext", "rob"): ("cont", "ThreadContext", "rob", ("obj", "Uop")),
    ("ThreadContext", "fetch_buffer"): (
        "cont",
        "ThreadContext",
        "fetch_buffer",
        ("obj", "Uop"),
    ),
    ("ThreadContext", "store_queue"): (
        "cont",
        "ThreadContext",
        "store_queue",
        ("obj", "Uop"),
    ),
    ("ThreadContext", "int_map"): ("cont", "ThreadContext", "int_map", ("obj", "Uop")),
    ("ThreadContext", "fp_map"): ("cont", "ThreadContext", "fp_map", ("obj", "Uop")),
    ("ThreadContext", "priv_regs"): ("cont", "ThreadContext", "priv_regs", None),
    ("Uop", "consumers"): ("cont", "Uop", "consumers", ("obj", "Uop")),
    ("Uop", "src_a_uop"): ("obj", "Uop"),
    ("Uop", "src_b_uop"): ("obj", "Uop"),
    ("hierarchy", "l1i"): ("obj", "Cache"),
    ("hierarchy", "l1d"): ("obj", "Cache"),
    ("hierarchy", "l2"): ("obj", "Cache"),
    ("Cache", "stats"): ("obj", "CacheStats"),
    ("Cache", "bus"): ("obj", "Bus"),
    ("Cache", "_sets"): (
        "cont",
        "Cache",
        "_sets",
        ("cont", "Cache", "_sets", ("obj", "_Line")),
    ),
    ("Cache", "_mshrs"): ("cont", "Cache", "_mshrs", None),
}

#: Fallback typing for parameter / loop-variable names the kernels use.
NAME_TYPES: dict[str, tuple] = {
    "thread": ("obj", "ThreadContext"),
    "t": ("obj", "ThreadContext"),
    "master": ("obj", "ThreadContext"),
    "exc_thread": ("obj", "ThreadContext"),
    "app": ("obj", "ThreadContext"),
    "window": ("obj", "InstructionWindow"),
    "uop": ("obj", "Uop"),
    "u": ("obj", "Uop"),
    "c": ("obj", "Uop"),
    "p": ("obj", "Uop"),
    "head": ("obj", "Uop"),
    "victim": ("obj", "Uop"),
    "producer": ("obj", "Uop"),
    "consumer": ("obj", "Uop"),
    "store": ("obj", "Uop"),
    "older": ("obj", "Uop"),
    "oldest": ("obj", "Uop"),
    "boundary": ("obj", "Uop"),
    "oldest_branch": ("obj", "Uop"),
    "master_uop": ("obj", "Uop"),
    "line": ("obj", "_Line"),
}

#: ``self.<attr>`` holding a pre-bound collaborator method: calling it is
#: the hook fact on the right, no matter which alias it travels through.
BOUND_HOOK_ATTRS: dict[str, str] = {
    "_mech_tick": "mechanism.tick",
    "_mech_ports": "mechanism.service_mem_ports",
    "_mech_fetch_idle": "mechanism.fetch_idle",
}

#: Method calls on *unparsed* state classes that mutate state.  Any
#: other method call on a state class is treated as a read (the fused
#: kernel inlines read-only helpers like ``ThreadContext.can_fetch``).
KNOWN_STATE_MUTATORS = frozenset(
    {"write_int", "write_fp", "write_priv", "rebuild_rename_maps", "activate"}
)

#: Container methods that mutate the container.
CONTAINER_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: Module-level functions that mutate their first argument.
FUNC_MUTATORS = frozenset({"heappush", "heappop", "heapify", "heapreplace"})

#: Classes whose constructor call closes over ``__init__``.
CTOR_CLASSES = frozenset({"Uop"})

#: Pass-through builtins: ``list(x)`` resolves like ``x``.
_PASSTHROUGH_CALLS = frozenset({"list", "tuple", "sorted", "reversed", "iter"})

_LEDGER_RE = re.compile(
    r"#\s*parity:\s*elided\(\s*(?P<fact>[^,\s)]+)\s*,\s*(?P<reason>[^)]*)\)"
)


# ---------------------------------------------------------------------------
# Fact extraction
# ---------------------------------------------------------------------------


@dataclass
class _MethodIndex:
    """AST index of every class method and module function we may visit."""

    methods: dict[tuple[str, str], ast.FunctionDef] = field(default_factory=dict)
    files: dict[tuple[str, str], str] = field(default_factory=dict)

    def add_module(self, tree: ast.Module, filename: str) -> None:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        self.methods[(node.name, item.name)] = item
                        self.files[(node.name, item.name)] = filename

    def lookup(self, mro: list[str], meth: str) -> tuple[str, str] | None:
        for cls in mro:
            if (cls, meth) in self.methods:
                return (cls, meth)
        return None


#: Side-specific method resolution order for the kernel class family.
_MRO = {
    "ref": {"SMTCore": ["SMTCore"]},
    "fused": {"SMTCore": ["FusedSMTCore", "SMTCore"]},
}
for _side in _MRO:
    for _cls in ("InstructionWindow", "Cache", "Bus", "Uop", "_DRAM"):
        _MRO[_side][_cls] = [_cls]


class FactSet(dict):
    """fact -> sorted list of ``(qualname, lineno)`` sites."""

    def record(self, fact: str, site: tuple[str, int]) -> None:
        self.setdefault(fact, [])
        if site not in self[fact]:
            self[fact].append(site)


class _Extractor:
    """Closure-based fact extraction for one side (``ref`` or ``fused``)."""

    def __init__(self, index: _MethodIndex, side: str) -> None:
        self.index = index
        self.side = side
        self.facts = FactSet()
        self._visited: set[tuple[str, str]] = set()

    # -- entry ----------------------------------------------------------
    def visit_method(self, cls: str, meth: str) -> None:
        resolved = self.index.lookup(self._mro(cls), meth)
        if resolved is None or resolved in self._visited:
            return
        self._visited.add(resolved)
        fn = self.index.methods[resolved]
        _FunctionWalker(self, resolved[0], fn).run()

    def _mro(self, cls: str) -> list[str]:
        cls = _CANONICAL.get(cls, cls)
        return _MRO[self.side].get(cls, [cls])

    def record_mutation(self, owner: str, what: str, site: tuple[str, int]) -> None:
        self.facts.record(f"mut:{_CANONICAL.get(owner, owner)}.{what}", site)

    def record_hook(self, receiver: str, meth: str, site: tuple[str, int]) -> None:
        self.facts.record(f"hook:{receiver}.{meth}", site)


class _FunctionWalker:
    """Walks one function body in statement order with an alias env."""

    def __init__(self, ex: _Extractor, owner: str, fn: ast.FunctionDef) -> None:
        self.ex = ex
        self.owner = owner
        self.fn = fn
        self.qual = f"{owner}.{fn.name}"
        self.env: dict[str, tuple] = {"self": ("obj", _CANONICAL.get(owner, owner))}
        # The fused kernel's ``if ...listeners...`` branches fall back to
        # the reference path; they are not part of the fused fact set.
        self.skip_listener_guards = owner == "FusedSMTCore"

    def run(self) -> None:
        self._walk_body(self.fn.body)

    # -- resolution -----------------------------------------------------
    def resolve(self, node: ast.expr) -> tuple | None:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in CTOR_CLASSES:
                return ("class", node.id)
            return NAME_TYPES.get(node.id)
        if isinstance(node, ast.Attribute):
            return self._attr_lookup(self.resolve(node.value), node.attr)
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value)
            if base is not None and base[0] == "cont":
                return base[3]
            return None
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in _PASSTHROUGH_CALLS:
                if node.args:
                    return self.resolve(node.args[0])
            if isinstance(node.func, ast.Name) and node.func.id in CTOR_CLASSES:
                return ("obj", node.func.id)
            if isinstance(node.func, ast.Attribute) and node.func.attr == "get":
                base = self.resolve(node.func.value)
                if base is not None and base[0] == "cont":
                    return base[3]
            return None
        if isinstance(node, ast.IfExp):
            return self.resolve(node.body) or self.resolve(node.orelse)
        return None

    def _attr_lookup(self, base: tuple | None, attr: str) -> tuple | None:
        if base is None:
            return None
        if base[0] == "obj":
            typ = base[1]
            if typ == "SMTCore" and attr in BOUND_HOOK_ATTRS:
                return ("hook", BOUND_HOOK_ATTRS[attr])
            if typ == "SMTCore" and attr == "_ifetch":
                return ("boundmeth", ("obj", "Cache"), "access")
            hit = ATTR_TYPES.get((typ, attr))
            if hit is not None:
                return hit
            if typ in HOOK_RECEIVERS:
                return ("boundhook", typ, attr)
            if self.ex.index.lookup(self.ex._mro(typ), attr) is not None:
                return ("boundmeth", base, attr)
            if attr in KNOWN_STATE_MUTATORS:
                return ("boundmeth", base, attr)
            return None
        if base[0] == "cont":
            return ("boundmeth", base, attr)
        if base[0] == "class":
            return ("classattr", base[1], attr)
        return None

    # -- statement walking ----------------------------------------------
    def _walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test)
            if self.skip_listener_guards and self._mentions_listeners(stmt.test):
                self._walk_body(stmt.orelse)
                return
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.While,)):
            self._scan_expr(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._scan_expr(stmt.iter)
            self._bind_loop_target(stmt.target, stmt.iter)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._scan_expr(item.context_expr)
            self._walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._walk_body(handler.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None:
                self._scan_expr(value)
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                self._handle_store(target, augmented=isinstance(stmt, ast.AugAssign))
            if isinstance(stmt, ast.Assign) and value is not None:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        resolved = self.resolve(value)
                        if resolved is not None:
                            self.env[target.id] = resolved
                        else:
                            self.env.pop(target.id, None)
            elif isinstance(stmt, ast.AnnAssign) and value is not None:
                if isinstance(stmt.target, ast.Name):
                    resolved = self.resolve(value)
                    if resolved is not None:
                        self.env[stmt.target.id] = resolved
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._handle_store(target, augmented=False)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._scan_expr(stmt.value)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            pass
        # FunctionDef/ClassDef/imports inside kernel methods: none exist.

    def _bind_loop_target(self, target: ast.expr, source: ast.expr) -> None:
        if isinstance(target, ast.Name):
            resolved = self.resolve(source)
            if resolved is not None and resolved[0] == "cont" and resolved[3]:
                self.env[target.id] = resolved[3]
            elif target.id in self.env:
                del self.env[target.id]

    def _mentions_listeners(self, node: ast.expr) -> bool:
        return any(
            (isinstance(sub, ast.Attribute) and sub.attr == "listeners")
            or (isinstance(sub, ast.Name) and sub.id == "listeners")
            for sub in ast.walk(node)
        )

    # -- mutations ------------------------------------------------------
    def _handle_store(self, target: ast.expr, augmented: bool) -> None:
        site = (self.qual, target.lineno)
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._handle_store(elt, augmented)
        elif isinstance(target, ast.Attribute):
            base = self.resolve(target.value)
            if base is not None and base[0] == "obj" and base[1] not in HOOK_RECEIVERS:
                self.ex.record_mutation(base[1], target.attr, site)
        elif isinstance(target, ast.Subscript):
            base = self.resolve(target.value)
            if base is not None and base[0] == "cont":
                self.ex.record_mutation(base[1], base[2] + "[]", site)

    # -- calls ----------------------------------------------------------
    def _scan_expr(self, node: ast.expr) -> None:
        for sub in self._calls_in(node):
            self._handle_call(sub)

    def _calls_in(self, node: ast.expr):
        """Call nodes in ``node``, not descending into lambdas."""
        stack = [node]
        while stack:
            cur = stack.pop()
            if isinstance(cur, ast.Lambda):
                continue
            if isinstance(cur, ast.Call):
                yield cur
            stack.extend(ast.iter_child_nodes(cur))

    def _handle_call(self, call: ast.Call) -> None:
        site = (self.qual, call.lineno)
        func = call.func
        # super().x(...): the fused kernel's fallback to the reference
        # path; never part of the fused fact set.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            return
        if isinstance(func, ast.Name):
            if func.id in FUNC_MUTATORS and call.args:
                base = self.resolve(call.args[0])
                if base is not None and base[0] == "cont":
                    self.ex.record_mutation(base[1], base[2] + "[]", site)
                return
            if func.id in CTOR_CLASSES:
                self.ex.visit_method(func.id, "__init__")
                return
            target = self.env.get(func.id)
            if target is not None:
                self._dispatch(target, site)
            return
        if isinstance(func, ast.Attribute):
            self._dispatch(self._attr_lookup(self.resolve(func.value), func.attr), site)

    def _dispatch(self, target: tuple | None, site: tuple[str, int]) -> None:
        if target is None:
            return
        kind = target[0]
        if kind == "hook":
            receiver, _, meth = target[1].rpartition(".")
            self.ex.record_hook(receiver, meth, site)
        elif kind == "boundhook":
            self.ex.record_hook(target[1], target[2], site)
        elif kind == "boundmeth":
            recv, meth = target[1], target[2]
            if recv[0] == "cont":
                if meth in CONTAINER_MUTATORS:
                    self.ex.record_mutation(recv[1], recv[2] + "[]", site)
            elif recv[0] == "obj":
                typ = recv[1]
                if typ in HOOK_RECEIVERS:
                    self.ex.record_hook(typ, meth, site)
                elif self.ex.index.lookup(self.ex._mro(typ), meth) is not None:
                    self.ex.visit_method(typ, meth)
                elif meth in KNOWN_STATE_MUTATORS:
                    self.ex.record_mutation(typ, meth + "()", site)
        elif kind == "classattr":
            pass  # Uop.__new__: bare allocation, no semantic effect.


# ---------------------------------------------------------------------------
# Model assembly and diffing
# ---------------------------------------------------------------------------

#: Reference-path and fused-path source files, relative to the package
#: root (``src/repro``).
REFERENCE_FILES = (
    "pipeline/core.py",
    "pipeline/window.py",
    "pipeline/uop.py",
    "memory/cache.py",
)
FUSED_FILES = ("engine/core.py",)

#: Closure roots per side.  The fused side deliberately excludes
#: ``step``/``_decode_fetch``: those entry points delegate whole stages
#: back to the reference kernel, so walking them would launder reference
#: facts into the fused set.
REF_ROOTS = (("SMTCore", "run_to"),)
FUSED_ROOTS = (
    ("SMTCore", "_run_to_fused"),
    ("SMTCore", "_decode_prio"),
    ("SMTCore", "_fetch_prio"),
)


@dataclass
class ParityModel:
    ref: FactSet
    fused: FactSet
    ledger: list[tuple[str, str, int]]  # (fact, reason, lineno)
    fused_file: str
    ref_file: str


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def scan_ledger(text: str) -> list[tuple[str, str, int]]:
    """``# parity: elided(fact, reason)`` entries with line numbers."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _LEDGER_RE.search(line)
        if m:
            entries.append((m.group("fact"), m.group("reason").strip(), lineno))
    return entries


def extract_model(root: Path | None = None) -> ParityModel:
    """Parse both kernels and extract their fact sets."""
    root = root or _package_root()
    index = _MethodIndex()
    ledger: list[tuple[str, str, int]] = []
    for rel in REFERENCE_FILES + FUSED_FILES:
        path = root / rel
        text = path.read_text()
        index.add_module(ast.parse(text), str(path))
        if rel in FUSED_FILES:
            ledger.extend(scan_ledger(text))

    ref = _Extractor(index, "ref")
    for cls, meth in REF_ROOTS:
        ref.visit_method(cls, meth)
    fused = _Extractor(index, "fused")
    for cls, meth in FUSED_ROOTS:
        fused.visit_method(cls, meth)
    return ParityModel(
        ref=ref.facts,
        fused=fused.facts,
        ledger=ledger,
        fused_file=str(root / FUSED_FILES[0]),
        ref_file=str(root / REFERENCE_FILES[0]),
    )


def _strip(fact: str) -> str:
    return fact.split(":", 1)[1]


def diff_model(model: ParityModel) -> list[Diagnostic]:
    """Diff the two fact sets against the elision ledger."""
    diagnostics: list[Diagnostic] = []
    ledger_by_fact = {fact: (reason, lineno) for fact, reason, lineno in model.ledger}
    used_ledger: set[str] = set()

    def sites(fs: FactSet, fact: str) -> str:
        return ", ".join(f"{q}:{ln}" for q, ln in sorted(fs[fact])[:3])

    for fact in sorted(model.ref.keys() - model.fused.keys()):
        name = _strip(fact)
        if name in ledger_by_fact:
            used_ledger.add(name)
            continue
        is_hook = fact.startswith("hook:")
        diagnostics.append(
            Diagnostic(
                passname="parity",
                code="parity-hook-drift" if is_hook else "parity-mutation-drift",
                severity=Severity.ERROR,
                unit="parity:kernel",
                message=(
                    f"reference kernel {'invokes' if is_hook else 'mutates'} "
                    f"{name} (at {sites(model.ref, fact)}) but the fused "
                    "kernel neither does nor declares it in a "
                    "'# parity: elided' ledger entry"
                ),
                file=model.ref_file,
                line=sorted(model.ref[fact])[0][1],
            )
        )
    for fact in sorted(model.fused.keys() - model.ref.keys()):
        name = _strip(fact)
        is_hook = fact.startswith("hook:")
        diagnostics.append(
            Diagnostic(
                passname="parity",
                code="parity-hook-drift" if is_hook else "parity-unmatched-site",
                severity=Severity.ERROR if is_hook else Severity.WARNING,
                unit="parity:kernel",
                message=(
                    f"fused kernel {'invokes' if is_hook else 'mutates'} "
                    f"{name} (at {sites(model.fused, fact)}) but the "
                    "reference kernel does not"
                ),
                file=model.fused_file,
                line=sorted(model.fused[fact])[0][1],
            )
        )
    for fact, reason, lineno in model.ledger:
        if fact not in used_ledger:
            diagnostics.append(
                Diagnostic(
                    passname="parity",
                    code="parity-elided-unused",
                    severity=Severity.ERROR,
                    unit="parity:kernel",
                    message=(
                        f"ledger entry 'parity: elided({fact}, {reason})' "
                        "matches no reference-only fact; delete it (stale "
                        "ledger entries hide real drift)"
                    ),
                    file=model.fused_file,
                    line=lineno,
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_parity(root: Path | None = None) -> list[Diagnostic]:
    """The full parity pass: the reference-vs-fused kernel diff."""
    return diff_model(extract_model(root))


#: The fact the selftest deletes from the fused set.  ``ThreadContext.pc``
#: is the reference kernel's most load-bearing mutation: losing it means
#: the fused kernel never advances a thread.
SELFTEST_FACT = "mut:ThreadContext.pc"


def selftest(root: Path | None = None) -> tuple[bool, str]:
    """Seed a drift and verify the pass catches it.

    Mirrors ``repro-fuzz --defect``: delete one mutation site from the
    fused kernel's extracted fact set and demand the diff turn red.
    Returns ``(ok, report)``.
    """
    model = extract_model(root)
    if SELFTEST_FACT not in model.ref or SELFTEST_FACT not in model.fused:
        return False, (
            f"selftest fact {SELFTEST_FACT} missing from extraction "
            f"(ref: {SELFTEST_FACT in model.ref}, "
            f"fused: {SELFTEST_FACT in model.fused}); the extractor lost "
            "its anchor"
        )
    del model.fused[SELFTEST_FACT]
    found = [
        d
        for d in diff_model(model)
        if d.code == "parity-mutation-drift" and _strip(SELFTEST_FACT) in d.message
    ]
    if not found:
        return False, (
            f"seeded drift NOT caught: deleting {SELFTEST_FACT} from the "
            "fused fact set produced no parity-mutation-drift error"
        )
    return True, (
        f"seeded drift caught: deleting {SELFTEST_FACT} from the fused "
        f"fact set produced {len(found)} parity-mutation-drift error(s)"
    )
