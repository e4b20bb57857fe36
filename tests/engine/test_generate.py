"""The fused-kernel generator: return removal, hygiene, the constructs it
refuses, what it hoists, and the compiled-code cache.  Every generation
here is uncached (it writes to a temporary directory)."""

import ast
import marshal
import subprocess
import sys
import textwrap

import pytest

from repro.engine import core as engine_core
from repro.engine import generate as gen
from repro.pipeline.core import SMTCore


def _fused(cls, root, inline):
    text, needed, _ = gen.fuse(cls, root, inline)
    return engine_core._link(root, text, needed, compile(text, "<toy>", "exec")), text


class Toy:
    def __init__(self):
        self.log = []

    def root(self, x):
        y = 100  # shares a name with a local of early()
        a = self.early(x)
        b = self.chain(x)
        self.note(x)
        c = self.early(x + 1)  # the same method inlined twice
        self.record(x)  # its return value is dropped, its effect is not
        d = self.bump(x)
        if not self.positive(x):
            self.note(-1)
        return (a, b, c, d, y, self.log)

    def early(self, x):
        if x < 0:
            return "neg"
        if x == 0:
            return "zero"
        y = x * 2
        return y

    def chain(self, x):
        if x > 5:
            r = "big"
        elif x > 2:
            return "mid"
        else:
            r = "small"
        r = r + "!"
        return r

    def note(self, x):
        self.log.append(x)

    def record(self, x):
        tag = "record"
        return self.log.append((tag, x))

    def bump(self, x):
        x = x + 10  # a reassigned parameter
        return x

    def positive(self, x):
        if x > 0:
            return True
        self.log.append("not positive")


class TestInlining:
    INLINE = ("early", "chain", "note", "record", "bump", "positive")

    def test_fused_root_matches_the_method(self):
        fused, _ = _fused(Toy, "root", self.INLINE)
        for x in (-3, -1, 0, 1, 2, 3, 5, 6, 9):
            assert fused(Toy(), x) == Toy().root(x), x

    def test_only_the_root_returns_and_locals_are_renamed(self):
        _, text = _fused(Toy, "root", self.INLINE)
        fn = ast.parse(text).body[0]
        returns = [n for n in ast.walk(fn) if isinstance(n, ast.Return)]
        assert len(returns) == 1
        assert "y = 100" in text and "y__" in text
        # A reassigned parameter and a non-name argument are bound to
        # temporaries; the two early() expansions have their own locals.
        assert "x__" in text
        early_ys = {
            n.id for n in ast.walk(fn)
            if isinstance(n, ast.Name) and n.id.startswith("y__")
        }
        assert len(early_ys) == 2

    def test_rest_of_block_is_copied_only_when_both_branches_fall_through(self):
        _, text = _fused(Toy, "root", ("chain",))
        # chain()'s `r = r + "!"` follows an if/elif whose middle branch
        # returns: it lands in the first branch and in the else branch.
        assert text.count("+ '!'") == 2
        _, text = _fused(Toy, "root", ("early",))
        assert text.count("* 2") == 2  # once per expansion, never copied


class Bad:
    def loop_return(self, xs):
        for x in xs:
            if x:
                return x
        return None

    def with_lambda(self, xs):
        xs.sort(key=lambda v: -v)

    def store_self(self, other):
        self = other
        self.log = []

    def call_loop(self, xs):
        self.loop_return(xs)

    def call_lambda(self, xs):
        self.with_lambda(xs)

    def call_store(self, other):
        self.store_self(other)

    def call_in_expression(self, xs):
        return 1 + self.loop_return(xs)


class TestRefusals:
    @pytest.mark.parametrize(
        "root, callee, what",
        [
            ("call_loop", "loop_return", "return inside a loop"),
            ("call_lambda", "with_lambda", "lambda"),
            ("call_store", "store_self", "store to substituted parameter"),
            ("call_in_expression", "loop_return", "cannot inline"),
        ],
    )
    def test_error_names_the_method(self, root, callee, what):
        with pytest.raises(gen.GenerateError) as err:
            gen.fuse(Bad, root, (callee,))
        assert what in str(err.value)
        assert f"Bad.{callee}" in str(err.value) or f"Bad.{root}" in str(err.value)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """One uncached generation: the kernel, its cache dir, and each
    function's generated text."""
    cache = tmp_path_factory.mktemp("kernel")
    kernel = engine_core.kernel(str(cache))
    texts = {name: gen.generate(name)[0] for name in kernel}
    return kernel, cache, texts


def _hoisted(text):
    """``self`` chains bound in the generated function's prologue."""
    fn = ast.parse(text).body[0]
    chains = []
    for stmt in fn.body:
        if not (isinstance(stmt, ast.Assign) and stmt.targets[0].id.startswith("h_")):
            break
        chain = gen._chain(stmt.value)
        if chain[0] == "self":
            chains.append(chain[1:])
    return chains


class TestHoisting:
    def test_hoisted_attributes_are_bound_only_at_construction_or_restore(
        self, generated
    ):
        *_, texts = generated
        bound_in = {}
        tree = ast.parse(open(sys.modules[SMTCore.__module__].__file__).read())
        (cls,) = [
            n for n in tree.body
            if isinstance(n, ast.ClassDef) and n.name == "SMTCore"
        ]
        for method in cls.body:
            for node in ast.walk(method):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                    else []
                )
                for t in targets:
                    if isinstance(t, ast.Attribute) and gen._chain(t) == ("self", t.attr):
                        bound_in.setdefault(t.attr, set()).add(method.name)
        hoisted = {c[0] for text in texts.values() for c in _hoisted(text)}
        assert {"config", "stats", "threads", "window", "hierarchy"} <= hoisted
        for attr in hoisted:
            assert bound_in.get(attr, set()) <= {"__init__", "restore_state"}, attr

    def test_nothing_is_hoisted_through_a_maybe_none_object(self, generated):
        *_, texts = generated
        for text in texts.values():
            for chain in _hoisted(text):
                if chain[0] in ("mechanism", "faults", "_sanitizer", "itlb"):
                    assert len(chain) == 1, chain


class TestCache:
    def _entry(self, cache, name="run_to"):
        return cache / f"fused.{name}.kernel"

    def test_hit_generates_nothing(self, generated, monkeypatch):
        _, cache, _ = generated
        monkeypatch.setattr(gen, "generate", pytest.fail)
        kernel = engine_core.kernel(str(cache))
        assert set(kernel) == {"run_to", "squash_from"}

    def test_traceback_lines_come_from_the_generated_text(self, generated):
        import linecache

        assert linecache.getline("<fused run_to>", 1).startswith("def run_to(")

    @pytest.mark.parametrize("damage", ["corrupt", "stale"])
    def test_bad_entry_is_regenerated_and_overwritten(
        self, generated, tmp_path, monkeypatch, damage
    ):
        _, cache, _ = generated
        path = self._entry(tmp_path)
        good = self._entry(cache).read_bytes()
        if damage == "corrupt":
            path.write_bytes(good[: len(good) // 2])
        else:
            _, *rest = marshal.loads(good)
            path.write_bytes(marshal.dumps(("0" * 64, *rest)))
        (tmp_path / "fused.squash_from.kernel").write_bytes(
            self._entry(cache, "squash_from").read_bytes()
        )
        calls = []
        real = gen.generate
        monkeypatch.setattr(gen, "generate", lambda name: calls.append(name) or real(name))
        engine_core.kernel(str(tmp_path))
        assert calls == ["run_to"]
        assert engine_core._load(str(path)) is not None

    def test_unwritable_directory_still_yields_a_kernel(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        kernel = engine_core.kernel(str(blocker / "cache"))
        assert set(kernel) == {"run_to", "squash_from"}
        assert list(tmp_path.iterdir()) == [blocker]


def test_import_resolve_and_cellspec_generate_nothing():
    probe = textwrap.dedent(
        """
        import sys
        import repro.engine
        from repro.engine import core, core_class, resolve_engine
        from repro.sim.config import MachineConfig
        from repro.sim.parallel import CellSpec

        resolve_engine()
        core_class("fused")
        spec = CellSpec("compress", MachineConfig(), 10, 0, 1000)
        spec.key
        print(core._KERNEL is None, "repro.engine.generate" in sys.modules)
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["True", "False"]
