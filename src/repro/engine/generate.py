"""Generate the fused kernel from the reference stages.

:func:`generate` builds the source of ``run_to`` or ``squash_from`` from
:class:`~repro.pipeline.core.SMTCore`'s own stage methods, so the fused
loop is the reference loop with its call overhead compiled away:

* every call of a :data:`CORE_INLINE` stage on ``self``, and of a
  :data:`CORE_TYPES` method on a typed receiver, is replaced by the
  callee's body with its locals renamed apart (``name__k``);
* a ``return`` is removed by nesting the rest of its block into the
  branches of its ``if`` that fall through (copied only when both do);
* ``self.listeners`` is specialised to ``None`` (a fused core runs the
  reference stages when a bus is attached) and dead branches folded;
* a local bound once to a loop-invariant attribute chain is
  copy-propagated, then every invariant chain read inside a loop is
  bound to a local once per call (:data:`CORE_HOIST`).

What cannot be inlined exactly -- a ``return`` inside a loop, a
``lambda``, a store to a substituted parameter, a call in any position
but a statement, an assignment's value or an ``if`` test -- raises
:class:`GenerateError` naming the method.  Only a cache miss in
:func:`repro.engine.core.kernel` imports this module.
"""

from __future__ import annotations

import ast
import copy
import enum
import itertools
import sys
import textwrap
import types

from repro.memory.cache import Cache
from repro.pipeline.core import SMTCore
from repro.pipeline.thread import ThreadContext
from repro.pipeline.uop import Uop
from repro.pipeline.window import InstructionWindow

__all__ = ["GenerateError", "fuse", "generate"]

#: ``SMTCore`` methods inlined wherever the loop calls them on ``self``.
CORE_INLINE = (
    "step", "_retire", "_do_retire", "_execute", "_decode", "_fetch",
    "_fetch_one", "_fetch_priority", "_rename", "_schedule_uop", "_issue",
    "producer_issued", "_squash_uop",
)

#: Methods inlined on a receiver typed by :data:`CORE_RECEIVERS`.  A
#: method whose body is one ``return <expr>`` (or a property) inlines as
#: that expression; ``__init__`` inlines a constructor call.
CORE_TYPES = {
    InstructionWindow: ("insert", "remove"),
    Uop: ("__init__", "src_ready"),
    ThreadContext: ("can_fetch", "is_exception_thread"),
}

#: Receiver name -> type (a renamed local's ``__k`` suffix is ignored;
#: an attribute chain is typed by its last name, as ``self.window``).
CORE_RECEIVERS = {
    "window": InstructionWindow,
    "thread": ThreadContext,
    **dict.fromkeys(("uop", "head", "victim", "c", "p"), Uop),
}

#: ``self._ifetch(...)`` is ``Cache.access`` on ``self.hierarchy.l1i``.
CORE_ALIASES = {"_ifetch": (("hierarchy", "l1i"), Cache, "access")}

#: ``self`` attribute chains that may be bound once per call (besides
#: ``SMTCore``'s bound methods): each object named is bound when the core
#: is built or restored, never mid-run.  An empty dict ends a chain, for
#: an object that may be ``None`` or whose attributes move; ``config``
#: (``ANY``) hoists at any depth.
ANY = None
CORE_HOIST = {
    "config": ANY,
    "window": dict.fromkeys(("_uops", "_reservations", "sanitizer", "capacity"), {}),
    "hierarchy": {"l1i": dict.fromkeys(
        ("_sets", "_mshrs", "stats", "line_shift", "set_mask", "latency",
         "bus", "next_level", "mshr_count", "fill_latency", "_reap_mshrs",
         "_install"), {})},
    "bpu": {"predict": {}, "train": {}},
    "memory": {"write_word": {}},
    "_wake_buckets": {"pop": {}},
    "_retry": {"append": {}},
    **dict.fromkeys(
        ("stats", "threads", "mechanism", "faults", "_sanitizer", "itlb",
         "_mech_tick", "_mech_ports", "_mech_fetch_idle", "_l1_latency",
         "_fetch_latency", "_pt_base", "_icount_chooser"), {}),
}


class GenerateError(Exception):
    """A method the generator cannot inline exactly (the message names it)."""


def generate(name: str) -> tuple[str, dict[str, str], tuple[str, ...]]:
    """Source of the fused ``SMTCore.<name>``, the globals it reads
    (name -> module) and the modules whose source it was built from."""
    return fuse(SMTCore, name, CORE_INLINE, types_=CORE_TYPES, receivers=CORE_RECEIVERS,
                aliases=CORE_ALIASES, hoist=CORE_HOIST, none_attrs=("listeners",))


def fuse(cls, root: str, inline, **tables) -> tuple[str, dict[str, str], tuple[str, ...]]:
    """:func:`generate` for any class: ``cls.<root>`` with the calls of
    the ``inline`` methods on ``self`` inlined; ``tables`` take the
    ``types_``, ``receivers``, ``aliases``, ``hoist`` and ``none_attrs``
    that :func:`generate` fills from the ``CORE_*`` tables."""
    inliner = _Inliner(cls, inline, **tables)
    module = ast.Module(body=[inliner.fuse(root)], type_ignores=[])
    ast.fix_missing_locations(module)
    text = ast.unparse(module) + "\n"
    return text, dict(sorted(inliner.needed.items())), tuple(sorted(inliner.modules))


# ----------------------------------------------------------------------
# Source and small AST helpers.  Every node is built with all its
# fields: Python 3.13 warns about a missing one, and 3.15 rejects it.
# ----------------------------------------------------------------------
_TREES: dict[str, tuple[ast.Module, list[str]]] = {}


class _Callee:
    __slots__ = ("name", "fn", "module", "expression", "prop", "source")

    def __init__(self, cls, method: str) -> None:
        self.name, self.module = f"{cls.__name__}.{method}", cls.__module__
        if self.module not in _TREES:
            with open(sys.modules[self.module].__file__, encoding="utf-8") as f:
                text = f.read()
            _TREES[self.module] = (ast.parse(text), text.splitlines(True))
        tree, lines = _TREES[self.module]
        self.fn = next(
            (f for c in tree.body
             if isinstance(c, ast.ClassDef) and c.name == cls.__name__
             for f in c.body
             if isinstance(f, ast.FunctionDef) and f.name == method), None,
        )
        if self.fn is None:
            raise GenerateError(f"{self.name}: no such method")
        #: Re-parsed for each expansion: much cheaper than a deep copy.
        self.source = textwrap.dedent("".join(lines[self.fn.lineno - 1:self.fn.end_lineno]))
        self.prop = "property" in {getattr(d, "id", "") for d in self.fn.decorator_list}
        body = _strip_doc(self.fn.body)
        one = len(body) == 1 and isinstance(body[0], ast.Return) and body[0].value
        self.expression = body[0].value if one else None


def _name(id_: str, store: bool = False) -> ast.Name:
    return ast.Name(id=id_, ctx=ast.Store() if store else ast.Load())


def _assign(target: str, value: ast.expr) -> ast.Assign:
    return ast.Assign(targets=[_name(target, True)], value=value)


def _attrs(root: str, attrs) -> ast.expr:
    node = _name(root)
    for attr in attrs:
        node = ast.Attribute(value=node, attr=attr, ctx=ast.Load())
    return node


def _chain(node) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; None for any other expression."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, *reversed(attrs)) if isinstance(node, ast.Name) else None


def _strip_doc(body: list) -> list:
    first = body[0] if body else None
    doc = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
    return body[1:] if doc and isinstance(first.value.value, str) else body


def _loads(nodes) -> set[str]:
    walk = (n for root in nodes for n in ast.walk(root))
    return {n.id for n in walk if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _stores(nodes) -> dict[str, int]:
    """Name -> number of binding sites."""
    counts: dict[str, int] = {}
    for n in (n for root in nodes for n in ast.walk(root)):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            counts[n.id] = counts.get(n.id, 0) + 1
    return counts


_FLIP = {ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}


def _negate(test: ast.expr) -> ast.expr:
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return test.operand
    if isinstance(test, ast.Compare) and len(test.ops) == 1 and type(test.ops[0]) in _FLIP:
        op = _FLIP[type(test.ops[0])]()
        return ast.Compare(left=test.left, ops=[op], comparators=test.comparators)
    return ast.UnaryOp(op=ast.Not(), operand=test)


def _falls_through(stmts: list) -> bool:
    return not any(
        isinstance(s, (ast.Return, ast.Raise)) or (
            isinstance(s, ast.If)
            and not (_falls_through(s.body) or _falls_through(s.orelse))
        ) for s in stmts
    )


def _returns(stmts: list, result: str | None) -> list:
    """``stmts`` without ``return``: ``return x`` becomes ``result = x``
    and the rest of a block moves into the branches of its returning
    ``if`` that fall through (copied only when both do)."""
    for i, s in enumerate(stmts):
        if isinstance(s, ast.Return):
            value = s.value or ast.Constant(value=None)
            if result:
                return stmts[:i] + [_assign(result, value)]
            pure = isinstance(value, (ast.Constant, ast.Name))
            return stmts[:i] + ([] if pure else [ast.Expr(value=value)])
        if isinstance(s, ast.If) and any(isinstance(n, ast.Return) for n in ast.walk(s)):
            body, orelse, rest = s.body, s.orelse, stmts[i + 1:]
            body_ft, else_ft = _falls_through(body), _falls_through(orelse)
            if rest and body_ft:
                body = body + (copy.deepcopy(rest) if else_ft else rest)
            if rest and else_ft:
                orelse = orelse + rest
            test, body, orelse = s.test, _returns(body, result), _returns(orelse, result)
            if not body:
                test, body, orelse = _negate(test), orelse, []
            return stmts[:i] + [ast.If(test=test, body=body, orelse=orelse)]
    return stmts


def _check(body: list, where: str) -> None:
    """Reject what return removal and renaming cannot handle exactly."""
    def walk(node, block):
        if isinstance(node, ast.Lambda):
            raise GenerateError(f"{where}: cannot inline a lambda")
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Yield, ast.Global,
                             ast.Nonlocal)) or getattr(node, "name", None):
            raise GenerateError(f"{where}: cannot inline {type(node).__name__}")
        if isinstance(node, ast.Return) and block:
            raise GenerateError(f"{where}: cannot inline a return inside a {block}")
        if isinstance(node, (ast.For, ast.While)):
            block = "loop"
        elif isinstance(node, (ast.Try, ast.With)):
            block = block or "try or with block"
        for child in ast.iter_child_nodes(node):
            walk(child, block)

    for s in body:
        walk(s, None)


class _Subst(ast.NodeTransformer):
    """Substitute expressions for the names read in ``subst`` and rename
    locals; with ``drop``, also delete the bindings of ``subst`` names
    (copy propagation)."""

    def __init__(self, where: str, subst: dict, rename=(), drop=False) -> None:
        self.where, self.subst, self.rename, self.drop = where, subst, dict(rename), drop

    def visit_Name(self, node):
        if node.id not in self.subst:
            node.id = self.rename.get(node.id, node.id)
            return node
        if not isinstance(node.ctx, ast.Load):
            raise GenerateError(f"{self.where}: store to substituted parameter {node.id!r}")
        return copy.deepcopy(self.subst[node.id])

    def visit_Assign(self, node):
        target = node.targets[0]
        drop = self.drop and isinstance(target, ast.Name) and target.id in self.subst
        return None if drop else self.generic_visit(node)


class _Fold(ast.NodeTransformer):
    """``self.<attr>`` -> ``None`` for the specialised attributes, and
    the constant tests that (and constant arguments) leave folded."""

    def __init__(self, self_name: str, none_attrs) -> None:
        self.self_name, self.none_attrs = self_name, none_attrs

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if (
            node.attr in self.none_attrs and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == self.self_name
        ):
            return ast.Constant(value=None)
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        left, (right, *more), (op, *_) = node.left, node.comparators, node.ops
        if not more and isinstance(op, (ast.Is, ast.IsNot)) and all(
            isinstance(x, ast.Constant) and type(x.value) in (bool, type(None))
            for x in (left, right)
        ):
            return ast.Constant(value=(left.value is right.value) == isinstance(op, ast.Is))
        return node

    def visit_If(self, node):
        self.generic_visit(node)
        if isinstance(node.test, ast.Constant):
            return (node.body if node.test.value else node.orelse) or None
        return node


class _Hoist(ast.NodeTransformer):
    """Replace each read of a hoisted chain (longest first) by its local."""

    def __init__(self, names: dict) -> None:
        self.names = names

    def _chain_node(self, node):
        local = self.names.get(_chain(node)) if isinstance(node.ctx, ast.Load) else None
        return _name(local) if local else self.generic_visit(node)

    visit_Attribute = visit_Name = _chain_node


class _Expressions(ast.NodeTransformer):
    """Inline one-expression methods and properties on typed receivers."""

    def __init__(self, inliner) -> None:
        self.inliner = inliner

    def visit_Call(self, call):
        self.generic_visit(call)
        target = self.inliner._target(call)
        if target and target[1] is not None and target[0].expression:
            return self.inliner._expression(target[0], target[1], call.args)
        return call

    def visit_Attribute(self, node):
        self.generic_visit(node)
        callee = self.inliner._typed(node.value).get(node.attr)
        if callee and callee.prop and isinstance(node.ctx, ast.Load):
            return self.inliner._expression(callee, node.value, [])
        return node


# ----------------------------------------------------------------------
# The inliner.
# ----------------------------------------------------------------------
class _Inliner:
    def __init__(
        self, cls, inline, types_=(), receivers=(), aliases=(), hoist=(), none_attrs=()
    ):
        types_, receivers, aliases = dict(types_), dict(receivers), dict(aliases)
        self.cls, self.hoist, self.none_attrs = cls, dict(hoist), frozenset(none_attrs)
        self.methods = {m: _Callee(cls, m) for m in inline}
        self.typed = {
            name: {m: _Callee(t, m) for m in types_.get(t, ())}
            for name, t in receivers.items()
        }
        self.ctors = {
            t.__name__: _Callee(t, "__init__")
            for t, methods in types_.items() if "__init__" in methods
        }
        self.aliases = {
            a: (attrs, _Callee(t, m)) for a, (attrs, t, m) in aliases.items()
        }
        self.counter, self.expressions = itertools.count(1), _Expressions(self)
        self.needed: dict[str, str] = {}  # global name -> module
        self.modules = {cls.__module__}
        self.self_name = "self"

    def _need(self, names, module: str, where: str) -> None:
        self.modules.add(module)
        for n in names:
            source = module if hasattr(sys.modules[module], n) else "builtins"
            obj = getattr(sys.modules[source], n, self)
            if obj is self:
                continue  # unbound here, as it is in the reference
            prev = self.needed.setdefault(n, source)
            if getattr(sys.modules[prev], n) is not obj:
                raise GenerateError(f"{where}: global {n!r} differs in {prev} and {module}")

    def invariant(self, chain, local_names) -> bool:
        root, attrs = chain[0], chain[1:]
        if root == self.self_name:
            if len(attrs) == 1 and callable(getattr(self.cls, attrs[0], None)):
                return True  # a bound method of the core
            table = self.hoist
            for attr in attrs:
                if table is not ANY:
                    if attr not in table:
                        return False
                    table = table[attr]
            return bool(attrs)
        if root in local_names or root not in self.needed:
            return False
        obj = getattr(sys.modules[self.needed[root]], root)
        return not attrs or len(attrs) == 1 and (
            isinstance(obj, (types.ModuleType, enum.EnumMeta))
            or isinstance(obj, type) and attrs[0] == "__new__"
        )

    def _propagate(self, body: list, names, local_names) -> list:
        """Copy-propagate the ``names`` bound once, to an invariant chain."""
        while True:
            counts = _stores(body)
            found = {
                n.targets[0].id: n.value
                for s in body for n in ast.walk(s)
                if isinstance(n, ast.Assign) and len(n.targets) == 1
                and isinstance(n.targets[0], ast.Name)
                and n.targets[0].id in names and counts[n.targets[0].id] == 1
                and _chain(n.value) is not None
                and self.invariant(_chain(n.value), local_names - {n.targets[0].id})
            }
            if not found:
                return body
            prop = _Subst("copy propagation", found, drop=True)
            body = [s for s in (prop.visit(s) for s in body) if s is not None]

    # -- call targets --------------------------------------------------
    def _typed(self, recv) -> dict:
        if isinstance(recv, ast.Name):
            base = recv.id.rsplit("__", 1)[0] if "__" in recv.id[1:] else recv.id
        elif isinstance(recv, ast.Attribute) and _chain(recv):
            base = recv.attr
        else:
            return {}
        return self.typed.get(base, {})

    def _target(self, node):
        """``(callee, receiver)`` for an inlinable call, else None; a
        constructor's receiver is None."""
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and func.id in self.ctors:
            return self.ctors[func.id], None
        if not isinstance(func, ast.Attribute):
            return None
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id == self.self_name:
            if func.attr in self.methods:
                return self.methods[func.attr], recv
            if func.attr in self.aliases:
                attrs, callee = self.aliases[func.attr]
                return callee, _attrs(self.self_name, attrs)
        callee = self._typed(recv).get(func.attr)
        return (callee, recv) if callee and not callee.prop else None

    # -- expansion -----------------------------------------------------
    def _body(self, callee: _Callee, recv, args, result) -> list:
        """The callee's body bound to ``recv`` and ``args``, its returns
        assigning ``result``, locals renamed and nested calls inlined."""
        fn, where = callee.fn, callee.name
        a = fn.args
        params = [p.arg for p in a.args]
        n_req = len(params) - 1 - len(a.defaults)
        if a.vararg or a.kwarg or a.kwonlyargs or a.posonlyargs or not (
            n_req <= len(args) < len(params)
        ):
            raise GenerateError(f"{where}: cannot bind {len(args)} positional arguments")
        args = list(args) + a.defaults[len(args) - n_req:]
        body = [
            ast.Assign(targets=[s.target], value=s.value)
            if isinstance(s, ast.AnnAssign) else s
            for s in _strip_doc(ast.parse(callee.source).body[0].body)
            if not (isinstance(s, ast.AnnAssign) and s.value is None)
        ]
        if result and _falls_through(body):
            body.append(ast.Return(value=None))
        _check(body, where)
        k, stored = next(self.counter), _stores(body)
        subst, rename, bind = {params[0]: recv}, {}, []
        for p, arg in zip(params[1:], args):
            if p in stored or not isinstance(arg, (ast.Name, ast.Constant)):
                rename[p] = f"{p}__{k}"
                bind.append(_assign(rename[p], copy.deepcopy(arg)))
            else:
                subst[p] = arg
        rename.update({n: f"{n}__{k}" for n in stored if n not in subst})
        self._need(_loads(body) - set(params) - set(stored), callee.module, where)
        substitute = _Subst(where, subst, rename)
        fold = _Fold(self.self_name, self.none_attrs)
        body = _flat(fold.visit(substitute.visit(s)) for s in body)
        local = set(rename.values())
        body = _returns(self._propagate(body, local, local), result)
        return bind + self._block(body, where)

    def _expression(self, callee: _Callee, recv, args) -> ast.expr:
        params = [p.arg for p in callee.fn.args.args]
        if len(args) != len(params) - 1 or not all(
            isinstance(x, (ast.Name, ast.Constant)) for x in args
        ):
            raise GenerateError(f"{callee.name}: inlines only with name arguments")
        _check([callee.expression], callee.name)
        subst = dict(zip(params, [recv, *args]))
        expr = _Subst(callee.name, subst).visit(copy.deepcopy(callee.expression))
        self._need(_loads([expr]) - set(params), callee.module, callee.name)
        return expr

    def _expand(self, call: ast.Call, result, where: str) -> list:
        callee, recv = self._target(call)
        if call.keywords or any(isinstance(x, ast.Starred) for x in call.args):
            raise GenerateError(f"{where}: call to {callee.name} needs plain arguments")
        if recv is not None:
            return self._body(callee, recv, call.args, result)
        if not result or result in _loads(call.args):
            raise GenerateError(f"{where}: {callee.name} must be assigned to a fresh name")
        cls = call.func.id  # a constructor: __new__, then __init__'s body
        self._need([cls], callee.module, where)
        new = ast.Call(func=_attrs(cls, ["__new__"]), args=[_name(cls)], keywords=[])
        return [_assign(result, new)] + self._body(callee, _name(result), call.args, None)

    def _inline_expressions(self, stmt) -> None:
        for field, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                setattr(stmt, field, self.expressions.visit(value))
            elif isinstance(value, list) and value and isinstance(value[0], ast.expr):
                setattr(stmt, field, [self.expressions.visit(v) for v in value])

    def _block(self, stmts: list, where: str) -> list:
        return [out for s in stmts for out in self._stmt(s, where)]

    def _stmt(self, s, where: str) -> list:
        for field in ("body", "orelse", "finalbody"):
            block = getattr(s, field, None)
            if block and isinstance(block[0], ast.stmt):
                setattr(s, field, self._block(block, where))
        for h in getattr(s, "handlers", ()):
            h.body = self._block(h.body, where)
        self._inline_expressions(s)
        if isinstance(s, ast.Expr) and self._target(s.value):
            return self._expand(s.value, None, where)
        if (
            isinstance(s, ast.Assign) and len(s.targets) == 1
            and isinstance(s.targets[0], ast.Name) and self._target(s.value)
        ):
            return self._expand(s.value, s.targets[0].id, where)
        if isinstance(s, ast.If):
            negated = isinstance(s.test, ast.UnaryOp) and isinstance(s.test.op, ast.Not)
            call = s.test.operand if negated else s.test
            if self._target(call):
                tmp = f"r__{next(self.counter)}"
                pre = self._expand(call, tmp, where)
                s.test = _negate(_name(tmp)) if negated else _name(tmp)
                return pre + [s]
        fields = [v for _, v in ast.iter_fields(s)]
        exprs = [e for v in fields for e in (v if isinstance(v, list) else [v])]
        for n in (n for e in exprs if isinstance(e, ast.expr) for n in ast.walk(e)):
            if self._target(n):
                raise GenerateError(
                    f"{where}: call to {self._target(n)[0].name} in a "
                    "position the generator cannot inline"
                )
        return [s]

    # -- the root ------------------------------------------------------
    def fuse(self, root: str) -> ast.FunctionDef:
        callee = _Callee(self.cls, root)
        fn = ast.parse(callee.source).body[0]
        fn.decorator_list, fn.returns = [], None
        for arg in fn.args.args:
            arg.annotation = None
        params = {p.arg for p in fn.args.args}
        self.self_name = fn.args.args[0].arg
        body = _strip_doc(fn.body)
        stored = set(_stores(body))
        self._need(_loads(body) - params - stored, callee.module, callee.name)
        body = _flat(_Fold(self.self_name, self.none_attrs).visit(s) for s in body)
        body = self._propagate(body, stored - params, stored | params)
        body = self._block(body, callee.name)
        fn.body = _fill(self._hoisted(body, set(_stores(body)) | params))
        return fn

    def _hoisted(self, body: list, local) -> list:
        """Bind every invariant chain read inside a loop once, up front."""
        order: dict[tuple, str] = {}

        def scan(node, in_loop):
            if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(node.ctx, ast.Load):
                chain = _chain(node)
                if chain and self.invariant(chain, local):
                    if in_loop:
                        skip = chain[0] == self.self_name
                        order.setdefault(chain, "h_" + "_".join(chain[skip:]))
                    return
            in_loop = in_loop or isinstance(node, (ast.For, ast.While))
            for child in ast.iter_child_nodes(node):
                scan(child, in_loop)

        for s in body:
            scan(s, False)
        if set(order.values()) & local or len(set(order.values())) < len(order):
            raise GenerateError(f"hoisted names clash: {sorted(order.values())}")
        hoist = _Hoist(order)
        body = [hoist.visit(s) for s in body]
        return [_assign(n, _attrs(c[0], c[1:])) for c, n in order.items()] + body


def _flat(items) -> list:
    return [s for i in items if i is not None for s in (i if isinstance(i, list) else [i])]


def _fill(stmts: list) -> list:
    """Give every block that folding emptied a ``pass``."""
    for node in (n for s in stmts for n in ast.walk(s)):
        if isinstance(getattr(node, "body", None), list) and not node.body:
            node.body = [ast.Pass()]
    return stmts
