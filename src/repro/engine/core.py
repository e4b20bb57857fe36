"""A dispatch-fused :class:`SMTCore`: the ``fused`` kernel.

:class:`FusedSMTCore` is the kernel a cell runs on by default
(``REPRO_ENGINE=fused``, see :mod:`repro.engine`).  It is the reference
:class:`repro.pipeline.core.SMTCore`, built from the same code: its
:meth:`run_to` and :meth:`squash_from` are generated from the reference
stage methods by :mod:`repro.engine.generate`, one loop with the calls
inlined and the loop invariants hoisted, so they cannot drift from the
stages.  The equivalence tests (``tests/engine``), ``repro-fuzz
--engine-diff`` and the scenario matrix hold both kernels to identical
digests and ``SimStats``.

The first fused ``run_to`` in a process loads the kernel (never an
import).  :func:`kernel` caches the compiled code in this package's
``__pycache__``, one file per function, keyed like a ``.pyc`` on the
sha256 of the generator's inputs and ``sys.version``: a missing, stale
or corrupt entry is regenerated, and an unwritable directory only costs
the cache.  The text is registered with :mod:`linecache`, so tracebacks
through the loop show source lines.

With an observability bus attached the core runs the reference stages
(the generated code assumes ``listeners is None``), and ``step()`` is
always the reference one.  The cyclic collector is paused during the
fused loop: uops allocate in bursts, and collection has no simulated
state, so deferring it cannot change results.
"""

from __future__ import annotations

import builtins
import contextlib
import gc
import hashlib
import importlib
import linecache
import marshal
import os
import sys
import types

from repro.pipeline.core import SMTCore

__all__ = ["FusedSMTCore", "kernel"]

_HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(_HERE, "__pycache__")

#: The generated functions, once the first fused run has loaded them.
_KERNEL: dict | None = None


def _kernel() -> dict:
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = kernel()
    return _KERNEL


class FusedSMTCore(SMTCore):
    """Reference core whose cycle loop is generated, call overhead fused away."""

    def squash_from(self, thread, boundary_seq, now):
        if self.listeners is not None:
            return SMTCore.squash_from(self, thread, boundary_seq, now)
        return (_KERNEL or _kernel())["squash_from"](self, thread, boundary_seq, now)

    def run_to(self, watch, stop_cycle):
        if self.listeners is not None:
            return SMTCore.run_to(self, watch, stop_cycle)
        run_to = (_KERNEL or _kernel())["run_to"]
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return run_to(self, watch, stop_cycle)
        finally:
            if gc_was_enabled:
                gc.enable()


def kernel(cache_dir: str = CACHE_DIR) -> dict:
    """The generated ``run_to`` and ``squash_from``, read from
    ``cache_dir`` or generated and written there."""
    out = {}
    for name in ("run_to", "squash_from"):
        path = os.path.join(cache_dir, f"fused.{name}.kernel")
        entry = _load(path)
        if entry is None:
            from repro.engine.generate import generate

            text, needed, modules = generate(name)
            code = compile(text, f"<fused {name}>", "exec")
            entry = (_digest(modules), modules, text, needed, code)
            _store(path, entry)
        out[name] = _link(name, *entry[2:])
    return out


def _digest(modules) -> str:
    """sha256 of the interpreter, the generator and its source modules."""
    h = hashlib.sha256(sys.version.encode())
    paths = [os.path.join(_HERE, "generate.py")]
    paths += [importlib.import_module(m).__file__ for m in modules]
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _load(path: str):
    try:
        with open(path, "rb") as f:
            entry = marshal.load(f)
        digest, modules = entry[:2]
        if digest == _digest(modules) and isinstance(entry[4], types.CodeType):
            return entry
    except (OSError, EOFError, ValueError, TypeError, LookupError, ImportError, AttributeError):
        pass  # missing, unreadable or corrupt: regenerate
    return None


def _store(path: str, entry) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "wb") as f:
            marshal.dump(entry, f)
        os.replace(tmp, path)
    except OSError:  # unwritable: run uncached
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _link(name: str, text: str, needed: dict, code):
    filename = f"<fused {name}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    namespace = {"__builtins__": builtins, "__name__": __name__}
    for n, module in needed.items():
        namespace[n] = getattr(importlib.import_module(module), n)
    exec(code, namespace)
    return namespace[name]
