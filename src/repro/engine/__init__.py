"""Selectable cycle kernels (``REPRO_ENGINE``).

The engine registry maps a kernel name to the ``SMTCore`` class a
:class:`~repro.sim.simulator.Simulator` is built with; every cell runs
one simulator either way (:func:`repro.sim.parallel.run_cell`):

``fused``
    :class:`~repro.engine.core.FusedSMTCore`, whose cycle loop is
    generated from the reference stages (:mod:`repro.engine.generate`);
    bit-identical results.  The default for every cell run through
    ``run_cell`` (the experiments, the pool runner, the sweep service).
    Its speed relative to the reference kernel is the
    ``engine.fused_speedup`` metric of the end-to-end benchmark
    (``benchmarks/e2e/README.md``) and the ``BENCH_engine.json`` ledger.
``reference``
    The unmodified :class:`~repro.pipeline.core.SMTCore` kernel: the
    oracle the fused kernel is differentially verified against
    (``repro-fuzz --engine-diff``, ``repro-scenarios``), the path bus
    listeners run on, and what ``Simulator(program, config)`` builds
    when no ``core_cls`` is given.

``REPRO_ENGINE=fused|reference`` selects the kernel of every
:class:`~repro.sim.parallel.CellSpec` made in the process; the spec
carries it from then on (into pool workers, manifests and its
result-cache key), so results from different kernels can never be
served for one another.
"""

from __future__ import annotations

import os

from repro.engine.core import FusedSMTCore

__all__ = [
    "ENGINES",
    "FusedSMTCore",
    "core_class",
    "resolve_engine",
]

#: Kernel name -> ``SMTCore`` subclass (``None`` = the reference kernel).
_REGISTRY = {
    "reference": None,
    "fused": FusedSMTCore,
}

#: Registered kernel names, reference first.
ENGINES = tuple(_REGISTRY)

DEFAULT_ENGINE = "fused"

#: Old name of the fused kernel.  Only the end-to-end benchmark's
#: ``fused_speedup`` (``benchmarks/e2e/kernel.py``) still asks for the
#: kernel by it; the benchmark change that moves the tracer into
#: ``repro.obs`` renames that call and deletes this alias.  Resolving
#: it yields ``"fused"``, so cache keys and manifests never record the
#: old name.
_ALIASES = {"batched": "fused"}


def resolve_engine(name: str | None = None) -> str:
    """Normalize an engine selection: explicit ``name`` wins, else
    ``REPRO_ENGINE``, else the fused kernel.  Unknown names raise
    :class:`ValueError` here, at configuration time."""
    if name is None or name == "":
        name = os.environ.get("REPRO_ENGINE", "").strip() or DEFAULT_ENGINE
    name = _ALIASES.get(name, name)
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown engine {name!r}; pick one of {ENGINES}"
        )
    return name


def core_class(name: str | None = None):
    """The ``SMTCore`` subclass to build a
    :class:`~repro.sim.simulator.Simulator` with for the selected kernel
    (resolved per :func:`resolve_engine`), or ``None`` for the reference
    kernel."""
    return _REGISTRY[resolve_engine(name)]
