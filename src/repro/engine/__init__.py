"""Selectable cycle kernels (``REPRO_ENGINE``).

The engine registry maps a kernel name to the ``SMTCore`` class a
:class:`~repro.sim.simulator.Simulator` is built with; every cell runs
one simulator either way (:func:`repro.sim.parallel.run_cell`):

``reference``
    The unmodified :class:`~repro.pipeline.core.SMTCore` kernel.  The
    default, and the oracle the fused kernel is differentially verified
    against (``repro-fuzz --engine-diff``, ``repro-scenarios``).
``batched``
    :class:`~repro.engine.core.BatchedSMTCore`, whose dispatch-fused
    cycle loop is a line-for-line transcription of the reference stages;
    bit-identical results.  Its speed relative to the reference kernel
    is the ``engine.fused_speedup`` metric of the end-to-end benchmark
    (``benchmarks/e2e/README.md``).

Select a kernel per process with ``REPRO_ENGINE=reference|batched``
(experiment CLIs expose it as ``--engine``); the choice propagates to
pool workers and is part of every result-cache key, so results from
different kernels can never be served for one another.
"""

from __future__ import annotations

import os

from repro.engine.core import BatchedSMTCore

__all__ = [
    "BatchedSMTCore",
    "ENGINES",
    "core_class",
    "resolve_engine",
]

#: Kernel name -> ``SMTCore`` subclass (``None`` = the reference kernel).
_REGISTRY = {
    "reference": None,
    "batched": BatchedSMTCore,
}

#: Registered kernel names, reference first.
ENGINES = tuple(_REGISTRY)

DEFAULT_ENGINE = "reference"


def resolve_engine(name: str | None = None) -> str:
    """Normalize an engine selection: explicit ``name`` wins, else
    ``REPRO_ENGINE``, else the reference kernel.  Unknown names raise
    :class:`ValueError` here, at configuration time."""
    if name is None or name == "":
        name = os.environ.get("REPRO_ENGINE", "").strip() or DEFAULT_ENGINE
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
