"""The benchmark registry (the paper's Table 2 suite).

Maps benchmark names (and the paper's three-letter abbreviations) to
builder functions, and provides the Figure 7 three-benchmark SMT mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.program import Program
from repro.workloads import (
    alphadoom,
    applu,
    compress,
    deltablue,
    gcc,
    hydro2d,
    murphi,
    vortex,
)
from repro.workloads.builder import DEFAULT_BASE, SLICE_STRIDE


@dataclass(frozen=True)
class BenchmarkSpec:
    """One entry of the suite."""

    name: str
    abbrev: str
    build: Callable[[int], Program]
    description: str


BENCHMARKS: dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        BenchmarkSpec(
            "alphadoom", "adm", alphadoom.build,
            "X-windows first-person shooter (column rendering)",
        ),
        BenchmarkSpec(
            "applu", "apl", applu.build,
            "parabolic/elliptic PDE solver (SpecFP 95)",
        ),
        BenchmarkSpec(
            "compress", "cmp", compress.build,
            "adaptive Lempel-Ziv text compression (SpecInt 95)",
        ),
        BenchmarkSpec(
            "deltablue", "dbl", deltablue.build,
            "object-oriented incremental dataflow constraint solver",
        ),
        BenchmarkSpec(
            "gcc", "gcc", gcc.build,
            "GNU optimizing C compiler (SpecInt 95)",
        ),
        BenchmarkSpec(
            "hydro2d", "h2d", hydro2d.build,
            "astrophysical Navier-Stokes solver (SpecFP 95)",
        ),
        BenchmarkSpec(
            "murphi", "mph", murphi.build,
            "finite state space exploration for verification",
        ),
        BenchmarkSpec(
            "vortex", "vor", vortex.build,
            "single-user object-oriented transactional database (SpecInt 95)",
        ),
    )
}

BENCHMARK_NAMES = tuple(BENCHMARKS)

_BY_ABBREV = {spec.abbrev: spec for spec in BENCHMARKS.values()}

#: The eight three-application SMT mixes of Figure 7.
FIG7_MIXES: tuple[tuple[str, str, str], ...] = (
    ("adm", "gcc", "vor"),
    ("apl", "cmp", "h2d"),
    ("apl", "dbl", "vor"),
    ("dbl", "gcc", "h2d"),
    ("adm", "cmp", "vor"),
    ("adm", "h2d", "mph"),
    ("apl", "dbl", "mph"),
    ("cmp", "gcc", "mph"),
)


def build_benchmark(name: str, base: int = DEFAULT_BASE) -> Program:
    """Build a benchmark by full name or paper abbreviation."""
    spec = BENCHMARKS.get(name) or _BY_ABBREV.get(name)
    if spec is None:
        raise KeyError(
            f"unknown benchmark {name!r}; choices: {sorted(BENCHMARKS)} "
            f"or abbreviations {sorted(_BY_ABBREV)}"
        )
    return spec.build(base)


def build_mix(names: tuple[str, ...] | list[str]) -> list[Program]:
    """Build an SMT mix: each program in its own address-space slice."""
    return [
        build_benchmark(name, DEFAULT_BASE + i * SLICE_STRIDE)
        for i, name in enumerate(names)
    ]


def build_workload(
    name_or_names: str | tuple[str, ...] | list[str],
) -> Program | list[Program]:
    """Build a workload: one benchmark by name, or a mix of several."""
    if isinstance(name_or_names, str):
        return build_benchmark(name_or_names)
    return build_mix(tuple(name_or_names))
