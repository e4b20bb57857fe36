"""Per-layer metrics of a traced run.

Layer names are the ``src/repro`` packages.  Counts and times of the
simulator's own layers are *per round*: a round is one kernel pass, one
paper ``all`` run, one lap of 40 cold cells, or the serve-hot grid fill
-- so exact counts (cycles, instructions, steps) repeat run to run.

:data:`PER_LAYER` is what the result line of a ``--trace 1`` run
carries (and what ``BENCHMARK.json`` lists): every metric, on every
workload.  A workload that never reaches a layer (the kernel has no
service, the service no experiments) reports that layer's counts and
ratios as 0.  Times of those workload-specific layers are printed in
the traced run's table and written to ``layers.json`` instead, since a
time that reads 0 on every run is not a measurement.
"""

from __future__ import annotations

from benchmarks.e2e.paper import EXPERIMENTS
from repro.sim.config import MECHANISMS as MECHS

#: (name, unit, better) -- the per-layer result line, in order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("workloads.build_s", "s", "lower"),
    ("sim.construct_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.host_ns_per_cycle", "ns", "lower"),
    ("sim.kips", "kinstr/s", "higher"),
    *[(f"sim.{m}_kips", "kinstr/s", "higher") for m in MECHS],
    ("sim.cycles", "count", "lower"),
    ("sim.retired_user", "count", "higher"),
    ("sim.useful_fetch_frac", "ratio", "higher"),
    ("pipeline.steps", "count", "lower"),
    ("pipeline.ff_skip_frac", "ratio", "higher"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.ns_per_step", "ns", "lower"),
    ("memory.cache_calls", "count", "lower"),
    ("memory.cache_self_s", "s", "lower"),
    ("memory.tlb_calls", "count", "lower"),
    ("memory.tlb_self_s", "s", "lower"),
    ("memory.l1d_miss_rate", "ratio", "lower"),
    ("memory.dtlb_mpki", "1/kinstr", "lower"),
    ("branch.calls", "count", "lower"),
    ("branch.self_s", "s", "lower"),
    ("exceptions.hook_calls", "count", "lower"),
    ("exceptions.self_s", "s", "lower"),
    ("engine.fused_speedup", "ratio", "higher"),
    *[(f"experiments.{e}_pct", "%", "lower") for e in EXPERIMENTS],
    ("accuracy.fig5_trad_over_mt1", "ratio", "lower"),
    ("accuracy.fig7_mt1_reduction_pct", "%", "lower"),
    ("accuracy.table3_instant_recovery_pct", "%", "lower"),
    ("parallel.run_cells_calls", "count", "lower"),
    ("parallel.cells_per_call", "cells", "higher"),
    ("parallel.worker_util", "ratio", "higher"),
    ("parallel.cache_hits", "count", "higher"),
    ("parallel.cache_misses", "count", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.store_gets", "count", "lower"),
    ("serve.store_puts", "count", "lower"),
    ("serve.store_hit_rate", "ratio", "higher"),
    ("serve.worker_util", "ratio", "higher"),
    ("serve.batch_cells_mean", "cells", "higher"),
    ("serve.simulated_frac", "ratio", "higher"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(merged: dict, context: dict) -> tuple[dict, dict]:
    """``(line, table)``: the :data:`PER_LAYER` values, and every
    per-layer number including workload-specific times.

    ``context`` carries what the benchmark measured outside the trace:
    ``rounds``, ``workers``, and optional ``fused_speedup``,
    ``experiments`` (id -> seconds), ``wall_s``, ``accuracy``,
    ``server_life_s``, ``simulated_frac``, ``hot_fill_s``,
    ``first_cell_ms``."""
    totals = merged["totals"]
    counters = merged["counters"]
    rounds = context["rounds"] or 1

    def calls(*names):
        return sum(totals.get(n, [0, 0, 0])[0] for n in names)

    def total_s(*names):
        return sum(totals.get(n, [0, 0, 0])[1] for n in names) / 1e9

    def self_s(prefix):
        return sum(v[2] for n, v in totals.items() if n.startswith(prefix)) / 1e9

    def calls_like(prefix):
        return sum(v[0] for n, v in totals.items() if n.startswith(prefix))

    def count(key):
        return counters.get(key, 0)

    cycles = count("sim.cycles")
    retired = count("sim.retired_user")
    steps = calls("pipeline.step")
    sim_ns = sum(count(f"sim.{m}_ns") for m in MECHS)
    line: dict[str, float] = {
        "workloads.build_s": self_s("workloads.") / rounds,
        "sim.construct_s": self_s("sim.construct") / rounds,
        "sim.run_s": total_s("sim.run_to") / rounds,
        "sim.host_ns_per_cycle": _ratio(total_s("sim.run_to") * 1e9, cycles),
        "sim.kips": _ratio(retired, sim_ns) * 1e6,
        "sim.cycles": cycles / rounds,
        "sim.retired_user": retired / rounds,
        "sim.useful_fetch_frac": _ratio(
            retired + count("sim.retired_handler"), count("sim.fetched")
        ),
        "pipeline.steps": steps / rounds,
        "pipeline.ff_skip_frac": 1 - _ratio(steps, cycles) if cycles else 0.0,
        "pipeline.self_s": self_s("pipeline.") / rounds,
        "pipeline.ns_per_step": _ratio(total_s("pipeline.step") * 1e9, steps),
        "memory.cache_calls": calls("memory.cache_access") / rounds,
        "memory.cache_self_s": self_s("memory.cache") / rounds,
        "memory.tlb_calls": calls("memory.tlb_lookup") / rounds,
        "memory.tlb_self_s": self_s("memory.tlb") / rounds,
        "memory.l1d_miss_rate": _ratio(
            count("memory.l1d_misses"), count("memory.l1d_accesses")
        ),
        "memory.dtlb_mpki": _ratio(count("memory.dtlb_misses"), retired) * 1000,
        "branch.calls": calls_like("branch.") / rounds,
        "branch.self_s": self_s("branch.") / rounds,
        "exceptions.hook_calls": calls_like("exceptions.") / rounds,
        "exceptions.self_s": self_s("exceptions.") / rounds,
        "engine.fused_speedup": context.get("fused_speedup", 0.0),
    }
    for mech in MECHS:
        line[f"sim.{mech}_kips"] = (
            _ratio(count(f"sim.{mech}_retired"), count(f"sim.{mech}_ns")) * 1e6
        )

    experiments = context.get("experiments", {})
    wall = context.get("wall_s", 0.0)
    for exp in EXPERIMENTS:
        line[f"experiments.{exp}_pct"] = 100 * _ratio(experiments.get(exp, 0.0), wall)
    accuracy = context.get("accuracy", {})
    for key in (
        "accuracy.fig5_trad_over_mt1",
        "accuracy.fig7_mt1_reduction_pct",
        "accuracy.table3_instant_recovery_pct",
    ):
        line[key] = accuracy.get(key, 0.0)

    workers = context["workers"]
    run_cells_calls = calls("parallel.run_cells")
    batch_busy = total_s("parallel.run_cell_batch")
    run_cells_s = total_s("parallel.run_cells")
    line.update(
        {
            "parallel.run_cells_calls": run_cells_calls,
            "parallel.cells_per_call": _ratio(count("parallel.cells"), run_cells_calls),
            "parallel.worker_util": _ratio(batch_busy, run_cells_s * workers)
            if run_cells_calls
            else 0.0,
            "parallel.cache_hits": count("parallel.cache_hits"),
            "parallel.cache_misses": count("parallel.cache_gets")
            - count("parallel.cache_hits"),
        }
    )
    served = calls("serve.request") > 0
    life = context.get("server_life_s", 0.0)
    line.update(
        {
            "serve.requests": calls("serve.request"),
            "serve.store_gets": calls("serve.store_get"),
            "serve.store_puts": calls("serve.store_put"),
            "serve.store_hit_rate": _ratio(
                count("serve.store_hits"), count("serve.store_gets")
            ),
            "serve.worker_util": _ratio(batch_busy, life * workers) if served else 0.0,
            "serve.batch_cells_mean": _ratio(
                count("parallel.batch_cells"), count("parallel.batch_cells_calls")
            )
            if served
            else 0.0,
            "serve.simulated_frac": context.get("simulated_frac", 0.0),
        }
    )

    parent_sim = sum(
        info["totals"].get("sim.run_to", [0, 0, 0])[1]
        for info in merged["by_pid"].values()
        if info["proc"]["role"] == "main"
    ) / 1e9
    table = dict(line)
    table.update(
        {
            **{f"experiments.{e}_s": experiments.get(e, 0.0) for e in experiments},
            "parallel.run_cells_s": run_cells_s,
            "parallel.worker_busy_s": batch_busy,
            "parallel.parent_sim_s": parent_sim,
            "parallel.cache_get_s": total_s("parallel.cache_get"),
            "parallel.cache_put_s": total_s("parallel.cache_put"),
            "serve.expand_s": total_s("serve.expand"),
            "serve.store_get_s": total_s("serve.store_get"),
            "serve.store_put_s": total_s("serve.store_put"),
            "serve.cell_line_s": total_s("serve.cell_line"),
            "serve.hot_fill_s": context.get("hot_fill_s", 0.0),
            "client.first_cell_ms": context.get("first_cell_ms", 0.0),
        }
    )
    return line, table


def where_time_goes(merged: dict) -> list[tuple[str, int, float, float, float]]:
    """Rows ``(span name, calls, inclusive s, self s, self share)`` over
    every traced process, largest self time first.  Self times of all
    spans add up to the traced time, so the shares add up to 1."""
    totals = merged["totals"]
    traced = sum(v[2] for v in totals.values()) or 1
    rows = [
        (name, v[0], v[1] / 1e9, v[2] / 1e9, v[2] / traced)
        for name, v in totals.items()
        if v[2]
    ]
    return sorted(rows, key=lambda row: -row[3])
