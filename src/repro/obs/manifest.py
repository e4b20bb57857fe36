"""Per-run manifests: what ran, under what, and what it counted.

A manifest is a small JSON document that makes a finished simulation
auditable without re-running it: the exact machine configuration (and a
short hash of it for quick comparison), the engine source fingerprint,
every counter the run produced, and -- when cycle attribution was on --
the Table-3 category breakdown.

Manifests are written next to cached results by
:class:`repro.sim.parallel.ResultCache`, embedded in Chrome traces by
``python -m repro.obs``, and schema-checked in CI by
:func:`validate_manifest`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.attribution import AttributionTable
    from repro.sim.config import MachineConfig
    from repro.sim.simulator import SimResult

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1

#: Top-level keys every manifest must carry.
_REQUIRED_KEYS = (
    "schema",
    "kind",
    "engine",
    "engine_backend",
    "config_hash",
    "config",
    "mechanism",
    "cycles",
    "counters",
    "checkpoint",
)


def config_hash(config: "MachineConfig") -> str:
    """Short stable digest of a machine configuration."""
    token = repr(sorted(dataclasses.asdict(config).items()))
    return hashlib.sha256(token.encode()).hexdigest()[:16]


def build_manifest(
    result: "SimResult",
    config: "MachineConfig",
    attribution: "AttributionTable | None" = None,
    workload: str | tuple[str, ...] | None = None,
    checkpoint: dict | None = None,
    cache_stats: dict | None = None,
    node: dict | None = None,
    engine_backend: str | None = None,
) -> dict:
    """Assemble the manifest for one finished run.

    ``engine_backend`` names the kernel the run used (the result cache
    passes its cell's ``CellSpec.engine``); ``None`` records the
    resolved ``REPRO_ENGINE``."""
    # Local import: repro.sim.parallel imports the simulator stack, which
    # imports this package via the pipeline core.
    from repro.engine import resolve_engine
    from repro.sim.parallel import engine_fingerprint

    counters = {
        "sim": result.stats.as_dict(),
        "mech": dataclasses.asdict(result.mech) if result.mech else None,
        "tlb": dataclasses.asdict(result.tlb),
        "branch": dataclasses.asdict(result.branch),
        "l1d": dataclasses.asdict(result.l1d),
        "l2": dataclasses.asdict(result.l2),
    }
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "kind": "repro-run-manifest",
        "engine": engine_fingerprint(),
        # Which backend's cycle kernel produced the run (bit-identical
        # by contract, recorded so every result stays traceable).
        "engine_backend": engine_backend or resolve_engine(),
        "config_hash": config_hash(config),
        "config": dataclasses.asdict(config),
        "mechanism": result.mechanism,
        "workload": list(workload) if isinstance(workload, tuple) else workload,
        "cycles": result.cycles,
        "retired_user": result.retired_user,
        "committed_fills": result.committed_fills,
        "ipc": result.ipc,
        "counters": counters,
        # Checkpoint lineage: the warm/exact snapshot this run started
        # from ({"hash", "kind", "warmup_insts"}), or null for cold runs.
        "checkpoint": (
            checkpoint
            if checkpoint is not None
            else getattr(result, "checkpoint", None)
        ),
    }
    if attribution is not None:
        manifest["attribution"] = {
            **attribution.as_dict(),
            "per_miss": attribution.per_miss(result.committed_fills),
        }
    if cache_stats is not None:
        # Result-store counters at publish time (hits/misses/evictions/
        # in-flight dedupes), written by the content-addressed store the
        # sweep service runs on (docs/SERVICE.md).
        manifest["cache"] = dict(cache_stats)
    if node is not None:
        # Which cluster node published this result, and its routing
        # counters at publish time (docs/SERVICE.md "Cluster mode");
        # absent on single-host runs.
        manifest["node"] = dict(node)
    return manifest


def validate_manifest(manifest: dict) -> list[str]:
    """Schema-check a manifest; returns a list of problems."""
    errors: list[str] = []
    if not isinstance(manifest, dict):
        return ["manifest is not an object"]
    for key in _REQUIRED_KEYS:
        if key not in manifest:
            errors.append(f"missing key {key!r}")
    if manifest.get("kind") != "repro-run-manifest":
        errors.append(f"bad kind {manifest.get('kind')!r}")
    if manifest.get("schema") != MANIFEST_SCHEMA:
        errors.append(f"unknown schema {manifest.get('schema')!r}")
    counters = manifest.get("counters")
    if not isinstance(counters, dict) or "sim" not in counters:
        errors.append("counters.sim missing")
    elif not isinstance(counters["sim"], dict):
        errors.append("counters.sim is not an object")
    cycles = manifest.get("cycles")
    if not isinstance(cycles, int) or cycles < 0:
        errors.append(f"bad cycles {cycles!r}")
    lineage = manifest.get("checkpoint")
    if lineage is not None:
        if not isinstance(lineage, dict) or not isinstance(
            lineage.get("hash"), str
        ):
            errors.append("checkpoint lineage must be null or carry a hash")
    cache_stats = manifest.get("cache")
    if cache_stats is not None:
        if not isinstance(cache_stats, dict):
            errors.append("cache stats must be an object")
        else:
            for key, value in cache_stats.items():
                if not isinstance(value, int) or value < 0:
                    errors.append(
                        f"cache stat {key!r} must be a non-negative "
                        f"integer, got {value!r}"
                    )
    node = manifest.get("node")
    if node is not None:
        if not isinstance(node, dict) or not isinstance(
            node.get("node_id"), str
        ):
            errors.append("node block must carry a string node_id")
        else:
            for key, value in node.items():
                if key == "node_id":
                    continue
                if not isinstance(value, int) or value < 0:
                    errors.append(
                        f"node stat {key!r} must be a non-negative "
                        f"integer, got {value!r}"
                    )
    attribution = manifest.get("attribution")
    if attribution is not None:
        table = attribution.get("cycles")
        if not isinstance(table, dict):
            errors.append("attribution.cycles is not an object")
        elif sum(table.values()) != attribution.get("total_cycles"):
            errors.append("attribution categories do not sum to total_cycles")
    return errors


def write_manifest(path_or_file: str | IO[str], manifest: dict) -> None:
    """Serialize a manifest as JSON to a path or open file."""
    if hasattr(path_or_file, "write"):
        json.dump(manifest, path_or_file, indent=2)
    else:
        with open(path_or_file, "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
