"""Warmup-shared checkpoints: one warmup, many mechanisms.

The paper's per-mechanism comparisons (Figure 5 and friends) all run the
same workload under the same machine, varying only the exception
mechanism.  Warming each cell separately repeats identical work N times
*and* lets each mechanism warm its own TLB, conflating warmup behaviour
with measured behaviour.  A *warm checkpoint* fixes both: the workload
is warmed once under the traditional mechanism, the machine is quiesced
(every in-flight instruction squashed, only architectural state --
memory, caches, TLB, predictors, register files, counters -- remains),
and the snapshot is saved.  Any mechanism then attaches to the restored
warm machine and measures from an identical starting state.

Checkpoints live in ``REPRO_CKPT_DIR`` (default
``~/.cache/repro-ckpt``), keyed by workload, warmup length, the
mechanism-independent machine configuration, and the engine source
fingerprint -- a code change can never serve a stale warm state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from pathlib import Path

from repro.checkpoint.format import CheckpointError, verify_checkpoint
from repro.checkpoint.state import (
    restore_simulator_checkpoint,
    save_simulator_checkpoint,
)
from repro.sim.config import MachineConfig, config_token


def checkpoint_dir() -> Path:
    """The checkpoint directory, validated like ``REPRO_JOBS``.

    ``REPRO_CKPT_DIR`` must name a usable directory (created if absent);
    anything else -- an existing non-directory, an uncreatable or
    unwritable path -- raises :class:`ValueError` here, at configuration
    time, instead of failing deep inside a sweep.
    """
    raw = os.environ.get("REPRO_CKPT_DIR", "").strip()
    if not raw:
        path = Path.home() / ".cache" / "repro-ckpt"
    else:
        path = Path(raw).expanduser()
        if path.exists() and not path.is_dir():
            raise ValueError(
                f"REPRO_CKPT_DIR must name a directory, got non-directory {raw!r}"
            )
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(
            f"REPRO_CKPT_DIR {raw!r} is not a usable directory: {exc}"
        ) from None
    if not os.access(path, os.W_OK):
        raise ValueError(f"REPRO_CKPT_DIR {raw!r} is not writable")
    return path


def warm_config(config: MachineConfig) -> MachineConfig:
    """The donor configuration a warm checkpoint is produced under."""
    return dataclasses.replace(config, mechanism="traditional", sanitize=False)


def warm_token(
    workload: str | tuple[str, ...], warmup_insts: int, config: MachineConfig
) -> str:
    """Stable identity of a warm state, shared by every mechanism."""
    from repro.sim.parallel import engine_fingerprint

    token = repr((workload, warmup_insts, config_token(warm_config(config))))
    return hashlib.sha256(
        f"{engine_fingerprint()}|{token}".encode()
    ).hexdigest()[:40]


def warm_checkpoint_path(
    workload: str | tuple[str, ...],
    warmup_insts: int,
    config: MachineConfig,
    directory: Path | None = None,
) -> Path:
    if directory is None:
        directory = checkpoint_dir()
    return directory / f"warm-{warm_token(workload, warmup_insts, config)}.ckpt"


def ensure_warm_checkpoint(
    workload: str | tuple[str, ...],
    warmup_insts: int,
    config: MachineConfig,
    max_cycles: int = 10_000_000,
    directory: Path | None = None,
) -> tuple[Path, str]:
    """Produce (or reuse) the warm checkpoint for a sweep cell family.

    Returns ``(path, checkpoint_hash)``.  An existing file is reused
    only if it verifies and was written by these exact engine sources;
    anything stale or corrupt is rebuilt in place.
    """
    from repro.sim.parallel import engine_fingerprint
    from repro.sim.simulator import Simulator
    from repro.workloads.suite import build_workload

    path = warm_checkpoint_path(workload, warmup_insts, config, directory)
    if path.exists():
        try:
            header = verify_checkpoint(path)
            if header["meta"].get("engine") == engine_fingerprint():
                return path, header["sha256"]
        except CheckpointError:
            pass  # fall through and rebuild
    sim = Simulator(build_workload(workload), warm_config(config))
    sim.core.run(warmup_insts, max_cycles)
    sim.quiesce()
    digest = save_simulator_checkpoint(
        sim,
        path,
        kind="warm",
        extra_meta={
            "workload": list(workload)
            if isinstance(workload, tuple)
            else workload,
            "warmup_insts": warmup_insts,
        },
    )
    return path, digest


def attach_warm(sim, path: str | Path) -> dict:
    """Restore a warm checkpoint under whatever mechanism ``sim`` has.

    Returns the checkpoint header; the simulator's ``checkpoint_lineage``
    records the hash for results and manifests.
    """
    return restore_simulator_checkpoint(sim, path, warm=True)
