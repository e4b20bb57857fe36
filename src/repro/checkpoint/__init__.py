"""repro.checkpoint: deterministic snapshot/restore for the simulator.

Three layers:

* :mod:`repro.checkpoint.format` -- the on-disk container (versioned,
  integrity-hashed header + compressed canonical-JSON body).
* :mod:`repro.checkpoint.state` -- capture/restore of complete machine
  state by one walk over every field of each state object, minus the
  fields its class declares in ``_SNAPSHOT_TRANSIENT`` (no pickling of
  live objects, no per-class snapshot code).
* :mod:`repro.checkpoint.warm` / :mod:`repro.checkpoint.autosave` --
  the two workflows built on top: warmup-shared checkpoints for
  per-mechanism sweeps, and periodic autosave + crash resume for long
  runs.

The headline invariant, enforced by ``tests/checkpoint/``: restore-
then-run is bit-identical to straight-through for every mechanism.
"""

from repro.checkpoint.autosave import run_with_autosave
from repro.checkpoint.format import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    CheckpointFormatError,
    CheckpointIntegrityError,
    CheckpointMismatchError,
    CheckpointVersionError,
    read_checkpoint,
    read_meta,
    verify_checkpoint,
    write_checkpoint,
)
from repro.checkpoint.state import (
    SnapshotContext,
    SnapshotError,
    capture_machine,
    machine_config_from_dict,
    restore_machine,
    restore_simulator_checkpoint,
    save_simulator_checkpoint,
)
from repro.checkpoint.warm import (
    attach_warm,
    checkpoint_dir,
    ensure_warm_checkpoint,
    warm_checkpoint_path,
    warm_config,
    warm_token,
)

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointVersionError",
    "CheckpointIntegrityError",
    "CheckpointMismatchError",
    "read_checkpoint",
    "read_meta",
    "verify_checkpoint",
    "write_checkpoint",
    "SnapshotContext",
    "SnapshotError",
    "capture_machine",
    "restore_machine",
    "machine_config_from_dict",
    "save_simulator_checkpoint",
    "restore_simulator_checkpoint",
    "run_with_autosave",
    "attach_warm",
    "checkpoint_dir",
    "ensure_warm_checkpoint",
    "warm_checkpoint_path",
    "warm_config",
    "warm_token",
]
