"""``repro-ckpt`` / ``python -m repro.checkpoint``: checkpoint tooling.

Subcommands:

* ``save``     -- warm up a workload, quiesce, write a warm checkpoint
* ``inspect``  -- print a checkpoint's header (no decompression)
* ``verify``   -- full integrity check (magic, version, hash, decode)
* ``restore``  -- rebuild a machine from a checkpoint and run it
* ``run``      -- run a workload with periodic autosaves (crash-safe)
* ``resume``   -- continue an interrupted ``run`` from its autosave

``restore``/``resume`` rebuild the simulator from the checkpoint's own
metadata (workload name and full machine configuration), so the only
inputs they need are the file and, for warm restores, the mechanism to
attach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.checkpoint.autosave import run_with_autosave
from repro.checkpoint.format import (
    CheckpointError,
    read_checkpoint,
    read_meta,
    verify_checkpoint,
)
from repro.checkpoint.state import machine_config_from_dict
from repro.checkpoint.warm import attach_warm, ensure_warm_checkpoint
from repro.sim.config import MECHANISMS, MachineConfig
from repro.workloads.suite import build_workload


def _parse_workload(raw: str) -> str | tuple[str, ...]:
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not names:
        raise SystemExit(f"empty workload spec {raw!r}")
    return names[0] if len(names) == 1 else names


def _print_result(result, as_json: bool) -> None:
    summary = {
        "cycles": result.cycles,
        "retired_user": result.retired_user,
        "committed_fills": result.committed_fills,
        "ipc": result.ipc,
        "mechanism": result.mechanism,
        "checkpoint": result.checkpoint,
    }
    if as_json:
        json.dump(summary, sys.stdout)
        sys.stdout.write("\n")
    else:
        for key, value in summary.items():
            print(f"{key:>16}: {value}")


def _rebuild_sim(body: dict, mechanism: str | None):
    """Construct a fresh simulator matching a checkpoint's config."""
    from repro.sim.simulator import Simulator

    meta_config = machine_config_from_dict(body["config"])
    if mechanism is not None:
        import dataclasses

        meta_config = dataclasses.replace(meta_config, mechanism=mechanism)
    # Simulator recomputes num_threads from programs + idle_threads; pass
    # the saved idle_threads through and let it re-derive the same total.
    return Simulator(build_workload(_saved_workload(body)), meta_config)


def _saved_workload(body_or_meta: dict) -> str | tuple[str, ...]:
    workload = body_or_meta.get("workload")
    if workload is None:
        raise SystemExit(
            "checkpoint does not record its workload; cannot rebuild the "
            "simulator (was it saved by Simulator.save_checkpoint directly?)"
        )
    return tuple(workload) if isinstance(workload, list) else workload


def _cmd_save(args) -> int:
    workload = _parse_workload(args.workload)
    config = MachineConfig(mechanism="traditional")
    path, digest = ensure_warm_checkpoint(
        workload, args.warmup, config, max_cycles=args.max_cycles,
    )
    if args.out is not None:
        # An explicit output path gets a copy under that name.
        import shutil

        shutil.copyfile(path, args.out)
        path = args.out
    print(f"{digest}  {path}")
    return 0


def _cmd_inspect(args) -> int:
    try:
        header = read_meta(args.path)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    json.dump(header, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_verify(args) -> int:
    try:
        header = verify_checkpoint(args.path)
    except CheckpointError as exc:
        print(f"FAIL {args.path}: {exc}", file=sys.stderr)
        return 2
    meta = header.get("meta", {})
    print(
        f"OK {args.path}: kind={meta.get('kind')} "
        f"cycle={meta.get('cycle')} sha256={header['sha256'][:16]}..."
    )
    return 0


def _cmd_restore(args) -> int:
    try:
        header, body = read_checkpoint(args.path)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = header.get("meta", {})
    body.setdefault("workload", meta.get("workload"))
    warm = meta.get("kind") == "warm"
    sim = _rebuild_sim(body, args.mechanism if warm else None)
    if warm:
        attach_warm(sim, args.path)
    else:
        from repro.checkpoint.state import restore_simulator_checkpoint

        restore_simulator_checkpoint(sim, args.path)
    if args.user_insts:
        result = sim.run(args.user_insts, args.max_cycles, warmup_insts=0)
        _print_result(result, args.json)
    else:
        print(f"restored {args.path} at cycle {sim.core.cycle}")
    return 0


def _cmd_run(args) -> int:
    from repro.sim.simulator import Simulator

    workload = _parse_workload(args.workload)
    config = MachineConfig(mechanism=args.mechanism)
    sim = Simulator(build_workload(workload), config)
    saves = 0

    def _on_autosave(cycle: int) -> None:
        nonlocal saves
        saves += 1
        if args.die_after and saves >= args.die_after:
            # Crash injection for the resume CI job: die the way a
            # SIGKILL would, with no cleanup and no final save.
            os._exit(3)

    result = run_with_autosave(
        sim,
        args.out,
        user_insts=args.user_insts,
        warmup_insts=args.warmup,
        max_cycles=args.max_cycles,
        autosave_every=args.autosave_every,
        resume=not args.fresh,
        on_autosave=_on_autosave,
        workload=workload,
    )
    _print_result(result, args.json)
    return 0


def _cmd_resume(args) -> int:
    try:
        header, body = read_checkpoint(args.path)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = header.get("meta", {})
    if meta.get("kind") != "autosave" or "run" not in meta:
        print(f"error: {args.path} is not an autosave checkpoint", file=sys.stderr)
        return 2
    body.setdefault("workload", meta.get("workload"))
    sim = _rebuild_sim(body, None)
    # Keep recording the workload: a resumed run that is itself
    # interrupted must stay resumable.
    result = run_with_autosave(sim, args.path, workload=_saved_workload(body))
    _print_result(result, args.json)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-ckpt",
        description="Save, verify, restore, and resume simulator checkpoints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_save = sub.add_parser("save", help="write a warm checkpoint")
    p_save.add_argument("--workload", required=True)
    p_save.add_argument("--warmup", type=int, default=3_000)
    p_save.add_argument("--max-cycles", type=int, default=10_000_000)
    p_save.add_argument("--out", default=None, help="copy to this path too")
    p_save.set_defaults(func=_cmd_save)

    p_inspect = sub.add_parser("inspect", help="print the header")
    p_inspect.add_argument("path")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_verify = sub.add_parser("verify", help="full integrity check")
    p_verify.add_argument("path")
    p_verify.set_defaults(func=_cmd_verify)

    p_restore = sub.add_parser("restore", help="rebuild a machine and run it")
    p_restore.add_argument("path")
    p_restore.add_argument("--mechanism", choices=MECHANISMS, default=None)
    p_restore.add_argument("--user-insts", type=int, default=0)
    p_restore.add_argument("--max-cycles", type=int, default=10_000_000)
    p_restore.add_argument("--json", action="store_true")
    p_restore.set_defaults(func=_cmd_restore)

    p_run = sub.add_parser("run", help="run with periodic autosaves")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--mechanism", choices=MECHANISMS, default="multithreaded")
    p_run.add_argument("--user-insts", type=int, default=20_000)
    p_run.add_argument("--warmup", type=int, default=3_000)
    p_run.add_argument("--max-cycles", type=int, default=10_000_000)
    p_run.add_argument("--autosave-every", type=int, default=100_000)
    p_run.add_argument("--out", required=True, help="autosave checkpoint path")
    p_run.add_argument("--fresh", action="store_true",
                       help="ignore an existing autosave at --out")
    p_run.add_argument("--die-after", type=int, default=0,
                       help="crash (exit 3) after N autosaves (CI resume test)")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_resume = sub.add_parser("resume", help="continue an interrupted run")
    p_resume.add_argument("path")
    p_resume.add_argument("--json", action="store_true")
    p_resume.set_defaults(func=_cmd_resume)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
