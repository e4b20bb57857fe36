"""The on-disk checkpoint container: header line + compressed body.

A checkpoint file is::

    {"magic": "repro-ckpt", "version": 2, "sha256": "...", ...}\\n
    <zlib-compressed canonical JSON body>

The header is one uncompressed JSON line so ``inspect`` and ``verify``
never have to decompress anything to identify a file.  The body is the
machine state assembled by :mod:`repro.checkpoint.state`, serialized as
*canonical* JSON (sorted keys, compact separators) so the same machine
state always produces the same bytes -- the checkpoint hash (sha256 of
the compressed body, recorded in the header) is therefore a stable
identity for "this exact machine state under this exact engine", which
the result cache and manifests key on.

Versioning policy (see docs/CHECKPOINT.md): ``FORMAT_VERSION`` is bumped
on any incompatible layout change and old versions are *rejected*, never
migrated -- a checkpoint is a cache artefact, cheap to regenerate, and a
silent misread costs days of debugging.  Engine compatibility is
enforced separately by the state layer via the source fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path

MAGIC = "repro-ckpt"
FORMAT_VERSION = 2


class CheckpointError(Exception):
    """Base class for all checkpoint failures."""


class CheckpointFormatError(CheckpointError):
    """The file is not a checkpoint (bad magic, malformed header)."""


class CheckpointVersionError(CheckpointFormatError):
    """The file is a checkpoint of an unsupported format version."""


class CheckpointIntegrityError(CheckpointError):
    """The file is truncated or its body fails the integrity hash."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint cannot be restored here (engine/config mismatch)."""


def _canonical_body(body: dict) -> bytes:
    return json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode()


def write_checkpoint(path: str | Path, body: dict, meta: dict | None = None) -> str:
    """Write ``body`` (plus descriptive ``meta``) atomically; returns the
    checkpoint hash (sha256 of the compressed body)."""
    path = Path(path)
    payload = zlib.compress(_canonical_body(body), 6)
    digest = hashlib.sha256(payload).hexdigest()
    header = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "sha256": digest,
        "body_bytes": len(payload),
        "meta": meta or {},
    }
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with tmp.open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode())
        fh.write(b"\n")
        fh.write(payload)
    tmp.replace(path)  # atomic: a crash never leaves a half-written file
    return digest


def _read_raw(path: Path) -> tuple[dict, bytes]:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read {path}: {exc}") from None
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointFormatError(f"{path} has no checkpoint header line")
    try:
        header = json.loads(raw[:newline])
    except (ValueError, UnicodeDecodeError):
        raise CheckpointFormatError(f"{path} header is not JSON") from None
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise CheckpointFormatError(f"{path} is not a {MAGIC} file")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path} is checkpoint format version {header.get('version')!r}; "
            f"this engine reads only version {FORMAT_VERSION} "
            "(regenerate the checkpoint)"
        )
    return header, raw[newline + 1 :]


def read_meta(path: str | Path) -> dict:
    """The header (magic, version, hash, meta) without touching the body."""
    header, _ = _read_raw(Path(path))
    return header


def read_checkpoint(path: str | Path, verify: bool = True) -> tuple[dict, dict]:
    """Read and decode a checkpoint; returns ``(header, body)``.

    With ``verify`` (the default) the compressed body must match the
    header's sha256 exactly; truncated or corrupted files raise
    :class:`CheckpointIntegrityError` instead of yielding garbage state.
    """
    path = Path(path)
    header, payload = _read_raw(path)
    expected = header.get("body_bytes")
    if isinstance(expected, int) and len(payload) != expected:
        raise CheckpointIntegrityError(
            f"{path} body is {len(payload)} bytes, header promises "
            f"{expected} (truncated or concatenated file)"
        )
    if verify:
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("sha256"):
            raise CheckpointIntegrityError(
                f"{path} body hash {digest[:12]}... does not match header "
                f"{str(header.get('sha256'))[:12]}... (corrupted file)"
            )
    try:
        body = json.loads(zlib.decompress(payload))
    except (zlib.error, ValueError) as exc:
        raise CheckpointIntegrityError(
            f"{path} body does not decode: {exc}"
        ) from None
    if not isinstance(body, dict):
        raise CheckpointFormatError(f"{path} body is not an object")
    return header, body


def verify_checkpoint(path: str | Path) -> dict:
    """Full integrity check (header + hash + decode); returns the header."""
    header, _ = read_checkpoint(path, verify=True)
    return header
