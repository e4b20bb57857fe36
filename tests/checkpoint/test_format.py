"""The on-disk container: round-trips, integrity, version policy."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.checkpoint.format import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointFormatError,
    CheckpointIntegrityError,
    CheckpointVersionError,
    read_checkpoint,
    read_meta,
    verify_checkpoint,
    write_checkpoint,
)


BODY = {"cycle": 42, "memory": {"pages": [[0, "abcd"]]}, "z": None}


def test_round_trip(tmp_path):
    path = tmp_path / "a.ckpt"
    digest = write_checkpoint(path, BODY, meta={"kind": "test"})
    header, body = read_checkpoint(path)
    assert header["magic"] == MAGIC
    assert header["version"] == FORMAT_VERSION
    assert header["sha256"] == digest
    assert header["meta"] == {"kind": "test"}
    assert body == BODY


def test_hash_is_stable_identity(tmp_path):
    """The same body always produces the same checkpoint hash."""
    d1 = write_checkpoint(tmp_path / "a.ckpt", BODY)
    d2 = write_checkpoint(tmp_path / "b.ckpt", dict(reversed(BODY.items())))
    d3 = write_checkpoint(tmp_path / "c.ckpt", {**BODY, "cycle": 43})
    assert d1 == d2  # canonical JSON: key order cannot matter
    assert d1 != d3


def test_read_meta_does_not_decompress(tmp_path):
    path = tmp_path / "a.ckpt"
    write_checkpoint(path, BODY, meta={"cycle": 7})
    # Corrupt the body; the header must still read fine.
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    path.write_bytes(raw[: newline + 1] + b"\x00" * (len(raw) - newline - 1))
    assert read_meta(path)["meta"] == {"cycle": 7}


def test_truncated_body_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    write_checkpoint(path, BODY)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CheckpointIntegrityError, match="truncated"):
        read_checkpoint(path)
    with pytest.raises(CheckpointIntegrityError):
        verify_checkpoint(path)


def test_corrupted_body_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    write_checkpoint(path, BODY)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # flip bits without changing the length
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointIntegrityError, match="does not match"):
        read_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    path.write_bytes(b'{"magic": "not-a-ckpt", "version": 1}\n')
    with pytest.raises(CheckpointFormatError, match="not a repro-ckpt"):
        read_meta(path)


def test_not_json_header_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    path.write_bytes(b"\x89PNG\r\n\x1a\n")
    with pytest.raises(CheckpointFormatError):
        read_meta(path)


def test_missing_header_line_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    path.write_bytes(b"no newline anywhere")
    with pytest.raises(CheckpointFormatError, match="header"):
        read_meta(path)


def test_future_version_rejected_not_migrated(tmp_path):
    path = tmp_path / "a.ckpt"
    write_checkpoint(path, BODY)
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    header = json.loads(raw[:newline])
    header["version"] = FORMAT_VERSION + 1
    path.write_bytes(json.dumps(header).encode() + raw[newline:])
    with pytest.raises(CheckpointVersionError, match="regenerate"):
        read_meta(path)


def test_version_one_files_are_rejected(tmp_path):
    """Version 1 bodies came from per-class hand-written snapshot
    methods; the field walker's bodies are version 2."""
    path = tmp_path / "a.ckpt"
    write_checkpoint(path, BODY)
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    header = json.loads(raw[:newline])
    header["version"] = 1
    path.write_bytes(json.dumps(header).encode() + raw[newline:])
    with pytest.raises(CheckpointVersionError, match="version 1"):
        read_checkpoint(path)


def test_non_dict_body_rejected(tmp_path):
    import hashlib

    payload = zlib.compress(b"[1,2,3]")
    header = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "body_bytes": len(payload),
        "meta": {},
    }
    path = tmp_path / "a.ckpt"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(CheckpointFormatError, match="not an object"):
        read_checkpoint(path)


def test_write_is_atomic(tmp_path):
    """No temp droppings, and a same-name overwrite is complete."""
    path = tmp_path / "a.ckpt"
    write_checkpoint(path, BODY)
    write_checkpoint(path, {**BODY, "cycle": 99})
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]
    _, body = read_checkpoint(path)
    assert body["cycle"] == 99


def test_nan_rejected_at_write_time(tmp_path):
    with pytest.raises(ValueError):
        write_checkpoint(tmp_path / "a.ckpt", {"x": float("nan")})
