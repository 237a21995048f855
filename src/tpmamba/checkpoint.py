"""Versioned named-tensor checkpoint format.

Layout: magic "TPMB" | u32 format version | u32 header length | header JSON
(UTF-8, sorted keys) | raw little-endian payload.  The header carries the
tensor manifest (name, dtype, shape, byte offset/length), a flat config
snapshot, the RNG seed and a CRC32 of the payload.  Round trips are
bit-exact; any mismatch fails loudly naming the offending tensor.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .atomic import atomic_write
from .errors import CheckpointError

MAGIC = b"TPMB"
FORMAT_VERSION = 1

_PREAMBLE_BYTES = 12  # magic, u32 format version, u32 header length
_HEADER_KEYS = {"payload_crc32", "manifest", "config", "seed"}
_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_DTYPE_NAMES = {dt.newbyteorder("="): name for name, dt in _DTYPES.items()}


def save_checkpoint(path, named_arrays: dict, config: dict, seed: int) -> None:
    manifest = []
    chunks = []
    offset = 0
    for name, arr in named_arrays.items():
        dtype_name = _DTYPE_NAMES.get(np.dtype(arr.dtype))
        if dtype_name is None:
            raise CheckpointError(f"tensor {name}: unsupported dtype {arr.dtype}")
        blob = np.ascontiguousarray(arr).astype(_DTYPES[dtype_name]).tobytes()
        manifest.append(
            {
                "name": name,
                "dtype": dtype_name,
                "shape": list(arr.shape),
                "byte_offset": offset,
                "byte_len": len(blob),
            }
        )
        chunks.append(blob)
        offset += len(blob)
    payload = b"".join(chunks)
    header = {
        "manifest": manifest,
        "config": config,
        "seed": seed,
        "payload_crc32": zlib.crc32(payload) & 0xFFFFFFFF,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
        f.write(header_bytes)
        f.write(payload)


def load_checkpoint(path) -> tuple[dict, dict, int]:
    """Returns (named arrays, config snapshot, seed)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CheckpointError(f"{path}: {e.strerror}") from e
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    if len(blob) < _PREAMBLE_BYTES:
        raise CheckpointError(f"{path}: truncated preamble ({len(blob)} bytes, expected {_PREAMBLE_BYTES})")
    version, header_len = struct.unpack_from("<II", blob, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    header_end = _PREAMBLE_BYTES + header_len
    try:
        header = json.loads(blob[_PREAMBLE_BYTES:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from e
    if not isinstance(header, dict) or not _HEADER_KEYS <= header.keys():
        raise CheckpointError(f"{path}: header needs the keys {sorted(_HEADER_KEYS)}")
    if not isinstance(header["manifest"], list):
        raise CheckpointError(f"{path}: manifest is not a list")
    if not isinstance(header["config"], dict):
        raise CheckpointError(f"{path}: config is not a JSON object")
    if type(header["seed"]) is not int:
        raise CheckpointError(f"{path}: seed is not an integer")
    payload = blob[header_end:]
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    if crc != header["payload_crc32"]:
        raise CheckpointError(f"{path}: payload CRC mismatch (corrupt file)")

    arrays = {}
    prev_end = 0
    for i, entry in enumerate(header["manifest"]):
        try:
            name, off, ln = entry["name"], entry["byte_offset"], entry["byte_len"]
            if off != prev_end:
                raise CheckpointError(f"{path}: manifest offsets have gaps at {name}")
            if off + ln > len(payload):
                raise CheckpointError(f"{path}: truncated payload at tensor {name}")
            dtype = _DTYPES.get(entry["dtype"])
            if dtype is None:
                raise CheckpointError(f"{path}: tensor {name} has unknown dtype {entry['dtype']}")
            arr = np.frombuffer(payload, dtype=dtype, count=ln // dtype.itemsize, offset=off)
            arrays[name] = arr.reshape(entry["shape"]).astype(dtype.newbyteorder("="))
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: malformed manifest entry {i}: {e!r}") from e
        prev_end = off + ln
    if prev_end != len(payload):
        raise CheckpointError(f"{path}: payload has {len(payload) - prev_end} unaccounted bytes")
    return arrays, header["config"], header["seed"]


def load_into_model(model, arrays: dict, path) -> None:
    """Restore every model parameter, strictly by name, from the arrays that
    `load_checkpoint(path)` returned; `path` names the file in errors."""
    params = model.named_parameters()
    for name in params:
        if name not in arrays:
            raise CheckpointError(f"{path}: missing tensor {name}")
    for name in arrays:
        if name not in params:
            raise CheckpointError(f"{path}: unknown tensor {name}")
    for name, p in params.items():
        arr = arrays[name]
        if tuple(arr.shape) != tuple(p.shape):
            raise CheckpointError(
                f"{path}: tensor {name} has shape {tuple(arr.shape)}, model expects {tuple(p.shape)}"
            )
        p.data = arr.astype(p.data.dtype)
