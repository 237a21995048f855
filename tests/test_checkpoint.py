import dataclasses
import hashlib
import json
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import damaged_bytes
from tpmamba.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, load_into_model, save_checkpoint
from tpmamba.config import TrainConfig, to_flat_dict
from tpmamba.errors import CheckpointError, ConfigError
from tpmamba.model import SegModel
from tpmamba.selfcheck import TOY
from tpmamba.tensor import Module, Parameter
from tpmamba.train import model_from_checkpoint


def small_cfg():
    return dataclasses.replace(TOY, crop=(8, 32, 32))


def test_corrupted_payload_detected(tmp_path, rng):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"w": rng.standard_normal(16).astype(np.float32)}, {}, 0)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path, rng):
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, {"w": rng.standard_normal(4).astype(np.float32)}, {}, 0)
    blob = bytearray(path.read_bytes())
    blob[4] = FORMAT_VERSION + 1
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_model_round_trip_and_mismatch(tmp_path):
    cfg = small_cfg()
    model = SegModel.init(dataclasses.replace(cfg, seed=3))
    named = {n: p.data for n, p in model.named_parameters().items()}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, named, to_flat_dict(cfg), cfg.seed)

    clone = SegModel.init(dataclasses.replace(cfg, seed=99))
    arrays = load_checkpoint(path)[0]
    load_into_model(clone, arrays, path)
    for name, p in clone.named_parameters().items():
        np.testing.assert_array_equal(p.data, named[name])

    # a different rank changes tensor shapes: the load must name the tensor
    other = SegModel.init(dataclasses.replace(cfg, adapter_r=8, seed=1))
    with pytest.raises(CheckpointError, match=r"tpmamba"):
        load_into_model(other, arrays, path)


# SHA-256 of the "\n"-joined parameter names of SegModel for TrainConfig(n_classes=3).
# The walk order is the checkpoint order, so a change here reorders every
# checkpoint's manifest and payload.
DEFAULT_NAMES_SHA256 = "85dd7f050b88106789411271bc99ddfb1cc9e646c6d2325ec2a4f3d5a8f1838a"


def test_parameter_walk_is_the_checkpoint_order():
    model = SegModel.init(TrainConfig(n_classes=3))
    names = "\n".join(p.name for p in model.parameters())
    assert hashlib.sha256(names.encode()).hexdigest() == DEFAULT_NAMES_SHA256
    parts = ("conv.weight", "conv.bias", "norm.gamma", "norm.beta")
    stages = [f"stage{i}.{part}" for i in range(4) for part in parts]
    expected = ["reduce.weight", "reduce.bias", *stages, "head.weight", "head.bias"]
    assert [p.name for p in model.decoder.parameters()] == ["decoder." + n for n in expected]


def test_duplicate_parameter_names_rejected():
    cfg = small_cfg()
    model = SegModel.init(cfg)
    model.decoder.head_b.name = "decoder.head.weight"
    for walk in (model.named_parameters, model.partition):
        with pytest.raises(ConfigError, match="duplicate parameter name 'decoder.head.weight'"):
            walk()


def _valid_header(rng):
    w = rng.standard_normal(3).astype(np.float32)
    entry = {"name": "w", "dtype": "f32", "shape": [3], "byte_offset": 0, "byte_len": w.nbytes}
    return {"manifest": [entry], "config": {}, "seed": 0, "payload_crc32": 0}, w.tobytes()


def _write_raw(path, header: dict, payload: bytes) -> None:
    """A checkpoint written byte by byte, so its header can be malformed."""
    header = dict(header)
    if "payload_crc32" in header:
        header["payload_crc32"] = zlib.crc32(payload) & 0xFFFFFFFF
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(raw)) + raw + payload)


@dataclasses.dataclass
class _Params(Module):
    params: list


@pytest.mark.parametrize(
    "header_edit, entry_edit, tail, model_names, message",
    [
        pytest.param({"manifest": {}}, {}, b"", ["w"], "manifest is not a list", id="manifest_not_a_list"),
        pytest.param({}, {"byte_offset": 4}, b"", ["w"], "manifest offsets have gaps at w", id="offset_gap"),
        pytest.param({}, {"byte_len": 16}, b"", ["w"], "truncated payload at tensor w", id="past_payload"),
        pytest.param({}, {"dtype": "f16"}, b"", ["w"], "tensor w has unknown dtype f16", id="unknown_dtype"),
        pytest.param({}, {}, bytes(4), ["w"], "payload has 4 unaccounted bytes", id="unaccounted_bytes"),
        pytest.param({}, {}, b"", ["w", "v"], "missing tensor v", id="missing_tensor"),
        pytest.param({}, {}, b"", [], "unknown tensor w", id="unknown_tensor"),
    ],
)
def test_malformed_checkpoint_is_checkpoint_error_naming_the_file(
    tmp_path, rng, header_edit, entry_edit, tail, model_names, message
):
    """Each row breaks one rule of the manifest or of the name match; a row's
    model takes the unbroken checkpoint."""
    header, payload = _valid_header(rng)
    header["manifest"][0].update(entry_edit)
    header.update(header_edit)
    path = tmp_path / "b.ckpt"
    _write_raw(path, header, payload + tail)
    model = _Params([Parameter(name, np.zeros(3, dtype=np.float32)) for name in model_names])
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
        load_into_model(model, load_checkpoint(path)[0], path)


@pytest.mark.parametrize("length", [4, 8, 11])
def test_short_preamble_is_checkpoint_error(tmp_path, rng, length):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, {"w": rng.standard_normal(4).astype(np.float32)}, {}, 0)
    path.write_bytes(path.read_bytes()[:length])
    with pytest.raises(CheckpointError, match="truncated preamble"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["payload_crc32", "manifest", "config", "seed"])
def test_header_missing_key_is_checkpoint_error(tmp_path, rng, key):
    header, payload = _valid_header(rng)
    path = tmp_path / "h.ckpt"
    _write_raw(path, header, payload)
    load_checkpoint(path)  # the complete header loads
    del header[key]
    _write_raw(path, header, payload)
    with pytest.raises(CheckpointError, match="header needs"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["name", "dtype", "shape", "byte_offset", "byte_len"])
def test_manifest_entry_missing_key_is_checkpoint_error(tmp_path, rng, key):
    header, payload = _valid_header(rng)
    del header["manifest"][0][key]
    path = tmp_path / "m.ckpt"
    _write_raw(path, header, payload)
    with pytest.raises(CheckpointError, match="malformed manifest entry 0"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("config", []), ("config", None), ("seed", "0")])
def test_header_config_or_seed_of_wrong_type_is_checkpoint_error(tmp_path, rng, key, value):
    header, payload = _valid_header(rng)
    header[key] = value
    path = tmp_path / "t.ckpt"
    _write_raw(path, header, payload)
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("C", "abc"), ("crop", 5)])
def test_checkpoint_config_value_of_wrong_type_is_config_error(tmp_path, key, value):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {}, {**to_flat_dict(small_cfg()), key: value}, 0)
    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        model_from_checkpoint(path)


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    """A valid two-tensor checkpoint: its path and its bytes."""
    rng = np.random.default_rng(5)
    path = tmp_path_factory.mktemp("ckpt") / "fuzz.ckpt"
    arrays = {"a.weight": rng.standard_normal((2, 3)).astype(np.float32), "b.bias": rng.standard_normal(2)}
    save_checkpoint(path, arrays, {"epochs": 3, "crop": "8,32,32"}, seed=9)
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_truncated_or_bit_flipped_checkpoint_loads_or_raises_checkpoint_error(checkpoint_file, data):
    path, blob = checkpoint_file
    path.write_bytes(data.draw(damaged_bytes(blob)))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
