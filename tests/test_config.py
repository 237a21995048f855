import dataclasses
import re

import numpy as np
import pytest

from tpmamba.config import (
    LR_END,
    TrainConfig,
    from_flat_dict,
    load_config,
    parse_config_text,
    to_flat_dict,
)
from tpmamba.errors import ConfigError
from tpmamba.selfcheck import TOY
from tpmamba.train import build_model


def test_defaults_follow_training_protocol():
    cfg = TrainConfig()
    assert cfg.epochs == 1000
    assert cfg.lr_start == 2e-4
    assert LR_END == 0.0
    assert cfg.crop == (96, 96, 96)
    assert cfg.adapter_dilations == (1, 2, 4, 8)


def test_parse_dotted_adapter_keys():
    cfg = parse_config_text(
        """
        # toy run
        epochs=5
        lr_start=0.001
        crop=16,32,32
        adapter.scan_mode=hw_only
        adapter.r=8
        n_heads=2
        C=8
        adapter.d_state=4
        """
    )
    assert cfg.epochs == 5
    assert cfg.adapter_scan_mode == "hw_only"
    assert cfg.adapter_r == 8
    assert cfg.crop == (16, 32, 32)
    assert cfg.adapter_d_state == 4


def test_unknown_key_rejected():
    for line in ("optimizer=sgd", "batch_size=1", "n_outputs=4", "patch=16"):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text(line)


def test_bad_line_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("epochs 5")


def test_flat_round_trip():
    cfg = TrainConfig(epochs=7, adapter_scan_mode="dw_only", crop=(32, 32, 32), C=16, n_heads=2)
    back = from_flat_dict(to_flat_dict(cfg))
    assert back == cfg


def test_flat_dict_value_types_checked_by_key():
    flat = to_flat_dict(TrainConfig())
    cfg = from_flat_dict({**flat, "lora_alpha": 4, "crop": [8, 32, 32], "flip": False})
    assert (cfg.lora_alpha, cfg.crop, cfg.flip) == (4, (8, 32, 32), False)
    bad = {
        "C": "abc", "epochs": 2.0, "seed": True, "lr_start": "0.1", "flip": 1, "crop": 5,
        "adapter.dilations": [1, 2.0], "adapter.scan_mode": 3, "adapter.d_state": None,
    }
    for key, val in bad.items():
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            from_flat_dict({**flat, key: val})


def test_file_round_trip(tmp_path):
    cfg = TrainConfig(epochs=3, adapter_r=8, C=16, n_heads=2, crop=(16, 16, 16))
    lines = []
    for key, val in to_flat_dict(cfg).items():
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        lines.append(f"{key}={val}")
    path = tmp_path / "train.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_config(path) == cfg


def test_invalid_lr_ordering():
    """The schedule decays lr_start to LR_END = 0, so lr_start must be positive."""
    for lr_start in (0.0, -1e-3):
        with pytest.raises(ConfigError, match="lr_start must be positive"):
            TrainConfig(lr_start=lr_start)


def test_crop_divisibility_enforced():
    with pytest.raises(ConfigError):
        TrainConfig(crop=(96, 50, 96))


# For each field the model reads, a value other than the toy config's.
MODEL_VALUES = {
    "crop": (4, 32, 48), "seed": 1, "n_classes": 3, "C": 12, "n_blocks": 5, "n_heads": 4,
    "lora_rank": 3, "lora_alpha": 1.5, "adapter_r": 8, "adapter_dilations": (1, 3),
    "adapter_scan_mode": "dh_only", "adapter_d_state": 3,
}
TRAINING_FIELDS = {"epochs", "lr_start", "weight_decay", "flip", "contrast", "scale_jitter"}


def _model_fingerprint(cfg):
    """Parameter names and shapes, and the logits of one fixed input once
    every zero-initialised parameter has seeded values."""
    model = build_model(cfg)
    rng = np.random.default_rng(0)
    for p in model.parameters():
        if not p.data.any():
            p.data = (0.1 * rng.standard_normal(p.shape)).astype(p.data.dtype)
    x = np.random.default_rng(1).standard_normal((1, 1) + cfg.crop).astype(np.float32)
    return [(p.name, p.shape) for p in model.parameters()], model.predict_logits(x)


@pytest.mark.parametrize("field", MODEL_VALUES)
def test_every_model_field_reaches_the_model(field):
    assert set(MODEL_VALUES) | TRAINING_FIELDS == {f.name for f in dataclasses.fields(TrainConfig)}
    assert getattr(TOY, field) != MODEL_VALUES[field]
    shapes, logits = _model_fingerprint(TOY)
    other_shapes, other_logits = _model_fingerprint(dataclasses.replace(TOY, **{field: MODEL_VALUES[field]}))
    assert other_shapes != shapes or not np.array_equal(other_logits, logits)


# One case per check of a model field: the change to the defaults, the message.
MODEL_CHECKS = {
    "n_blocks_below_4": ({"n_blocks": 3}, "at least 4 blocks"),
    "heads_not_dividing_C": ({"C": 10, "n_heads": 4}, "C=10 not divisible by n_heads=4"),
    "n_classes_below_2": ({"n_classes": 1}, "at least 2 classes"),
    "n_classes_above_256": ({"n_classes": 257}, "labels are u8, so at most 256 classes, got n_classes=257"),
    "rank_not_dividing_into_branches": ({"adapter_r": 6}, "adapter.r=6 not divisible by the 4 dilated branches"),
    "no_dilations": ({"adapter_dilations": ()}, "not divisible by the 0 dilated branches"),
    "dilation_zero": ({"adapter_dilations": (0, 1, 2, 4)}, r"adapter.dilations must be at least 1, got \(0, 1, 2, 4\)"),
    "dilation_negative": ({"adapter_dilations": (-1, 1, 2, 4)}, r"adapter.dilations must be at least 1, got \(-1, 1, 2, 4\)"),
    "unknown_scan_mode": ({"adapter_scan_mode": "xy_only"}, re.escape(
        "unknown adapter.scan_mode 'xy_only'; choose from "
        "('tri_plane', 'hw_only', 'dw_only', 'dh_only', 'volume_flatten')")),
    "crop_depth_negative": ({"crop": (-4, 32, 32)}, r"crop extents must be positive, got \(-4, 32, 32\)"),
    "crop_hw_zero": ({"crop": (8, 0, 0)}, r"crop extents must be positive, got \(8, 0, 0\)"),
    **{
        f"{name}_not_positive": ({name: 0}, f"{name.replace('adapter_', 'adapter.')} must be positive")
        for name in ("C", "n_heads", "lora_rank", "adapter_r", "adapter_d_state")
    },
}


@pytest.mark.parametrize("change, message", MODEL_CHECKS.values(), ids=list(MODEL_CHECKS))
def test_model_checks_raise_config_error(change, message):
    with pytest.raises(ConfigError, match=message):
        TrainConfig(**change)


@pytest.mark.parametrize(
    "line", ["epochs=abc", "crop=8,x,32", "lr_start=fast", "flip=maybe"]
)
def test_unparsable_value_names_key_and_line(line):
    key = line.split("=")[0]
    with pytest.raises(ConfigError, match=f"line 2: {key}="):
        parse_config_text(f"# header\n{line}\n")


@pytest.mark.parametrize(
    "line",
    [
        "lr_start=nan", "lr_start=inf",
        "weight_decay=nan", "weight_decay=inf", "lora_alpha=nan", "lora_alpha=-inf",
    ],
)
def test_non_finite_rates_rejected(line):
    with pytest.raises(ConfigError, match=f"{line.split('=')[0]} must be finite"):
        parse_config_text(line)


@pytest.mark.parametrize("epochs", [0, -3])
def test_epochs_below_one_rejected(epochs):
    with pytest.raises(ConfigError, match="epochs must be at least 1"):
        parse_config_text(f"epochs={epochs}")
