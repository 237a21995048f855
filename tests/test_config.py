import dataclasses

import pytest

from tpmamba.config import (
    TrainConfig,
    from_flat_dict,
    load_config,
    parse_config_text,
    to_flat_dict,
)
from tpmamba.encoder import ViTConfig
from tpmamba.errors import ConfigError
from tpmamba.ssm import MambaBlockConfig
from tpmamba.triplane import TPMambaConfig


def test_defaults_follow_training_protocol():
    cfg = TrainConfig()
    assert cfg.epochs == 1000
    assert cfg.lr_start == 2e-4
    assert cfg.lr_end == 0.0
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
    cfg = from_flat_dict({**flat, "lora_alpha": 4, "adapter.dt_rank": 3, "crop": [8, 32, 32], "flip": False})
    assert (cfg.lora_alpha, cfg.adapter_dt_rank, cfg.crop, cfg.flip) == (4, 3, (8, 32, 32), False)
    assert from_flat_dict({**flat, "adapter.dt_rank": None}).adapter_dt_rank is None
    bad = {
        "C": "abc", "epochs": 2.0, "seed": True, "lr_start": "0.1", "flip": 1, "crop": 5,
        "adapter.dilations": [1, 2.0], "adapter.scan_mode": 3, "adapter.dt_rank": "auto",
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
        elif val is None:
            val = "none"
        lines.append(f"{key}={val}")
    path = tmp_path / "train.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_config(path) == cfg


def test_invalid_lr_ordering():
    with pytest.raises(ConfigError):
        TrainConfig(lr_start=0.0, lr_end=0.0)


def test_crop_divisibility_enforced():
    with pytest.raises(ConfigError):
        TrainConfig(crop=(96, 50, 96))


def test_vit_config_wiring():
    cfg = TrainConfig(C=16, n_heads=2, adapter_r=8, crop=(24, 32, 48), adapter_d_state=4)
    vit = cfg.vit_config()
    assert vit.C == 16
    assert vit.adapter.r == 8
    assert vit.adapter.d_state == 4
    assert vit.img_hw == (32, 48)


def test_vit_config_carries_every_encoder_and_adapter_field():
    cfg = TrainConfig(
        crop=(8, 32, 48), C=24, n_blocks=5, n_heads=3, mlp_ratio=2, lora_rank=3, lora_alpha=1.5,
        adapter_r=6, adapter_dilations=(1, 3), adapter_depth_kernel=5, adapter_scan_mode="dh_only",
        adapter_conv_mode="single", adapter_d_state=5, adapter_expand=3, adapter_d_conv=2, adapter_dt_rank=7,
    )
    defaults = TrainConfig()
    vit = cfg.vit_config()
    shared = [f.name for f in dataclasses.fields(ViTConfig) if f.name not in ("adapter", "img_hw")]
    adapter = [f.name for f in dataclasses.fields(TPMambaConfig) if f.name != "C"]
    for name in shared:
        assert getattr(cfg, name) != getattr(defaults, name), name
        assert getattr(vit, name) == getattr(cfg, name), name
    for name in adapter:
        assert getattr(cfg, f"adapter_{name}") != getattr(defaults, f"adapter_{name}"), name
        assert getattr(vit.adapter, name) == getattr(cfg, f"adapter_{name}"), name
    assert vit.adapter.C == 24 and vit.img_hw == (32, 48)
    ssm = vit.adapter.ssm_config()
    assert ssm == MambaBlockConfig(d_model=6, d_state=5, expand=3, d_conv=2, dt_rank=7)


def test_dt_rank_none_round_trip(tmp_path):
    cfg = parse_config_text("adapter.dt_rank=none")
    assert cfg.adapter_dt_rank is None
    cfg2 = parse_config_text("adapter.dt_rank=3")
    assert cfg2.adapter_dt_rank == 3


@pytest.mark.parametrize(
    "line", ["epochs=abc", "crop=8,x,32", "lr_start=fast", "adapter.dt_rank=big", "flip=maybe"]
)
def test_unparsable_value_names_key_and_line(line):
    key = line.split("=")[0]
    with pytest.raises(ConfigError, match=f"line 2: {key}="):
        parse_config_text(f"# header\n{line}\n")


@pytest.mark.parametrize(
    "line",
    [
        "lr_start=nan", "lr_start=inf", "lr_end=nan", "lr_end=inf",
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
