"""The one model and training configuration, and its flat key=value file format.

`TrainConfig` is the only place a hyper-parameter is declared, defaulted and
checked: the model's `init` methods read it, and forward code reads sizes
from parameter shapes.  The file namespace merges the training fields and
the encoder fields at the top level; adapter fields live under the
`adapter.` prefix (for example `adapter.scan_mode=tri_plane`).  Unknown keys
are errors.  The same flat dict is snapshotted into checkpoints so a saved
model can be rebuilt without the original file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .errors import ConfigError

PATCH = 16  # patch-embedding side; the decoder's four 2x stages undo it
SCAN_MODES = ("tri_plane", "hw_only", "dw_only", "dh_only", "volume_flatten")


def auto_dt_rank(r: int) -> int:
    """Rank of a width-r scanner's delta projection when `adapter.dt_rank` is unset."""
    return math.ceil(r / 16)


@dataclass
class TrainConfig:
    epochs: int = 1000
    lr_start: float = 2e-4
    lr_end: float = 0.0
    weight_decay: float = 1e-2
    crop: tuple = (96, 96, 96)
    seed: int = 0
    n_classes: int = 2
    flip: bool = True
    contrast: bool = True
    scale_jitter: bool = True
    # encoder
    C: int = 96
    n_blocks: int = 4
    n_heads: int = 4
    mlp_ratio: int = 4
    lora_rank: int = 4
    lora_alpha: float = 4.0
    # adapter (prefix `adapter.` in config files)
    adapter_r: int = 24
    adapter_dilations: tuple = (1, 2, 4, 8)
    adapter_depth_kernel: int = 3
    adapter_scan_mode: str = "tri_plane"
    adapter_d_state: int = 16
    adapter_expand: int = 2
    adapter_d_conv: int = 4
    adapter_dt_rank: Optional[int] = None

    def __post_init__(self):
        for name in ("lr_start", "lr_end", "weight_decay", "lora_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.lr_start <= self.lr_end or self.lr_end < 0:
            raise ConfigError(
                f"need lr_start > lr_end >= 0, got {self.lr_start} and {self.lr_end}"
            )
        if len(self.crop) != 3:
            raise ConfigError(f"crop must have 3 extents, got {self.crop}")
        for ext in self.crop[1:]:
            if ext % PATCH != 0:
                raise ConfigError(f"crop H/W {self.crop} must be divisible by patch {PATCH}")
        for name in ("C", "n_heads", "mlp_ratio", "lora_rank", "adapter_r", "adapter_d_state",
                     "adapter_expand", "adapter_d_conv", "adapter_dt_rank"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ConfigError(f"{_key_of(name)} must be positive, got {val}")
        if self.C % self.n_heads != 0:
            raise ConfigError(f"C={self.C} not divisible by n_heads={self.n_heads}")
        if self.n_blocks < 4:
            raise ConfigError(f"need at least 4 blocks for the output taps, got n_blocks={self.n_blocks}")
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got n_classes={self.n_classes}")
        if self.adapter_scan_mode not in SCAN_MODES:
            raise ConfigError(f"unknown adapter.scan_mode {self.adapter_scan_mode!r}; choose from {SCAN_MODES}")
        if self.adapter_depth_kernel % 2 == 0:
            raise ConfigError(f"adapter.depth_kernel must be odd, got {self.adapter_depth_kernel}")
        n = len(self.adapter_dilations)
        if n == 0 or self.adapter_r % n != 0:
            raise ConfigError(f"adapter.r={self.adapter_r} not divisible by the {n} dilated branches")

    @property
    def dt_rank(self) -> int:
        """The scanners' delta-projection rank: `adapter.dt_rank`, or the automatic rank when unset."""
        return auto_dt_rank(self.adapter_r) if self.adapter_dt_rank is None else self.adapter_dt_rank


def _key_of(field_name: str) -> str:
    if field_name.startswith("adapter_"):
        return "adapter." + field_name[len("adapter_") :]
    return field_name


_FIELDS = {_key_of(f.name): f for f in fields(TrainConfig)}


def _parse_value(key: str, raw: str, default):
    raw = raw.strip()
    if key == "adapter.dt_rank":
        return None if raw.lower() in ("none", "auto") else int(raw)
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError("expected a boolean")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        return tuple(int(t) for t in raw.split(",") if t.strip())
    return raw


def to_flat_dict(cfg: TrainConfig) -> dict:
    out = {}
    for f in fields(TrainConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = list(val)
        out[_key_of(f.name)] = val
    return out


def _type_ok(val, default) -> bool:
    """Whether `val`, as JSON gives it, fits a field with this default: an
    int fits a float field, a tuple field takes a list of ints, and the one
    None default (`adapter.dt_rank`) takes an int or null."""
    if isinstance(val, bool) or isinstance(default, bool):
        return type(val) is type(default)
    if isinstance(default, tuple):
        return isinstance(val, list) and all(_type_ok(v, 0) for v in val)
    if isinstance(default, float):
        return isinstance(val, (int, float))
    if default is None:
        return val is None or isinstance(val, int)
    return isinstance(val, type(default))


def from_flat_dict(flat: dict) -> TrainConfig:
    kwargs = {}
    for key, val in flat.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        if not _type_ok(val, _FIELDS[key].default):
            raise ConfigError(f"config key {key!r}: {val!r} does not fit the field's type")
        if isinstance(val, list):
            val = tuple(val)
        kwargs[_FIELDS[key].name] = val
    return TrainConfig(**kwargs)


def parse_config_text(text: str) -> TrainConfig:
    """key=value lines over the defaults; '#' starts a comment; later keys win."""
    flat = to_flat_dict(TrainConfig())
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        current = flat[key]
        ref = tuple(current) if isinstance(current, list) else current
        try:
            parsed = _parse_value(key, raw, ref)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: {key}={raw.strip()!r} does not parse: {e}") from None
        flat[key] = list(parsed) if isinstance(parsed, tuple) else parsed
    return from_flat_dict(flat)


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())

