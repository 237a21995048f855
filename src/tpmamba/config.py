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

from .errors import ConfigError

# Values the paper fixes (SAM's ViT-B/16 backbone, Mamba scanner blocks, the
# learning-rate schedule); no config key sets them.
PATCH = 16  # patch-embedding side; the decoder's log2(PATCH) 2x stages undo it
N_TAPS = 4  # the decoder fuses the outputs of the last N_TAPS encoder blocks
MLP_RATIO = 4  # ViT MLP width over C
DEPTH_KERNEL = 3  # depth extent of the adapter's reduce, dilated and raise convs
SSM_EXPAND = 2  # scanner channels over adapter.r
SSM_D_CONV = 4  # width of the scanner's causal depthwise conv
LR_END = 0.0  # the linear schedule decays lr_start toward this
MAX_CLASSES = 256  # label volumes and predictions are u8

# scan mode -> the planes it scans, summed in this order; an adapter builds one
# scanner per plane, in this order, and no other
SCAN_MODES = {
    "tri_plane": ("hw", "dw", "dh"),
    "hw_only": ("hw",),
    "dw_only": ("dw",),
    "dh_only": ("dh",),
    "volume_flatten": ("volume",),
}


def auto_dt_rank(r: int) -> int:
    """Rank of a width-r scanner's delta projection."""
    return math.ceil(r / 16)


@dataclass
class TrainConfig:
    epochs: int = 1000
    lr_start: float = 2e-4
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
    lora_rank: int = 4
    lora_alpha: float = 4.0
    # adapter (prefix `adapter.` in config files)
    adapter_r: int = 24
    adapter_dilations: tuple = (1, 2, 4, 8)
    adapter_scan_mode: str = "tri_plane"
    adapter_d_state: int = 16

    def __post_init__(self):
        for name in ("lr_start", "weight_decay", "lora_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if len(self.crop) != 3:
            raise ConfigError(f"crop must have 3 extents, got {self.crop}")
        if min(self.crop) < 1:
            raise ConfigError(f"crop extents must be positive, got {self.crop}")
        for ext in self.crop[1:]:
            if ext % PATCH != 0:
                raise ConfigError(f"crop H/W {self.crop} must be divisible by patch {PATCH}")
        for name in ("lr_start", "C", "n_heads", "lora_rank", "adapter_r", "adapter_d_state"):
            val = getattr(self, name)
            if val <= 0:
                raise ConfigError(f"{_key_of(name)} must be positive, got {val}")
        if self.C % self.n_heads != 0:
            raise ConfigError(f"C={self.C} not divisible by n_heads={self.n_heads}")
        if self.n_blocks < N_TAPS:
            raise ConfigError(f"need at least {N_TAPS} blocks for the output taps, got n_blocks={self.n_blocks}")
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got n_classes={self.n_classes}")
        if self.n_classes > MAX_CLASSES:
            raise ConfigError(f"labels are u8, so at most {MAX_CLASSES} classes, got n_classes={self.n_classes}")
        if self.adapter_scan_mode not in SCAN_MODES:
            raise ConfigError(f"unknown adapter.scan_mode {self.adapter_scan_mode!r}; choose from {tuple(SCAN_MODES)}")
        n = len(self.adapter_dilations)
        if n == 0 or self.adapter_r % n != 0:
            raise ConfigError(f"adapter.r={self.adapter_r} not divisible by the {n} dilated branches")
        if min(self.adapter_dilations) < 1:
            raise ConfigError(f"adapter.dilations must be at least 1, got {self.adapter_dilations}")


def _key_of(field_name: str) -> str:
    if field_name.startswith("adapter_"):
        return "adapter." + field_name[len("adapter_") :]
    return field_name


_FIELDS = {_key_of(f.name): f for f in fields(TrainConfig)}


def _parse_value(raw: str, default):
    raw = raw.strip()
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
        return [int(t) for t in raw.split(",") if t.strip()]
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
    int fits a float field and a tuple field takes a list of ints."""
    if isinstance(val, bool) or isinstance(default, bool):
        return type(val) is type(default)
    if isinstance(default, tuple):
        return isinstance(val, list) and all(_type_ok(v, 0) for v in val)
    if isinstance(default, float):
        return isinstance(val, (int, float))
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
    flat = {}
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
        try:
            flat[key] = _parse_value(raw, _FIELDS[key].default)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: {key}={raw.strip()!r} does not parse: {e}") from None
    return from_flat_dict(flat)


def load_config(path) -> TrainConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e.reason}") from e
    return parse_config_text(text)

