"""Volume records, raw file I/O, preprocessing, augmentation, synthetic data.

Volumes travel as `VolumeRecord`s: raw CT-like intensities on a (D,H,W) grid
with per-axis mm spacing and optional integer labels.  On disk they use the
RVOL format: magic "RVOL", three u32 extents (D,H,W), three f32 spacings, a
u8 dtype code (0 = f32 voxels, 1 = u8 labels) and the raw little-endian
payload.  Clinical formats are deliberately out of scope; converting them to
RVOL is the documented extension point.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .atomic import atomic_write
from .config import MAX_CLASSES
from .errors import InputError

RVOL_MAGIC = b"RVOL"
RVOL_HEADER_BYTES = 29  # magic, 3 x u32 extents, 3 x f32 spacings, u8 dtype code
RVOL_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("u1")}  # dtype code -> payload dtype
HU_LO, HU_HI = -200.0, 250.0
CONTRAST_RANGE = (0.7, 1.3)  # augmentation gamma about the mean intensity
SCALE_RANGE = (0.9, 1.1)  # augmentation isotropic resampling factor
NOISE_SIGMA_VOX = 4  # half-width of the box filter that smooths synthetic noise

VOLUME_SUFFIX = ".img.rvol"
LABEL_SUFFIX = ".lbl.rvol"


@dataclass
class VolumeRecord:
    voxels: np.ndarray  # (D,H,W) float32
    spacing: tuple  # (sd,sh,sw) mm per voxel
    labels: Optional[np.ndarray] = None  # (D,H,W) integer class ids, u8 when read from file
    windowed: bool = False  # voxels already mapped from HU onto [0,1] by `preprocess`

    def __post_init__(self):
        if self.voxels.ndim != 3 or 0 in self.voxels.shape:
            raise InputError(f"voxels must be a non-empty 3-D grid, got shape {self.voxels.shape}")
        if not all(np.isfinite(s) and s > 0 for s in self.spacing):
            raise InputError(f"spacing components must be finite and positive, got {self.spacing}")
        if self.labels is not None and self.labels.shape != self.voxels.shape:
            raise InputError(
                f"labels grid {self.labels.shape} differs from voxels {self.voxels.shape}"
            )


# ---------------------------------------------------------------------------
# RVOL I/O


def write_rvol(path, array: np.ndarray, spacing: tuple) -> None:
    arr = np.ascontiguousarray(array)
    code = {dtype: c for c, dtype in RVOL_DTYPES.items()}.get(arr.dtype)
    if code is None:
        raise InputError(f"RVOL stores f32 or u8 arrays, got {arr.dtype}")
    with atomic_write(path) as f:
        f.write(RVOL_MAGIC)
        f.write(struct.pack("<3I", *arr.shape))
        f.write(struct.pack("<3f", *spacing))
        f.write(struct.pack("<B", code))
        f.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def read_rvol(path) -> tuple[np.ndarray, tuple]:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}") from e
    if blob[:4] != RVOL_MAGIC:
        raise InputError(f"{path}: not an RVOL file")
    if len(blob) < RVOL_HEADER_BYTES:
        raise InputError(f"{path}: truncated header ({len(blob)} bytes, expected {RVOL_HEADER_BYTES})")
    d, h, w = struct.unpack_from("<3I", blob, 4)
    spacing = struct.unpack_from("<3f", blob, 16)
    (code,) = struct.unpack_from("<B", blob, 28)
    dtype = RVOL_DTYPES.get(code)
    if dtype is None:
        raise InputError(f"{path}: unknown dtype code {code}")
    expected = RVOL_HEADER_BYTES + d * h * w * dtype.itemsize
    if len(blob) != expected:
        raise InputError(f"{path}: truncated payload ({len(blob)} bytes, expected {expected})")
    arr = np.frombuffer(blob, dtype=dtype, offset=RVOL_HEADER_BYTES).reshape(d, h, w)
    return arr.astype(dtype.newbyteorder("=")), spacing


def load_record(volume_path, label_path=None) -> VolumeRecord:
    voxels, spacing = read_rvol(volume_path)
    labels = None
    if label_path is not None:
        labels, _ = read_rvol(label_path)
        if labels.dtype != np.uint8:
            raise InputError(f"{label_path}: labels must be stored as u8, got {labels.dtype}")
    try:
        return VolumeRecord(voxels=voxels.astype(np.float32), spacing=spacing, labels=labels)
    except InputError as e:
        files = volume_path if label_path is None else f"{volume_path} with {label_path}"
        raise InputError(f"{files}: {e}") from e


def list_dataset(data_dir) -> list[tuple[Path, Optional[Path]]]:
    """Sorted (volume, label) RVOL pairs in a directory; labels optional."""
    root = Path(data_dir)
    vols = sorted(root.glob(f"*{VOLUME_SUFFIX}"))
    if not vols:
        raise InputError(f"no *{VOLUME_SUFFIX} volumes found in {root}")
    pairs = []
    for v in vols:
        lab = Path(str(v)[: -len(VOLUME_SUFFIX)] + LABEL_SUFFIX)
        pairs.append((v, lab if lab.exists() else None))
    return pairs


# ---------------------------------------------------------------------------
# resampling (raw numpy, no gradients; `ops.upsample_hw` builds its matrices
# from `_resample_axis`, so the decoder shares this source grid)


def _resample_axis(vol: np.ndarray, axis: int, n_out: int) -> np.ndarray:
    """Nearest-neighbour for integer and bool arrays (labels), linear for
    float arrays (voxels), on one half-pixel source grid."""
    n_in = vol.shape[axis]
    if n_out == n_in:
        return vol
    src = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0, n_in - 1)
    if vol.dtype.kind in "biu":
        return np.take(vol, np.round(src).astype(int), axis=axis)
    lo = np.floor(src).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = (src - lo).astype(vol.dtype).reshape(-1, *([1] * (vol.ndim - 1)))
    moved = np.moveaxis(vol, axis, 0)
    out = moved[lo]  # a fresh array, so the blend is formed in place
    out *= 1 - frac
    far = moved[hi]
    far *= frac
    out += far
    return np.moveaxis(out, 0, axis)


def resample(vol: np.ndarray, factors: tuple) -> np.ndarray:
    """Separable rescale by per-axis factors: nearest-neighbour for integer
    and bool arrays, linear for float arrays."""
    out = vol
    for axis, f in enumerate(factors):
        out = _resample_axis(out, axis, max(int(round(out.shape[axis] * f)), 1))
    return out


# ---------------------------------------------------------------------------
# preprocessing


def preprocess(rec: VolumeRecord) -> VolumeRecord:
    """Window to [-200, 250] HU, map onto [0,1] with fixed bounds, resample
    to 1.0 mm isotropic spacing (nearest-neighbour for labels).

    Every record not marked `windowed` is windowed, whatever its range; the
    result is marked.  So a processed record passes through again unchanged:
    it is not re-windowed and a spacing of exactly 1.0 mm skips resampling.
    """
    vox = rec.voxels.astype(np.float32)  # a copy, so windowing in place leaves the caller's voxels
    lo, hi = vox.min(), vox.max()  # NaN if any voxel is NaN
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InputError("voxels must be finite")
    if not rec.windowed:
        np.clip(vox, HU_LO, HU_HI, out=vox)
        vox -= HU_LO
        vox /= HU_HI - HU_LO
    labels = rec.labels
    if tuple(rec.spacing) != (1.0, 1.0, 1.0):
        vox = resample(vox, rec.spacing)
        if labels is not None:
            labels = resample(labels, rec.spacing)
    return VolumeRecord(voxels=vox, spacing=(1.0, 1.0, 1.0), labels=labels, windowed=True)


# ---------------------------------------------------------------------------
# augmentation


@dataclass
class AugmentConfig:
    crop: tuple
    flip: bool
    contrast: bool
    scale_jitter: bool


def _crop_or_pad(arr: np.ndarray, target: tuple, starts: tuple, pad_value) -> np.ndarray:
    out = arr
    pads = []
    for ax, t in enumerate(target):
        short = max(t - out.shape[ax], 0)
        pads.append((short // 2, short - short // 2))
    if any(p != (0, 0) for p in pads):
        out = np.pad(out, pads, mode="constant", constant_values=pad_value)
    slices = []
    for ax, t in enumerate(target):
        slices.append(slice(starts[ax], starts[ax] + t))
    return out[tuple(slices)]


def augment(rec: VolumeRecord, rng: np.random.Generator, cfg: AugmentConfig) -> VolumeRecord:
    """Scale jitter, random crop (pad 0 when short), flips, contrast."""
    if rec.labels is None:
        raise InputError("augment needs a labelled record")
    vox, labels = rec.voxels, rec.labels
    if cfg.scale_jitter:
        f = float(rng.uniform(*SCALE_RANGE))
        vox = resample(vox, (f, f, f))
        labels = resample(labels, (f, f, f))
    starts = tuple(
        int(rng.integers(0, max(vox.shape[ax] - cfg.crop[ax], 0) + 1)) for ax in range(3)
    )
    vox = _crop_or_pad(vox, cfg.crop, starts, 0.0)
    labels = _crop_or_pad(labels, cfg.crop, starts, 0)
    if cfg.flip:
        for ax in range(3):
            if rng.random() < 0.5:
                vox = np.flip(vox, axis=ax)
                labels = np.flip(labels, axis=ax)
    if cfg.contrast:
        gamma = float(rng.uniform(*CONTRAST_RANGE))
        mean = float(vox.mean())
        vox = np.clip(mean + gamma * (vox - mean), 0.0, 1.0)
    return VolumeRecord(
        voxels=np.ascontiguousarray(vox, dtype=np.float32),
        spacing=rec.spacing,
        labels=np.ascontiguousarray(labels),
        windowed=rec.windowed,
    )


# ---------------------------------------------------------------------------
# synthetic data


def _smooth_noise(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Cheap smooth field: box-filter white noise a few times per axis."""
    field = rng.standard_normal(shape).astype(np.float32)
    k = 2 * NOISE_SIGMA_VOX + 1
    for _ in range(2):
        for ax in range(3):
            c = np.cumsum(np.pad(field, [(k, k) if a == ax else (0, 0) for a in range(3)], mode="edge"), axis=ax)
            lo = np.take(c, np.arange(shape[ax]) + k, axis=ax)
            hi = np.take(c, np.arange(shape[ax]) + 2 * k, axis=ax)
            field = (hi - lo) / k
    field -= field.mean()
    denom = max(float(np.abs(field).max()), 1e-6)
    return field / denom


def make_synthetic_record(size: tuple, K: int, rng: np.random.Generator) -> VolumeRecord:
    """One volume with K-1 ellipsoidal structures in distinct intensity bands.

    Intensities span a HU-like range [-200, 300] so the preprocessing window
    clips the brightest class.  Each foreground class is guaranteed at least
    1% of the voxels (centres and radii are re-drawn until it holds).
    """
    D, H, W = size
    zz, yy, xx = np.meshgrid(
        np.arange(D, dtype=np.float32),
        np.arange(H, dtype=np.float32),
        np.arange(W, dtype=np.float32),
        indexing="ij",
    )
    vox = (-120.0 + 50.0 * _smooth_noise(rng, size)).astype(np.float32)
    labels = np.zeros(size, dtype=np.uint8)
    # brightest class pinned at 290 HU so the [-200, 250] window always clips
    levels = np.linspace(290.0, 40.0, K - 1)[::-1]
    for k in range(1, K):
        for _ in range(64):
            center = [rng.uniform(0.3 * n, 0.7 * n) for n in size]
            radii = [rng.uniform(0.16 * n, 0.30 * n) for n in size]
            mask = (
                ((zz - center[0]) / radii[0]) ** 2
                + ((yy - center[1]) / radii[1]) ** 2
                + ((xx - center[2]) / radii[2]) ** 2
            ) <= 1.0
            mask &= labels == 0
            if mask.sum() >= 0.01 * labels.size:
                break
        labels[mask] = k
        vox[mask] = levels[k - 1] + 15.0 * _smooth_noise(rng, size)[mask]
    vox += rng.normal(0.0, 8.0, size).astype(np.float32)
    vox = np.clip(vox, -200.0, 300.0).astype(np.float32)
    return VolumeRecord(voxels=vox, spacing=(1.0, 1.0, 1.0), labels=labels)


def gen_synth(n: int, size: tuple, K: int, seed: int, out_dir) -> list[str]:
    """Write n deterministic synthetic volume/label RVOL pairs."""
    if min(size) < 32:
        raise InputError(f"synthetic volumes need extents >= 32, got {size}")
    if not 2 <= K <= MAX_CLASSES:
        raise InputError(f"need 2 to {MAX_CLASSES} classes (labels are u8), got K={K}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for i in range(n):
        rng = np.random.default_rng((seed, i))
        rec = make_synthetic_record(size, K, rng)
        stem = f"case{i:03d}"
        write_rvol(out / f"{stem}{VOLUME_SUFFIX}", rec.voxels, rec.spacing)
        write_rvol(out / f"{stem}{LABEL_SUFFIX}", rec.labels.astype(np.uint8), rec.spacing)
        names.append(stem)
    return names
