import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import damaged_bytes
from tpmamba.data import (
    RVOL_HEADER_BYTES,
    AugmentConfig,
    VolumeRecord,
    augment,
    gen_synth,
    list_dataset,
    load_record,
    make_synthetic_record,
    preprocess,
    read_rvol,
    resample,
    write_rvol,
)
from tpmamba.errors import InputError


# ---------------------------------------------------------------------------
# RVOL format


def test_rvol_round_trip_f32(tmp_path, rng):
    arr = rng.standard_normal((4, 5, 6)).astype(np.float32)
    path = tmp_path / "vol.img.rvol"
    write_rvol(path, arr, (1.0, 2.0, 3.0))
    back, spacing = read_rvol(path)
    np.testing.assert_array_equal(back, arr)
    assert spacing == (1.0, 2.0, 3.0)


def test_rvol_round_trip_u8(tmp_path, rng):
    arr = rng.integers(0, 4, (3, 4, 5)).astype(np.uint8)
    path = tmp_path / "lab.lbl.rvol"
    write_rvol(path, arr, (1.0, 1.0, 1.0))
    back, _ = read_rvol(path)
    np.testing.assert_array_equal(back, arr)


def test_rvol_bad_magic(tmp_path):
    path = tmp_path / "bad.rvol"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(InputError, match="not an RVOL"):
        read_rvol(path)


def test_rvol_truncated(tmp_path, rng):
    arr = rng.standard_normal((4, 4, 4)).astype(np.float32)
    path = tmp_path / "t.img.rvol"
    write_rvol(path, arr, (1, 1, 1))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(InputError, match="truncated"):
        read_rvol(path)


@pytest.mark.parametrize("length", [4, 16, 28])
def test_rvol_short_header_is_input_error(tmp_path, length):
    path = tmp_path / "h.img.rvol"
    write_rvol(path, np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1))
    path.write_bytes(path.read_bytes()[:length])
    with pytest.raises(InputError, match="truncated header"):
        read_rvol(path)


def _write_f64(path):
    write_rvol(path, np.zeros((2, 2, 2)), (1.0, 1.0, 1.0))


def _read_code_9(path):
    write_rvol(path, np.zeros((2, 2, 2), dtype=np.float32), (1.0, 1.0, 1.0))
    blob = bytearray(path.read_bytes())
    blob[RVOL_HEADER_BYTES - 1] = 9  # the dtype code
    path.write_bytes(bytes(blob))
    read_rvol(path)


@pytest.mark.parametrize(
    "io, message",
    [
        pytest.param(_write_f64, "RVOL stores f32 or u8 arrays, got float64", id="write_other_dtype"),
        pytest.param(_read_code_9, "unknown dtype code 9", id="read_unknown_code"),
    ],
)
def test_rvol_dtype_outside_the_code_table_is_input_error(tmp_path, io, message):
    with pytest.raises(InputError, match=message):
        io(tmp_path / "x.img.rvol")


@pytest.fixture(scope="module")
def rvol_file(tmp_path_factory):
    """A valid 2x3x4 f32 RVOL volume: its path and its bytes."""
    path = tmp_path_factory.mktemp("rvol") / "fuzz.img.rvol"
    write_rvol(path, np.linspace(-1.0, 1.0, 24, dtype=np.float32).reshape(2, 3, 4), (1.0, 2.0, 0.5))
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rvol_truncated_or_bit_flipped_loads_or_raises_input_error(rvol_file, data):
    path, blob = rvol_file
    damaged = data.draw(damaged_bytes(blob))
    path.write_bytes(damaged)
    try:
        load_record(path)
    except InputError:
        pass


# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_hu_anchors():
    vox = np.full((2, 2, 2), -300.0, dtype=np.float32)
    vox[0, 0, 0] = 25.0
    vox[0, 0, 1] = 250.0
    vox[0, 1, 0] = 500.0
    rec = preprocess(VolumeRecord(voxels=vox, spacing=(1, 1, 1)))
    assert rec.voxels[1, 1, 1] == 0.0  # -300 clipped to -200
    assert rec.voxels[0, 0, 0] == 0.5  # (25+200)/450
    assert rec.voxels[0, 0, 1] == 1.0
    assert rec.voxels[0, 1, 0] == 1.0  # clipped from above


def test_preprocess_windows_a_raw_volume_inside_the_unit_range():
    # raw HU values that happen to lie in [0, 1] are still windowed
    vox = np.full((2, 2, 2), 0.5, dtype=np.float32)
    vox[1] = 1.0
    rec = preprocess(VolumeRecord(voxels=vox, spacing=(1, 1, 1)))
    assert rec.windowed
    np.testing.assert_array_equal(rec.voxels[0], np.float32((0.5 + 200) / 450))
    np.testing.assert_array_equal(rec.voxels[1], np.float32((1.0 + 200) / 450))
    np.testing.assert_array_equal(preprocess(rec).voxels, rec.voxels)


def test_preprocess_resamples_to_isotropic(rng):
    vox = rng.uniform(-200, 250, (10, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 2, (10, 8, 8)).astype(np.uint8)
    rec = preprocess(VolumeRecord(voxels=vox, spacing=(2.0, 1.0, 1.0), labels=labels))
    assert rec.voxels.shape == (20, 8, 8)
    assert rec.labels.shape == (20, 8, 8)
    assert rec.spacing == (1.0, 1.0, 1.0)


def test_preprocess_idempotent(rng):
    vox = rng.uniform(-400, 400, (6, 6, 6)).astype(np.float32)
    once = preprocess(VolumeRecord(voxels=vox, spacing=(1.5, 1.0, 1.0)))
    twice = preprocess(once)
    np.testing.assert_array_equal(once.voxels, twice.voxels)
    assert once.spacing == twice.spacing


def test_preprocess_rejects_bad_spacing(rng):
    with pytest.raises(InputError):
        VolumeRecord(voxels=np.zeros((2, 2, 2), dtype=np.float32), spacing=(0.0, 1, 1))


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
def test_load_record_rejects_empty_grid(tmp_path, shape):
    path = tmp_path / "empty.img.rvol"
    write_rvol(path, np.zeros(shape, dtype=np.float32), (1.0, 1.0, 1.0))
    with pytest.raises(InputError, match="non-empty"):
        load_record(path)


def test_load_record_rejects_labels_not_stored_as_u8(tmp_path):
    """An f32 label file would train on truncated class ids; it is refused."""
    vol, lab = tmp_path / "v.img.rvol", tmp_path / "v.lbl.rvol"
    write_rvol(vol, np.zeros((1, 1, 2), dtype=np.float32), (1.0, 1.0, 1.0))
    write_rvol(lab, np.array([[[0.7, 1.7]]], dtype=np.float32), (1.0, 1.0, 1.0))
    with pytest.raises(InputError, match="u8"):
        load_record(vol, lab)


def test_load_record_rejects_label_grid_mismatch(tmp_path):
    """A misaligned label file is refused, naming the pair it came from."""
    vol, lab = tmp_path / "v.img.rvol", tmp_path / "v.lbl.rvol"
    write_rvol(vol, np.zeros((2, 2, 2), dtype=np.float32), (1.0, 1.0, 1.0))
    write_rvol(lab, np.zeros((2, 2, 1), dtype=np.uint8), (1.0, 1.0, 1.0))
    with pytest.raises(InputError, match=re.escape(f"{vol} with {lab}: labels grid")):
        load_record(vol, lab)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_record_rejects_non_finite_spacing(bad):
    with pytest.raises(InputError, match="finite"):
        VolumeRecord(voxels=np.zeros((2, 2, 2), dtype=np.float32), spacing=(1.0, bad, 1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("base", [0.5, 100.0])  # already windowed, and raw HU
def test_preprocess_rejects_non_finite_voxels(bad, base):
    vox = np.full((3, 3, 3), base, dtype=np.float32)
    vox[1, 2, 0] = bad
    with pytest.raises(InputError, match="finite"):
        preprocess(VolumeRecord(voxels=vox, spacing=(1.0, 1.0, 1.0)))


def test_resample_nearest_keeps_labels_integral(rng):
    labels = rng.integers(0, 5, (6, 6, 6)).astype(np.uint8)
    out = resample(labels, (1.5, 1.5, 1.5))
    assert out.dtype == np.uint8
    assert set(np.unique(out)) <= set(np.unique(labels))


def test_resample_picks_its_interpolation_by_dtype():
    """Integer and bool arrays take the nearest source sample, float arrays
    mix the two neighbours, on the same half-pixel grid."""
    ramp = np.arange(4)
    np.testing.assert_array_equal(resample(ramp.astype(np.uint8)[:, None, None], (2, 1, 1)).ravel(),
                                  [0, 0, 1, 1, 2, 2, 3, 3])
    np.testing.assert_array_equal(resample((ramp == 2)[:, None, None], (0.5, 1, 1)).ravel(), [False, True])
    np.testing.assert_array_equal(resample(ramp.astype(np.float32)[:, None, None], (2, 1, 1)).ravel(),
                                  np.float32([0, 0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3]))


# ---------------------------------------------------------------------------
# augmentation


def _unit_record(rng, shape=(96, 96, 96)):
    vox = rng.uniform(0, 1, shape).astype(np.float32)
    labels = rng.integers(0, 2, shape).astype(np.uint8)
    return VolumeRecord(voxels=vox, spacing=(1, 1, 1), labels=labels)


def _box_record(box):
    """A 40^3 record, 1.0 and label 1 inside `box`, 0 outside."""
    vox = np.zeros((40, 40, 40), dtype=np.float32)
    labels = np.zeros((40, 40, 40), dtype=np.uint8)
    vox[box], labels[box] = 1.0, 1
    return VolumeRecord(voxels=vox, spacing=(1, 1, 1), labels=labels)


class ScriptedRng:
    """Stands in for `augment`'s generator: every uniform draw (scale factor,
    contrast gamma) is `u`, every crop starts at 0, and the flip draws fire
    on `flip_axes` only."""

    def __init__(self, u=1.0, flip_axes=()):
        self.u = u
        self.flips = iter([0.0 if ax in flip_axes else 1.0 for ax in range(3)])

    def uniform(self, lo, hi):
        return self.u

    def integers(self, lo, hi):
        return 0

    def random(self):
        return next(self.flips)


def test_augment_disabled_is_identity(rng):
    rec = _unit_record(rng, (96, 96, 96))
    cfg = AugmentConfig(crop=(96, 96, 96), flip=False, contrast=False, scale_jitter=False)
    out = augment(rec, np.random.default_rng(0), cfg)
    np.testing.assert_array_equal(out.voxels, rec.voxels)
    np.testing.assert_array_equal(out.labels, rec.labels)


def test_double_flip_is_identity(rng):
    vox = rng.uniform(0, 1, (4, 4, 4)).astype(np.float32)
    flipped = np.flip(np.flip(vox, axis=1), axis=1)
    np.testing.assert_array_equal(flipped, vox)


def test_augment_contrast_gamma_one_identity(rng):
    rec = _unit_record(rng, (40, 40, 40))
    cfg = AugmentConfig(crop=(40, 40, 40), flip=True, contrast=True, scale_jitter=False)
    out = augment(rec, ScriptedRng(u=1.0), cfg)  # gamma = 1, no flip
    np.testing.assert_allclose(out.voxels, rec.voxels, atol=1e-6)


def test_augment_crop_and_pad(rng):
    rec = _unit_record(rng, (20, 50, 50))
    cfg = AugmentConfig(crop=(32, 32, 32), flip=False, contrast=False, scale_jitter=False)
    out = augment(rec, np.random.default_rng(3), cfg)
    assert out.voxels.shape == (32, 32, 32)
    assert out.labels.shape == (32, 32, 32)


@pytest.mark.parametrize("flip_axes", [(0,), (1,), (2,), (0, 1, 2)], ids=["d", "h", "w", "dhw"])
def test_augment_labels_follow_voxels(flip_axes):
    rec = _box_record(np.s_[10:20, 5:15, 25:35])
    cfg = AugmentConfig(crop=(32, 32, 32), flip=True, contrast=False, scale_jitter=False)
    out = augment(rec, ScriptedRng(flip_axes=flip_axes), cfg)
    # the flips fired, and the label mask still coincides with the bright voxels
    np.testing.assert_array_equal(out.voxels, np.flip(rec.voxels[:32, :32, :32], flip_axes))
    np.testing.assert_array_equal(out.labels == 1, out.voxels > 0.5)


@pytest.mark.parametrize("f", [0.9, 1.1])
def test_augment_scale_jitter_resamples_the_labels(f):
    rec = _box_record(np.s_[18:28, 6:16, 12:22])
    cfg = AugmentConfig(crop=(32, 32, 32), flip=False, contrast=False, scale_jitter=True)
    out = augment(rec, ScriptedRng(u=f), cfg)
    # linear voxels and nearest labels differ only at the box's edges
    fg, bright = out.labels == 1, out.voxels > 0.5
    assert (fg & bright).sum() / (fg | bright).sum() >= 0.95


def test_augment_refuses_unlabelled_record(rng):
    rec = VolumeRecord(voxels=rng.uniform(0, 1, (8, 8, 8)).astype(np.float32), spacing=(1, 1, 1))
    cfg = AugmentConfig(crop=(8, 8, 8), flip=False, contrast=False, scale_jitter=False)
    with pytest.raises(InputError, match="labelled record"):
        augment(rec, np.random.default_rng(0), cfg)


# ---------------------------------------------------------------------------
# synthetic data


def test_gen_synth_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    gen_synth(2, (32, 32, 32), 3, seed=5, out_dir=d1)
    gen_synth(2, (32, 32, 32), 3, seed=5, out_dir=d2)
    for name in ("case000.img.rvol", "case000.lbl.rvol", "case001.img.rvol"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_gen_synth_class_fractions(rng):
    rec = make_synthetic_record((48, 48, 48), 3, np.random.default_rng(0))
    total = rec.labels.size
    for k in (1, 2):
        assert (rec.labels == k).sum() >= 0.01 * total


def test_gen_synth_intensity_range_and_dims(tmp_path):
    gen_synth(1, (32, 32, 32), 2, seed=1, out_dir=tmp_path)
    rec = load_record(tmp_path / "case000.img.rvol", tmp_path / "case000.lbl.rvol")
    assert rec.voxels.shape == rec.labels.shape
    assert rec.voxels.min() >= -200.0
    assert rec.voxels.max() <= 300.0
    assert rec.voxels.max() > 250.0  # clipping is exercised downstream


def test_gen_synth_validates_args(tmp_path):
    with pytest.raises(InputError):
        gen_synth(1, (16, 16, 16), 2, 0, tmp_path)
    with pytest.raises(InputError):
        gen_synth(1, (32, 32, 32), 1, 0, tmp_path)
    with pytest.raises(InputError, match="labels are u8"):
        gen_synth(1, (32, 32, 32), 257, 0, tmp_path)
    assert not any(tmp_path.iterdir())


def test_list_dataset_pairs(tmp_path):
    gen_synth(2, (32, 32, 32), 2, seed=0, out_dir=tmp_path)
    pairs = list_dataset(tmp_path)
    assert len(pairs) == 2
    assert all(lab is not None for _, lab in pairs)
    with pytest.raises(InputError):
        list_dataset(tmp_path / "missing")
