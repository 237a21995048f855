import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_ops import div, log, whole_volume_dice_ce, whole_volume_upsample_hw

from tpmamba import tensor as T
from tpmamba.config import MAX_CLASSES, TrainConfig
from tpmamba.encoder import PATCH
from tpmamba.errors import InputError, ShapeError
from tpmamba.ops import conv3d, normalize, upsample_hw
from tpmamba.seghead import (
    DECODER_STAGES,
    DICE_EPS,
    Decoder,
    _window_starts,
    decoder_forward,
    dice_ce_loss,
    dice_score,
    gaussian_importance,
    sliding_window_infer,
)
from tpmamba.tensor import Tensor


def toy_decoder(rng, C=8, K=2, dtype=np.float32):
    return Decoder.init(TrainConfig(C=C, n_classes=K), rng).astype(dtype)


def make_taps(rng, D=4, C=8, h=2, w=2, dtype=np.float32):
    return [Tensor(rng.standard_normal((1, D, C, h, w)).astype(dtype), dtype=dtype) for _ in range(4)]


# ---------------------------------------------------------------------------
# decoder


def test_decoder_toy_shape(rng):
    dec = toy_decoder(rng, dtype=np.float64)
    taps = make_taps(rng, D=4, h=2, w=2, dtype=np.float64)
    out = decoder_forward(taps, dec)
    assert out.shape == (1, 2, 4, 32, 32)
    # The head runs before the last upsample.  Upsampling first and then
    # applying the 1x1x1 head gives the same logits, since each upsampled
    # voxel is a weighted mean of its neighbours.
    x = conv3d(T.permute(T.concat(taps, axis=2), (0, 2, 1, 3, 4)), dec.reduce_w, dec.reduce_b)
    for stage in dec.stages:
        x = T.gelu(normalize(conv3d(x, stage.conv_w, stage.conv_b), "instance_norm", stage.norm_g, stage.norm_b))
        x = upsample_hw(x)
    ref = conv3d(x, dec.head_w, dec.head_b).data
    assert np.abs(out.data - ref).max() <= 1e-12


def test_decoder_full_resolution_shape(rng):
    dec = toy_decoder(rng, C=8, K=3)
    taps = make_taps(rng, D=6, h=6, w=6)
    out = decoder_forward(taps, dec)
    assert out.shape == (1, 3, 6, 96, 96)


def test_decoder_production_scale_shape(rng):
    # 96-wide taps over 96 slices of a 96^3 volume reconstruct (1,K,96,96,96)
    dec = toy_decoder(rng, C=96, K=2)
    taps = [
        Tensor(rng.standard_normal((1, 96, 96, 6, 6)).astype(np.float32)) for _ in range(4)
    ]
    out = decoder_forward(taps, dec)
    assert out.shape == (1, 2, 96, 96, 96)


def test_decoder_tap_mismatch(rng):
    dec = toy_decoder(rng)
    taps = make_taps(rng)
    taps[2] = Tensor(np.zeros((1, 4, 8, 3, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        decoder_forward(taps, dec)


def test_decoder_stage_count_matches_patch(rng):
    # the 2x upsampling stages undo exactly the encoder's patch embedding
    assert 2**DECODER_STAGES == PATCH
    out = decoder_forward(make_taps(rng, D=2, h=1, w=3), toy_decoder(rng))
    assert out.shape[3:] == (PATCH, 3 * PATCH)


# ---------------------------------------------------------------------------
# dice + cross entropy loss


def test_loss_saturated_correct_prediction(rng):
    labels = (rng.random((1, 4, 4, 4)) < 0.4).astype(np.int64)
    logits = np.where(labels[:, None] == np.arange(2)[None, :, None, None, None], 20.0, -20.0)
    loss = dice_ce_loss(Tensor(logits, dtype=np.float64), labels)
    assert float(loss.data) < 1e-4


def test_loss_uniform_logits_closed_form(rng):
    labels = np.zeros((1, 4, 4, 4), dtype=np.int64)
    labels[0, :2] = 1  # half the voxels are class 1
    logits = Tensor(np.zeros((1, 2, 4, 4, 4)), dtype=np.float64)
    loss = float(dice_ce_loss(logits, labels).data)
    V = 64
    ce = np.log(2.0)
    # soft dice with p = 0.5 everywhere: per class (2*0.5*|y_k| + eps)/(0.5V + |y_k| + eps)
    eps = 1e-5
    dice_k = [(0.5 * V + eps) / (0.5 * V + 0.5 * V + eps) for _ in range(2)]
    expected = ce + 1.0 - float(np.mean(dice_k))
    assert abs(loss - expected) < 1e-9


def test_loss_rejects_out_of_range_labels():
    logits = Tensor(np.zeros((1, 2, 2, 2, 2)))
    labels = np.full((1, 2, 2, 2), 2, dtype=np.int64)
    with pytest.raises(InputError):
        dice_ce_loss(logits, labels)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_rejects_non_integer_labels(dtype):
    # the node keeps u8 labels, so a float label would be truncated, not read
    logits = Tensor(np.zeros((1, 2, 2, 2, 2)))
    labels = np.full((1, 2, 2, 2), 0.5, dtype=dtype)
    with pytest.raises(InputError, match=np.dtype(dtype).name):
        dice_ce_loss(logits, labels)


def test_loss_rejects_more_classes_than_u8_labels_hold():
    logits = Tensor(np.zeros((1, MAX_CLASSES + 1, 1, 1, 2)))
    labels = np.array([[[[0, MAX_CLASSES]]]])
    with pytest.raises(ShapeError, match="u8"):
        dice_ce_loss(logits, labels)


def _composed_dice_ce(logits, labels):
    """The loss built from generic tape primitives, the test-local `log` and
    `div` nodes and a float one-hot: the reference for the fused node."""
    B, K = logits.shape[0], logits.shape[1]
    y = Tensor(np.moveaxis(np.eye(K)[labels], -1, 1), dtype=logits.data.dtype)
    p = T.softmax(logits, axis=1)
    log_lik = T.tsum(T.mul(log(p), y), axis=1)
    ce = T.scale(T.scale(T.tsum(log_lik), 1.0 / log_lik.size), -1.0)
    red_axes = (0,) + tuple(range(2, logits.ndim))
    eps = Tensor(np.full(K, DICE_EPS, dtype=logits.data.dtype))
    numer = T.add(T.scale(T.tsum(T.mul(p, y), axis=red_axes), 2.0), eps)
    denom = T.add(T.add(T.tsum(p, axis=red_axes), T.tsum(y, axis=red_axes)), eps)
    dice = T.scale(T.tsum(div(numer, denom)), 1.0 / K)
    one = Tensor(np.ones((), dtype=logits.data.dtype))
    return T.add(ce, T.add(one, T.scale(dice, -1.0)))


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("B", [1, 2])
@pytest.mark.parametrize("case", ["random", "absent_class", "saturated"])
def test_fused_loss_matches_composed_reference(K, B, case):
    rng = np.random.default_rng(K * 10 + B)
    shape = (B, K, 3, 4, 5)
    labels = rng.integers(0, K - 1 if case == "absent_class" else K, shape[:1] + shape[2:])
    raw = rng.choice([-30.0, 30.0], shape) if case == "saturated" else 2.0 * rng.standard_normal(shape)
    results = []
    # u8 labels, as a label file stores them, give the int64 labels' bytes
    for loss_fn, lab in ((_composed_dice_ce, labels), (dice_ce_loss, labels), (dice_ce_loss, labels.astype(np.uint8))):
        logits = Tensor(raw, dtype=np.float64, requires_grad=True)
        with T.recording() as tape:
            loss = loss_fn(logits, lab)
        tape.backward(loss)
        results.append((float(loss.data), logits.grad))
    (ref, ref_grad), (val, grad), (val_u8, grad_u8) = results
    assert abs(val - ref) <= 1e-12 * abs(ref)
    assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
    assert val_u8 == val and grad_u8.tobytes() == grad.tobytes()


def test_fused_loss_is_one_node_keeping_one_class_volume(rng):
    labels = rng.integers(0, 3, (1, 4, 4, 4))
    logits = Tensor(rng.standard_normal((1, 3, 4, 4, 4)).astype(np.float32), requires_grad=True)
    with T.recording() as tape:
        loss = dice_ce_loss(logits, labels)
    assert len(tape) == 1 and loss.dtype == np.float32
    # the closure reads the caller's logits, which it does not copy, and
    # holds no other class-sized array: backward recomputes the softmax
    kept = [c.cell_contents for c in tape.nodes[0].backward.__closure__]
    sized = [v for v in kept if isinstance(v, np.ndarray) and v.size >= logits.size]
    assert len(sized) == 1 and sized[0] is logits.data


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_loss_bounds(seed):
    # CE >= 0 and the soft-Dice term lies in [0, 1]
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, (1, 3, 3, 3))
    raw = 3.0 * rng.standard_normal((1, 3, 3, 3, 3))
    loss = float(dice_ce_loss(Tensor(raw, dtype=np.float64), labels).data)
    # independent cross-entropy
    m = raw.max(axis=1, keepdims=True)
    ls = raw - m - np.log(np.exp(raw - m).sum(axis=1, keepdims=True))
    ce = float(-np.take_along_axis(ls, labels[:, None], axis=1).mean())
    dice_term = loss - ce
    assert ce >= 0.0
    assert -1e-9 <= dice_term <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# dice metric


# train_deep's and train_overfit's head, a batch of two, and the decoder's
# stage upsamples, whose short per-slice GEMMs would take OpenBLAS's
# small-matrix kernel
UPSAMPLE_SHAPES = [(1, 3, 96, 48, 48), (1, 2, 32, 48, 48), (2, 3, 32, 48, 48),
                   (1, 6, 96, 24, 24), (1, 6, 32, 24, 24), (2, 6, 32, 24, 24), (1, 12, 96, 12, 12)]


@pytest.mark.parametrize("shape", UPSAMPLE_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_chunked_upsample_keeps_the_whole_volume_bits(rng, shape):
    x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    g = rng.standard_normal(shape[:3] + (2 * shape[3], 2 * shape[4])).astype(np.float32)
    with T.recording() as tape:
        out = upsample_hw(x)
    (gx,) = tape.nodes[0].backward(g)
    whole_out, whole_gx = whole_volume_upsample_hw(x.data, g)
    assert np.array_equal(out.data, whole_out)
    assert np.array_equal(gx, whole_gx)


@pytest.mark.parametrize(
    "shape, dtype",
    [((1, 3, 96, 96, 96), np.float32), ((1, 2, 32, 96, 96), np.float32), ((2, 3, 32, 96, 96), np.float32),
     ((2, 3, 17, 45, 47), np.float64)],
    ids=["train_deep", "train_overfit", "batch2", "odd_f64"],
)
def test_chunked_loss_keeps_the_whole_volume_bits(rng, shape, dtype):
    """The loss over runs of LOSS_CHUNK voxels against every array formed
    whole: same loss and same gradient, bit for bit.  Odd extents make numpy
    split runs off multiples of 8, and f64 sums show a label sum added in
    another order."""
    z = (3 * rng.standard_normal(shape)).astype(dtype)
    labels = rng.integers(0, shape[1], (shape[0],) + shape[2:]).astype(np.uint8)
    logits = Tensor(z, requires_grad=True)
    with T.recording() as tape:
        loss = dice_ce_loss(logits, labels)
    (grad,) = tape.nodes[0].backward(np.ones((), dtype=dtype))
    whole_loss, whole_grad = whole_volume_dice_ce(z, labels, DICE_EPS)
    assert loss.data.tobytes() == whole_loss.tobytes()
    assert np.array_equal(grad, whole_grad)


def test_dice_perfect_prediction(rng):
    gt = rng.integers(0, 3, (1, 4, 4, 4))
    scores, mean = dice_score(gt, gt, 3)
    np.testing.assert_array_equal(scores, [1.0, 1.0])
    assert mean == 1.0


def test_dice_disjoint_masks():
    gt = np.zeros((1, 2, 2, 2), dtype=np.int64)
    gt[0, 0] = 1
    pred = np.zeros_like(gt)
    pred[0, 1] = 1
    scores, _ = dice_score(pred, gt, 2)
    assert scores[0] == 0.0


def test_dice_half_overlap():
    gt = np.zeros((1, 1, 1, 4), dtype=np.int64)
    gt[0, 0, 0, :2] = 1  # two voxels
    pred = np.zeros_like(gt)
    pred[0, 0, 0, 1:3] = 1  # two voxels, one overlapping
    scores, _ = dice_score(pred, gt, 2)
    assert scores[0] == 0.5


def test_dice_empty_conventions():
    gt = np.zeros((1, 2, 2, 2), dtype=np.int64)
    pred = np.zeros_like(gt)
    scores, mean = dice_score(pred, gt, 3)
    np.testing.assert_array_equal(scores, [1.0, 1.0])  # both empty
    pred[0, 0, 0, 0] = 1
    scores, _ = dice_score(pred, gt, 3)
    assert scores[0] == 0.0  # one side empty


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_dice_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 3, (1, 3, 3, 3))
    b = rng.integers(0, 3, (1, 3, 3, 3))
    sa, ma = dice_score(a, b, 3)
    sb, mb = dice_score(b, a, 3)
    np.testing.assert_array_equal(sa, sb)
    assert ma == mb


# ---------------------------------------------------------------------------
# sliding window


def constant_model(K=2, value=None):
    def model(patch):
        d, h, w = patch.shape[2:]
        logits = np.zeros((1, K, d, h, w), dtype=np.float64)
        if value is not None:
            logits += np.asarray(value)[None, :, None, None, None]
        return logits

    return model


def test_window_starts_snap():
    assert _window_starts(144, 96, 48) == [0, 48]
    assert _window_starts(96, 96, 48) == [0]
    assert _window_starts(200, 96, 48) == [0, 48, 96, 104]


def test_gaussian_importance_properties():
    g = gaussian_importance((8, 8, 8))
    assert g.shape == (8, 8, 8)
    assert g.max() == 1.0
    assert g.min() > 0.0


def test_gaussian_importance_closed_form():
    # sigma = extent / 8 per axis, so the weight at distance d from an
    # extent-n window's centre falls as exp(-32 d^2 / n^2); every extent here
    # is even, so the peak, scaled to 1, sits at d = 1/2
    window = (4, 6, 8)
    expected = np.ones(window)
    for ax, n in enumerate(window):
        d = np.arange(n) - (n - 1) / 2
        expected = expected * np.expand_dims(np.exp(-32 * (d**2 - 0.25) / n**2), [a for a in range(3) if a != ax])
    np.testing.assert_allclose(gaussian_importance(window), expected, rtol=1e-12)


def test_sliding_window_single_window_equals_direct(rng):
    vol = rng.standard_normal((1, 1, 16, 16, 16))
    fixed = np.random.default_rng(0).standard_normal((1, 2, 16, 16, 16))
    before = fixed.tobytes()
    result = sliding_window_infer(vol, lambda p: fixed, window=(16, 16, 16))
    assert fixed.tobytes() == before  # the model's array is read, never written
    np.testing.assert_allclose(result.logits, fixed, rtol=1e-12)


def test_sliding_window_constant_model_blends_to_constant(rng):
    vol = rng.standard_normal((1, 1, 24, 16, 16))
    result = sliding_window_infer(vol, constant_model(K=3, value=[0.5, 1.5, -1.0]), window=(16, 16, 16))
    np.testing.assert_allclose(result.logits[0, 0], 0.5, rtol=1e-9)
    np.testing.assert_allclose(result.logits[0, 1], 1.5, rtol=1e-9)
    assert result.labels.shape == (1, 24, 16, 16)
    assert (result.labels == 1).all()


def test_sliding_window_probabilities_sum_to_one(rng):
    def model(patch):
        r = np.random.default_rng(patch.size)
        return r.standard_normal((1, 3) + patch.shape[2:])

    vol = rng.standard_normal((1, 1, 20, 16, 16))
    result = sliding_window_infer(vol, model, window=(16, 16, 16))
    sums = T.softmax(Tensor(result.logits), axis=1).data.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-5)


def test_sliding_window_f32_blend_matches_f64(rng):
    # A 24x20x20 volume under 16^3 windows at stride 8 takes 2*2*2 windows.
    def model(patch):
        p = patch[0, 0].astype(np.float32)
        return np.stack([np.sin(3 * p), p * p - 0.5, np.cos(2 * p) * p])[None]

    calls = []

    def model64(patch):
        calls.append(patch.shape)
        return model(patch).astype(np.float64)

    vol = rng.standard_normal((1, 1, 24, 20, 20)).astype(np.float32)
    result = sliding_window_infer(vol, model, window=(16, 16, 16))
    ref = sliding_window_infer(vol, model64, window=(16, 16, 16))
    assert len(calls) == 8
    assert result.logits.dtype == np.float32 and ref.logits.dtype == np.float64
    scale = np.abs(ref.logits).max()
    np.testing.assert_allclose(result.logits, ref.logits, rtol=1e-6, atol=1e-6 * scale)
    np.testing.assert_array_equal(result.labels, ref.labels)
    for r in (result, ref):
        # u8 labels, taken one depth slice at a time, are the blend's argmax
        assert r.labels.dtype == np.uint8
        np.testing.assert_array_equal(r.labels, r.logits.argmax(axis=1))


def test_sliding_window_pads_small_volume(rng):
    vol = rng.standard_normal((1, 1, 8, 8, 8))
    result = sliding_window_infer(vol, constant_model(K=2, value=[0.0, 1.0]), window=(16, 16, 16))
    assert result.logits.shape == (1, 2, 8, 8, 8)
    assert result.labels.shape == (1, 8, 8, 8) and (result.labels == 1).all()


def test_sliding_window_rejects_bad_input():
    with pytest.raises(InputError):
        sliding_window_infer(np.zeros((1, 2, 4, 4, 4)), constant_model(), window=(16, 16, 16))
    with pytest.raises(ShapeError, match="u8"):
        sliding_window_infer(np.zeros((1, 1, 4, 4, 4)), constant_model(K=257), window=(4, 4, 4))
