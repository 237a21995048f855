import numpy as np
import pytest
from model_helpers import recorders_of, recording_functions
from reference_ops import log

from tpmamba import ops, seghead, ssm
from tpmamba import tensor as T
from tpmamba.data import _resample_axis, resample
from tpmamba.errors import ConfigError, ShapeError
from tpmamba.ops import (
    conv1d_depthwise,
    conv3d,
    normalize,
    upsample_hw,
)
from tpmamba.selfcheck import GRAD_CASES, grad_check, run_grad_case
from tpmamba.tensor import Parameter, Tensor, recording


# ---------------------------------------------------------------------------
# conv3d


def test_conv3d_identity_channel_map(rng):
    x = Tensor(rng.standard_normal((1, 3, 2, 4, 4)))
    w = np.zeros((3, 3, 1, 1, 1), dtype=np.float32)
    for c in range(3):
        w[c, c, 0, 0, 0] = 1.0
    out = conv3d(x, Tensor(w), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv3d_ones_depth_profile():
    x = Tensor(np.ones((1, 1, 5, 1, 1), dtype=np.float32))
    w = Tensor(np.ones((1, 1, 3, 1, 1), dtype=np.float32))
    out = conv3d(x, w, Tensor(np.zeros(1, dtype=np.float32)))
    np.testing.assert_array_equal(out.data[0, 0, :, 0, 0], [2, 3, 3, 3, 2])


def test_conv3d_dilated_receptive_field():
    # impulse response of a kd=3 dilation-8 kernel spans 1+(3-1)*8 = 17 slices
    D = 64
    x = np.zeros((1, 1, D, 1, 1), dtype=np.float32)
    x[0, 0, D // 2] = 1.0
    w = Tensor(np.ones((1, 1, 3, 1, 1), dtype=np.float32))
    out = conv3d(Tensor(x), w, Tensor(np.zeros(1, dtype=np.float32)), dilation=(8, 1, 1))
    nz = np.nonzero(out.data[0, 0, :, 0, 0])[0]
    assert nz.max() - nz.min() + 1 == 17


def test_conv3d_same_padding_preserves_depth(rng):
    x = Tensor(rng.standard_normal((1, 2, 9, 3, 3)))
    for d in (1, 2, 4, 8):
        w = Tensor(rng.standard_normal((2, 2, 3, 1, 1)))
        out = conv3d(x, w, Tensor(np.zeros(2)), dilation=(d, 1, 1))
        assert out.shape == x.shape


def test_conv3d_even_kernel_same_padding_rejected():
    x = Tensor(np.zeros((1, 1, 4, 4, 4)))
    for kernel in ((4, 1, 1), (1, 2, 1), (3, 3, 2)):
        with pytest.raises(ConfigError):
            conv3d(x, Tensor(np.zeros((1, 1) + kernel)), Tensor(np.zeros(1)))


def test_conv3d_channel_mismatch():
    x = Tensor(np.zeros((1, 3, 2, 2, 2)))
    w = Tensor(np.zeros((4, 2, 1, 1, 1)))
    with pytest.raises(ShapeError):
        conv3d(x, w, Tensor(np.zeros(4)))


def test_conv3d_linearity(rng):
    x = rng.standard_normal((1, 2, 4, 3, 3))
    y = rng.standard_normal((1, 2, 4, 3, 3))
    w = Tensor(rng.standard_normal((3, 2, 3, 1, 1)), dtype=np.float64)
    zero = Tensor(np.zeros(3), dtype=np.float64)

    def run(arr):
        return conv3d(Tensor(arr, dtype=np.float64), w, zero).data

    np.testing.assert_allclose(run(x + y), run(x) + run(y), rtol=1e-10)
    np.testing.assert_allclose(run(2.5 * x), 2.5 * run(x), rtol=1e-10)


def _conv3d_loops(x, w, b, dilation, padding):
    """Direct cross-correlation over x zero-padded by `padding`, one output
    voxel at a time."""
    (dd, dh, dw), (pd, ph, pw) = dilation, padding
    _, _, kd, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    od, oh, ow = (xp.shape[2] - dd * (kd - 1), xp.shape[3] - dh * (kh - 1), xp.shape[4] - dw * (kw - 1))
    out = np.empty((x.shape[0], w.shape[0], od, oh, ow))
    for n in range(x.shape[0]):
        for o in range(w.shape[0]):
            for z in range(od):
                for y in range(oh):
                    for v in range(ow):
                        win = xp[n, :, z : z + dd * kd : dd, y : y + dh * kh : dh, v : v + dw * kw : dw]
                        out[n, o, z, y, v] = (w[o] * win).sum() + b[o]
    return out


# `padding` is the 'same' padding conv3d must apply: dilation*(k-1)/2 per axis.
# The gradients of these configurations are GRAD_CASES' conv3d cases.
@pytest.mark.parametrize(
    "x_shape,w_shape,dilation,padding",
    [
        ((2, 2, 5, 4, 3), (3, 2, 3, 3, 3), (2, 1, 1), (2, 1, 1)),
        ((2, 4, 3, 2, 5), (3, 4, 1, 1, 1), (1, 1, 1), (0, 0, 0)),
        ((1, 4, 3, 2, 5), (3, 4, 1, 1, 1), (1, 1, 1), (0, 0, 0)),
        # dilation and unequal taps off the depth axis: the input gradient's
        # mirrored offsets cross H and W rows as well as depth slices
        ((2, 3, 6, 5, 7), (4, 3, 3, 3, 5), (1, 2, 1), (1, 2, 2)),
    ],
)
def test_conv3d_matches_loop_reference_and_grads(rng, x_shape, w_shape, dilation, padding):
    x, w, b = rng.standard_normal(x_shape), rng.standard_normal(w_shape) * 0.5, rng.standard_normal(w_shape[0])
    out = conv3d(*(Tensor(a, dtype=np.float64) for a in (x, w, b)), dilation=dilation)
    np.testing.assert_allclose(out.data, _conv3d_loops(x, w, b, dilation, padding), rtol=1e-12, atol=1e-12)


# Padded grid of x (2,2,5,4,3) under 'same' padding (2,1,1): Dp, Hp, Wp = 9, 6, 5, so
# 540 columns.  The last 3x3x3 tap at dilation (2,1,1) sits 2*2*30 + 2*5 + 2 =
# 132 columns on, so the forward covers n = 408 columns.  The input gradient
# runs the forward's kernel on the padded gradient and walks the same n
# columns in the same tiles; the weight gradient walks all 540 input columns
# (15 tiles at 37).  Tile widths below the 132-column offset span put tile
# boundaries inside every tap's shifted window (12 forward tiles at 37);
# 136 = 408 / 3 makes n an exact multiple of the tile; 407 makes n = tile + 1,
# a one-column last tile.  The gradients are the table's case of that shape.
@pytest.mark.parametrize("cols", [37, 136, 407])
def test_conv3d_column_tiles_match_loop_reference_and_grads(rng, monkeypatch, cols):
    x, w, b = rng.standard_normal((2, 2, 5, 4, 3)), rng.standard_normal((3, 2, 3, 3, 3)) * 0.5, rng.standard_normal(3)
    monkeypatch.setattr(ops, "CONV_TILE_VALUES", cols * (2 + 3))

    out = conv3d(*(Tensor(a, dtype=np.float64) for a in (x, w, b)), dilation=(2, 1, 1))
    np.testing.assert_allclose(out.data, _conv3d_loops(x, w, b, (2, 1, 1), (2, 1, 1)), rtol=1e-12, atol=1e-12)
    case = next(case for case in GRAD_CASES if case.name == "conv3d_k333_d211")
    assert run_grad_case(case) < case.tolerance


# ---------------------------------------------------------------------------
# conv1d_depthwise


def test_depthwise_k1_identity(rng):
    x = Tensor(rng.standard_normal((2, 5, 3)))
    w = Tensor(np.ones((3, 1), dtype=np.float32))
    out = conv1d_depthwise(x, w, Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_depthwise_hand_convolution():
    x = Tensor(np.array([[[1.0], [2.0], [3.0]]]))
    w = Tensor(np.array([[1.0, 1.0]]))
    out = conv1d_depthwise(x, w, Tensor(np.zeros(1)))
    np.testing.assert_array_equal(out.data[0, :, 0], [1.0, 3.0, 5.0])


def test_depthwise_causality(rng):
    x = rng.standard_normal((1, 8, 2)).astype(np.float32)
    w = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
    zero = Tensor(np.zeros(2, dtype=np.float32))
    base = conv1d_depthwise(Tensor(x), w, zero).data
    x2 = x.copy()
    x2[:, -1] += 5.0
    bumped = conv1d_depthwise(Tensor(x2), w, zero).data
    assert np.array_equal(base[:, :-1], bumped[:, :-1])
    assert not np.array_equal(base[:, -1], bumped[:, -1])


def test_depthwise_channel_mismatch():
    with pytest.raises(ShapeError):
        conv1d_depthwise(Tensor(np.zeros((1, 4, 3))), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))


# ---------------------------------------------------------------------------
# normalize


def test_layer_norm_constant_input_is_zero():
    x = Tensor(np.full((2, 6), 3.5))
    g = Tensor(np.ones(6))
    b = Tensor(np.zeros(6))
    out = normalize(x, "layer_norm", g, b)
    assert np.abs(out.data).max() < 1e-2  # eps-dominated

def test_layer_norm_two_values():
    x = Tensor(np.array([[1.0, 3.0]]), dtype=np.float64)
    out = normalize(x, "layer_norm", Tensor(np.ones(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_instance_norm_per_channel(rng):
    x = rng.standard_normal((1, 2, 3, 4, 5))
    out = normalize(
        Tensor(x, dtype=np.float64),
        "instance_norm",
        Tensor(np.ones(2)),
        Tensor(np.zeros(2)),
    ).data
    for c in range(2):
        ref = (x[0, c] - x[0, c].mean()) / np.sqrt(x[0, c].var() + 1e-5)
        np.testing.assert_allclose(out[0, c], ref, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# upsample_hw


def test_upsample_constant_field():
    for H in (4, 1):
        out = upsample_hw(Tensor(np.full((1, 2, 3, H, 4), 5.0)))
        assert out.shape == (1, 2, 3, 2 * H, 8)
        np.testing.assert_allclose(out.data, 5.0, rtol=1e-6)


def test_upsample_linear_values():
    x = Tensor(np.array([0.0, 2.0]).reshape(1, 1, 1, 2, 1), dtype=np.float64)
    out = upsample_hw(x)
    np.testing.assert_allclose(out.data[0, 0, 0, :, 0], [0.0, 0.5, 1.5, 2.0], rtol=1e-12)


def test_upsample_stages_land_on_the_patch_grid():
    # Four 2x stages take a 6-token ramp to 96 voxels; voxel v's centre sits at
    # token (v + 0.5) / 16 - 0.5, exactly, wherever no edge clamp reaches.
    x = Tensor(np.arange(6.0).reshape(1, 1, 1, 1, 6), dtype=np.float64)
    for _ in range(4):
        x = upsample_hw(x)
    ideal = (np.arange(96) + 0.5) / 16 - 0.5
    np.testing.assert_array_equal(x.data[0, 0, 0, 0, 15:81], ideal[15:81])


@pytest.mark.parametrize("shape", [(1, 1, 1, 1, 3), (2, 3, 2, 4, 5), (1, 2, 3, 7, 1), (1, 1, 2, 6, 6)])
def test_upsample_matches_data_resample(rng, shape):
    x = rng.standard_normal(shape)
    out = upsample_hw(Tensor(x, dtype=np.float64))
    np.testing.assert_allclose(out.data, resample(x, (1, 1, 1, 2, 2)), rtol=0, atol=1e-12)


def test_upsample_shape_16x():
    x = Tensor(np.zeros((1, 3, 2, 6, 6), dtype=np.float32))
    out = x
    for _ in range(4):
        out = upsample_hw(out)
    assert out.shape == (1, 3, 2, 96, 96)


def _upsample_dense(x):
    """The interpolation written as two dense einsums over the full matrices."""
    Mh = _resample_axis(np.eye(x.shape[3], dtype=x.dtype), 0, 2 * x.shape[3])
    Mw = _resample_axis(np.eye(x.shape[4], dtype=x.dtype), 0, 2 * x.shape[4])
    return np.einsum("qw,bcdpw->bcdpq", Mw, np.einsum("ph,bcdhw->bcdpw", Mh, x))


# The gradients are the table's upsample_hw and upsample_hw_permuted cases.
@pytest.mark.parametrize("permuted", [False, True])
def test_upsample_matches_dense_formula_and_grads(rng, permuted):
    # (B,C,D,H,W) = (2,3,2,4,5); the permuted case feeds a non-contiguous view.
    x = Tensor(rng.standard_normal((2, 3, 5, 2, 4) if permuted else (2, 3, 2, 4, 5)), dtype=np.float64)
    if permuted:
        x = T.permute(x, (0, 1, 3, 4, 2))
    out = upsample_hw(x)
    assert out.shape == (2, 3, 2, 8, 10)
    np.testing.assert_allclose(out.data, _upsample_dense(x.data), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# gradient cases and the grad_check harness


@pytest.mark.parametrize("case", GRAD_CASES, ids=lambda case: case.name)
def test_gradient_case(case):
    assert run_grad_case(case) < case.tolerance


def test_gradient_cases_cover_every_recording_function():
    covered = set()
    for case in GRAD_CASES:
        loss, _ = case.build(np.random.default_rng(0))
        with recording() as tape:
            loss()
        covered |= recorders_of(tape)
    recorders = recording_functions(T, ops, ssm, seghead)
    assert "tpmamba.ssm.selective_scan" in recorders and "tpmamba.seghead.dice_ce_loss" in recorders
    assert recorders <= covered, f"no gradient case records: {sorted(recorders - covered)}"


def test_grad_check_nonfinite_names_parameter(rng):
    from tpmamba.errors import NumericError

    bad = Parameter("layer.bad", np.array([1.0, -1.0]), dtype=np.float64)

    def f():
        return T.tsum(log(bad))  # log(-1) -> nan

    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        grad_check(f, [bad])


def test_grad_check_excludes_frozen(rng):
    a = Parameter("a", rng.standard_normal((3, 3)), dtype=np.float64)
    frozen = Parameter("fz", rng.standard_normal((3, 3)), trainable=False, dtype=np.float64)

    def f():
        return T.tsum(T.matmul(frozen, a))

    assert grad_check(f, [a, frozen]) < 1e-7
    assert frozen.grad is None


def test_grad_check_perturbs_a_non_contiguous_parameter(rng):
    p = Parameter("p", rng.standard_normal((4, 3)).T, dtype=np.float64)
    assert not p.data.flags.c_contiguous
    assert grad_check(lambda: T.tsum(T.mul(p, p)), [p]) < 1e-7
