import dataclasses

import numpy as np
import pytest

from model_helpers import param_count_adapter
from tpmamba.config import DEPTH_KERNEL
from tpmamba.errors import ConfigError, ShapeError
from tpmamba.selfcheck import TOY
from tpmamba.ssm import SSMParams, mamba_block_forward
from tpmamba.tensor import Tensor, permute, recording, tsum
from tpmamba.triplane import (
    TPMambaAdapter,
    multiscale_depth_conv,
    plane_flatten,
    plane_unflatten,
    reduce_dim,
    tp_mamba_forward,
)


def make_adapter(rng, C=8, r=4, dtype=np.float32, **kw):
    """The toy config's adapter; kw names adapter fields without their `adapter_` prefix."""
    cfg = dataclasses.replace(TOY, C=C, adapter_r=r, **{f"adapter_{k}": v for k, v in kw.items()})
    return TPMambaAdapter.init(cfg, rng, "tp").astype(dtype)


# ---------------------------------------------------------------------------
# plane flatten / unflatten


def test_flatten_hw_shape(rng):
    G = Tensor(rng.standard_normal((1, 4, 2, 2, 2)))
    assert plane_flatten(G, "hw").shape == (2, 4, 4)


def test_flatten_hw_element_order():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)  # (h,w) = [[a,b],[c,d]]
    G = Tensor(vals.reshape(1, 1, 1, 2, 2))
    seq = plane_flatten(G, "hw").data
    np.testing.assert_array_equal(seq[0, :, 0], [1.0, 2.0, 3.0, 4.0])


def test_flatten_dw_shape(rng):
    G = Tensor(rng.standard_normal((1, 5, 3, 2, 4)))
    assert plane_flatten(G, "dw").shape == (2, 12, 5)


def test_flatten_dh_volume_shapes(rng):
    G = Tensor(rng.standard_normal((2, 3, 4, 5, 6)))
    assert plane_flatten(G, "dh").shape == (2 * 6, 4 * 5, 3)
    assert plane_flatten(G, "volume").shape == (2, 4 * 5 * 6, 3)


def test_flatten_unknown_mode(rng):
    with pytest.raises(ConfigError):
        plane_flatten(Tensor(np.zeros((1, 1, 1, 1, 1))), "diagonal")


# each mode's (sequence s, position t) -> (b, d, h, w) for extents (B, D, h, w),
# written out from the paper's scan orders rather than read from _PLANE_LAYOUTS
SCAN_ORDERS = {
    # one sequence per (b, d); rows of the slice, then columns
    "hw": lambda s, t, B, D, h, w: (s // D, s % D, t // w, t % w),
    # one sequence per (b, h); depth, then columns
    "dw": lambda s, t, B, D, h, w: (s // h, t // w, s % h, t % w),
    # one sequence per (b, w); depth, then rows
    "dh": lambda s, t, B, D, h, w: (s // w, t // h, t % h, s % w),
    # one sequence per b; depth, then rows, then columns
    "volume": lambda s, t, B, D, h, w: (s, t // (h * w), t // w % h, t % w),
}


@pytest.mark.parametrize("mode", sorted(SCAN_ORDERS))
def test_flatten_index_enumeration(mode):
    B, r, D, h, w = 2, 2, 3, 4, 5  # distinct extents, so a swapped pair of axes shows
    G = np.arange(B * r * D * h * w, dtype=np.float64).reshape(B, r, D, h, w)
    seq = plane_flatten(Tensor(G), mode).data
    expected = np.empty_like(seq)
    for s_, t in np.ndindex(seq.shape[:2]):
        b, d, hh, ww = SCAN_ORDERS[mode](s_, t, B, D, h, w)
        expected[s_, t] = G[b, :, d, hh, ww]
    np.testing.assert_array_equal(seq, expected)


def test_dw_scan_of_swapped_rows_and_columns_is_the_dh_scan(rng):
    """With H and W swapped, each dw line of G is a dh line of the original,
    in the same order, so one scanner gives the same bits on both."""
    phi = SSMParams.init(TOY, rng, "phi")
    phi.w_out.data = 0.1 * rng.standard_normal(phi.w_out.shape)
    G = Tensor(rng.standard_normal((2, TOY.adapter_r, 3, 4, 5)))  # h != w
    Gs = permute(G, (0, 1, 2, 4, 3))

    def scan(x, mode):
        return plane_unflatten(mamba_block_forward(plane_flatten(x, mode), phi), mode, tuple(x.shape)).data

    np.testing.assert_array_equal(scan(Gs, "dw").transpose(0, 1, 2, 4, 3), scan(G, "dh"))


def test_unflatten_shape_mismatch(rng):
    seq = Tensor(rng.standard_normal((3, 4, 2)))
    with pytest.raises(ShapeError):
        plane_unflatten(seq, "hw", (1, 2, 2, 2, 2))


# ---------------------------------------------------------------------------
# convolutional stages


def test_reduce_dim_production_shape(rng):
    adapter = make_adapter(rng, C=768, r=96)
    F = Tensor(rng.standard_normal((2, 768, 4, 6, 6)).astype(np.float32))
    assert reduce_dim(F, adapter).shape == (2, 96, 4, 6, 6)


def test_reduce_dim_k1_identity_slice(rng):
    """A kernel that is 1 at its centre depth tap and 0 elsewhere selects a channel."""
    adapter = make_adapter(rng, C=6, r=4)
    w = np.zeros((4, 6, DEPTH_KERNEL, 1, 1), dtype=np.float32)
    w[0, 1, DEPTH_KERNEL // 2, 0, 0] = 1.0  # select channel 1
    w[1, 4, DEPTH_KERNEL // 2, 0, 0] = 1.0  # select channel 4
    adapter.reduce_w.data = w
    adapter.reduce_b.data = np.zeros(4, dtype=np.float32)
    F = Tensor(rng.standard_normal((1, 6, 3, 2, 2)).astype(np.float32))
    out = reduce_dim(F, adapter)
    np.testing.assert_array_equal(out.data[:, 0], F.data[:, 1])
    np.testing.assert_array_equal(out.data[:, 1], F.data[:, 4])


def test_reduce_dim_channel_mismatch(rng):
    adapter = make_adapter(rng, C=8, r=4)
    with pytest.raises(ShapeError):
        reduce_dim(Tensor(np.zeros((1, 7, 3, 2, 2))), adapter)


def test_multiscale_branch_concat_order(rng):
    adapter = make_adapter(rng, C=8, r=4)
    # each branch outputs one channel; make branch i emit the constant i+1
    for i, (w, b) in enumerate(zip(adapter.branch_ws, adapter.branch_bs)):
        w.data = np.zeros(w.shape, dtype=np.float32)
        b.data = np.full(b.shape, float(i + 1), dtype=np.float32)
    G = Tensor(rng.standard_normal((1, 4, 3, 2, 2)).astype(np.float32))
    out = multiscale_depth_conv(G, adapter)
    for i in range(4):
        np.testing.assert_array_equal(out.data[:, i], np.full((1, 3, 2, 2), i + 1.0))


def test_multiscale_receptive_field_17(rng):
    adapter = make_adapter(rng, C=8, r=4)
    D = 40
    G = np.zeros((1, 4, D, 1, 1), dtype=np.float32)
    G[0, :, D // 2] = 1.0
    for w, b in zip(adapter.branch_ws, adapter.branch_bs):
        b.data = np.zeros(b.shape, dtype=np.float32)
        w.data = np.ones(w.shape, dtype=np.float32)
    out = multiscale_depth_conv(Tensor(G), adapter).data
    nz = np.nonzero(out[0, 3, :, 0, 0])[0]  # dilation-8 branch is channel 3
    assert nz.max() - nz.min() + 1 == 17


def test_multiscale_depth_preserved(rng):
    adapter = make_adapter(rng, C=8, r=4)
    G = Tensor(rng.standard_normal((1, 4, 9, 2, 2)).astype(np.float32))
    assert multiscale_depth_conv(G, adapter).shape == (1, 4, 9, 2, 2)


def test_single_scale_depth_conv(rng):
    """`adapter.dilations=1` is the single-scale ablation: one r->r branch."""
    adapter = make_adapter(rng, C=8, r=4, dilations=(1,))
    G = Tensor(rng.standard_normal((1, 4, 5, 2, 2)).astype(np.float32))
    assert multiscale_depth_conv(G, adapter).shape == (1, 4, 5, 2, 2)
    assert [p.name for p in adapter.branch_ws + adapter.branch_bs] == ["tp.branch0_d1.weight", "tp.branch0_d1.bias"]
    assert adapter.branch_ws[0].shape == (4, 4, 3, 1, 1)


# ---------------------------------------------------------------------------
# full adapter


@pytest.mark.parametrize("mode", ["tri_plane", "hw_only", "dw_only", "dh_only", "volume_flatten"])
def test_forward_shape_all_modes(rng, mode):
    """Each mode holds only the scanners it runs: every parameter is counted
    by the closed form and gets a gradient."""
    adapter = make_adapter(rng, C=8, r=4, scan_mode=mode)
    assert sum(p.size for p in adapter.parameters()) == param_count_adapter(adapter.cfg)
    F = Tensor(rng.standard_normal((2, 3, 8, 2, 2)).astype(np.float32))
    with recording() as tape:
        out = tp_mamba_forward(F, adapter)
        loss = tsum(out)
    assert out.shape == F.shape
    tape.backward(loss)
    assert [p.name for p in adapter.parameters() if p.grad is None] == []


def test_distinct_scanner_parameter_sets(rng):
    adapter = make_adapter(rng, C=8, r=4)
    hw, dw, _ = adapter.scanners
    assert [phi.w_in.name for phi in adapter.scanners] == ["tp.phi_hw.w_in", "tp.phi_dw.w_in", "tp.phi_dh.w_in"]
    assert not np.array_equal(hw.w_in.data, dw.w_in.data)
    flat = make_adapter(rng, C=8, r=4, scan_mode="volume_flatten")
    assert [phi.w_in.name for phi in flat.scanners] == ["tp.phi_volume.w_in"]
