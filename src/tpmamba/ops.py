"""Structured operations: convolutions, normalization and upsampling.

All convolutions use the cross-correlation convention (no kernel flip),
stride 1, and zero padding that keeps the input's extents: conv3d pads
dilation*(k-1)/2 on each side of each axis, and conv1d_depthwise pads k-1
before the sequence, so it is causal.  conv3d flattens the zero-padded input
channel-major to (Cin, B*Dp*Hp*Wp), where tap t of the output in column c
reads input column c + offset_t, and crops the output computed on that grid.
It walks the columns in tiles of CONV_TILE_VALUES // (Cin + Cout), one BLAS
GEMM per tap and tile, so a tile's operands stay in cache across the taps.
The input gradient is that kernel on the padded output gradient, with each
tap's matrix transposed and its offset mirrored to offsets[-1] - offset_t.
"""

from __future__ import annotations

import numpy as np

from .data import _resample_axis
from .errors import ConfigError, ShapeError
from .tensor import Tensor, _record, _unbroadcast

Array = np.ndarray

CONV_TILE_VALUES = 2**17  # (Cin + Cout) * columns per conv3d column tile, ~L2-sized
NORM_EPS = 1e-5


def _padded_columns(a: Array, widths: tuple) -> Array:
    """(B,C,D,H,W) zero-padded by `widths` per spatial axis, as (C, B*Dp*Hp*Wp).

    Without padding and with B == 1 this is a view of `a`."""
    a = a.transpose(1, 0, 2, 3, 4)
    if any(w for pair in widths for w in pair):
        a = np.pad(a, ((0, 0), (0, 0)) + tuple(widths))
    return np.ascontiguousarray(a).reshape(a.shape[0], -1)


def _tap_gemm(wt: Array, cols: Array, offsets: list, tile: int, grid: tuple, extents: tuple) -> Array:
    """sum_t wt[t] @ cols[:, c + offsets[t]], summed in tap order, for every
    column c that leaves room for the largest offset: one GEMM per tap and
    tile of `tile` columns, so a tile's operands stay in cache across the
    taps.  Returns the (B, rows, *extents) corner of those columns laid out
    on the padded `grid` (B, Dp, Hp, Wp), as a view."""
    n = cols.shape[1] - max(offsets)
    acc = np.empty((wt.shape[1], cols.shape[1]), dtype=cols.dtype)
    tmp = np.empty((wt.shape[1], min(tile, n)), dtype=acc.dtype)
    for c0 in range(0, n, tile):
        c1 = min(c0 + tile, n)
        a = acc[:, c0:c1]
        np.matmul(wt[0], cols[:, offsets[0] + c0 : offsets[0] + c1], out=a)
        for t in range(1, len(offsets)):
            a += np.matmul(wt[t], cols[:, offsets[t] + c0 : offsets[t] + c1], out=tmp[:, : c1 - c0])
    D, H, W = extents
    return acc.reshape(-1, *grid)[:, :, :D, :H, :W].transpose(1, 0, 2, 3, 4)


def conv3d(x: Tensor, weight: Tensor, bias: Tensor, dilation: tuple = (1, 1, 1)) -> Tensor:
    """3-D cross-correlation plus a per-channel bias, x (B,Cin,D,H,W) with
    weight (Cout,Cin,kd,kh,kw) of odd extents and bias (Cout,); the output
    keeps the input's extents."""
    if x.ndim != 5 or weight.ndim != 5:
        raise ShapeError(f"conv3d expects 5-D operands, got {x.shape} and {weight.shape}")
    B, cin, D, H, W = x.shape
    cout, cin_w, kd, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"conv3d channel mismatch: input {cin} vs weight {cin_w}")
    if any(k % 2 == 0 for k in (kd, kh, kw)):
        raise ConfigError(f"conv3d keeps extents only with an odd kernel, got {(kd, kh, kw)}")
    dd, dh, dw = dilation
    pd, ph, pw = dd * (kd - 1) // 2, dh * (kh - 1) // 2, dw * (kw - 1) // 2

    # On the padded grid flattened to columns, tap (i,j,k) of the output voxel
    # in column c reads the input in column c + offset.
    Dp, Hp, Wp = D + 2 * pd, H + 2 * ph, W + 2 * pw
    grid, pads = (B, Dp, Hp, Wp), ((pd, pd), (ph, ph), (pw, pw))
    xf = _padded_columns(x.data, pads)
    offsets = [i * dd * Hp * Wp + j * dh * Wp + k * dw for i in range(kd) for j in range(kh) for k in range(kw)]
    wt = np.ascontiguousarray(np.moveaxis(weight.data.reshape(cout, cin, -1), 2, 0))  # (taps,Cout,Cin)
    cols = max(1, CONV_TILE_VALUES // (cin + cout))
    out = np.ascontiguousarray(_tap_gemm(wt, xf, offsets, cols, grid, (D, H, W)))
    out += bias.data.reshape(1, cout, 1, 1, 1)
    need_x, need_w, need_b, w_shape = x.requires_grad, weight.requires_grad, bias.requires_grad, weight.shape
    xd = x.data if need_w else None  # the input only for the weight's gradient

    def backward(g):
        # Padded like the input, g holds output column c's gradient in column
        # c + offsets[-1] // 2.  Input column c receives tap t from output
        # column c - offset_t, that is from g's column c + offsets[-1] - offset_t:
        # the forward kernel with each tap transposed and its offset mirrored.
        gp = _padded_columns(g, pads)
        gx = gw = gb = None
        if need_x:
            gx = _tap_gemm(wt.transpose(0, 2, 1), gp, [offsets[-1] - off for off in offsets], cols, grid, (D, H, W))
        if need_w:
            # Tiles of input columns: tap t pairs input column c with output
            # column c - offset_t.  These tiles fix each tap's summation order.
            xf = _padded_columns(xd, pads)  # rebuilt, so the tape keeps no padded copy
            gf = gp[:, offsets[-1] // 2 :]
            n, m = xf.shape[1] - offsets[-1], xf.shape[1]
            gwt = np.zeros_like(wt)
            for c0 in range(0, m, cols):
                for t, off in enumerate(offsets):
                    s0, s1 = max(c0 - off, 0), min(c0 + cols - off, n)
                    if s0 < s1:
                        gwt[t] += gf[:, s0:s1] @ xf[:, s0 + off : s1 + off].T
            gw = np.moveaxis(gwt, 0, 2).reshape(w_shape)
        if need_b:
            gb = g.sum(axis=(0, 2, 3, 4))
        return gx, gw, gb

    return _record((x, weight, bias), out, backward)


def conv1d_depthwise(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Causal per-channel 1-D convolution plus bias along the sequence axis:
    x (B,L,E), weight (E,k), bias (E,), left pad k-1."""
    if x.ndim != 3:
        raise ShapeError(f"conv1d_depthwise expects (B,L,E), got {x.shape}")
    w = weight.data
    B, L, E = x.shape
    if w.ndim != 2 or w.shape[0] != E:
        raise ShapeError(f"conv1d_depthwise needs an (E,k) weight with E={E}, got {w.shape}")
    k = w.shape[1]
    xp = np.pad(x.data, ((0, 0), (k - 1, 0), (0, 0)))
    out = np.zeros_like(x.data)
    for i in range(k):
        out += w[:, i] * xp[:, i : i + L]
    out += bias.data
    need_x, need_w, need_b, dtype = x.requires_grad, weight.requires_grad, bias.requires_grad, x.dtype
    xp = xp if need_w else None  # the padded input only for the weight's gradient

    def backward(g):
        gx = gw = gb = None
        if need_w:
            gw = np.empty_like(w)
            for i in range(k):
                gw[:, i] = (g * xp[:, i : i + L]).sum(axis=(0, 1))
        if need_x:
            gxp = np.zeros((B, L + k - 1, E), dtype=dtype)
            for i in range(k):
                gxp[:, i : i + L] += w[:, i] * g
            gx = gxp[:, k - 1 :]
        if need_b:
            gb = g.sum(axis=(0, 1))
        return gx, gw, gb

    return _record((x, weight, bias), out, backward)


def normalize(x: Tensor, kind: str, gamma: Tensor, beta: Tensor) -> Tensor:
    """layer_norm over the last axis, or instance_norm over spatial axes per (B,C)."""
    if kind == "layer_norm":
        axes: tuple = (x.ndim - 1,)
        affine_shape = (x.shape[-1],)
    elif kind == "instance_norm":
        if x.ndim < 3:
            raise ShapeError(f"instance_norm expects (B,C,spatial...), got {x.shape}")
        axes = tuple(range(2, x.ndim))
        affine_shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    else:
        raise ConfigError(f"unknown normalization kind {kind!r}")

    mu = x.data.mean(axis=axes, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(NORM_EPS))
    xhat = xc * inv
    gam = gamma.data.reshape(affine_shape)
    # C order even when x is a strided token view, so the linear maps that
    # read this output share it instead of each copying it
    out = np.multiply(xhat, gam, order="C")
    out += beta.data.reshape(affine_shape)
    n = int(np.prod([x.shape[a] for a in axes]))
    need_x, need_gamma, need_beta = x.requires_grad, gamma.requires_grad, beta.requires_grad
    gamma_shape, beta_shape = gamma.shape, beta.shape
    xhat = xhat if need_x or need_gamma else None

    def backward(g):
        gx = ggamma = gbeta = None
        if need_x:
            gg = g * gam
            # standard layer-norm vjp over the normalized axes
            t1 = gg.sum(axis=axes, keepdims=True)
            t2 = (gg * xhat).sum(axis=axes, keepdims=True)
            gx = (inv / n) * (n * gg - t1 - xhat * t2)
        if need_gamma:
            ggamma = _unbroadcast(g * xhat, affine_shape).reshape(gamma_shape)
        if need_beta:
            gbeta = _unbroadcast(g, affine_shape).reshape(beta_shape)
        return gx, ggamma, gbeta

    return _record((x, gamma, beta), out, backward)


def upsample_hw(x: Tensor) -> Tensor:
    """Bilinear 2x upsampling of H and W; depth untouched.  Each axis's
    (2n, n) matrix is `data.resample`'s linear kernel applied to an identity,
    so the decoder samples on the half-pixel grid preprocessing uses."""
    if x.ndim != 5:
        raise ShapeError(f"upsample_hw expects (B,C,D,H,W), got {x.shape}")
    B, C, D, H, W = x.shape
    Mh = _resample_axis(np.eye(H, dtype=x.dtype), 0, 2 * H)
    Mw = _resample_axis(np.eye(W, dtype=x.dtype), 0, 2 * W)
    # W pass as one flat GEMM, then H pass as a matmul broadcast over (B,C,D).
    t = (x.data.reshape(-1, W) @ Mw.T).reshape(B, C, D, H, 2 * W)
    out = np.matmul(Mh, t)
    shape = x.shape

    def backward(g):
        gt = np.matmul(Mh.T, g)
        return ((gt.reshape(-1, 2 * W) @ Mw).reshape(shape),)

    return _record((x,), out, backward)
