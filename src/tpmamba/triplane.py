"""Tri-plane state-space adapter.

Takes slice-major feature maps (B, D, C, h, w), reduces the channel
width to a small rank r with a depth-wise (k,1,1) convolution, widens the
depth receptive field with four parallel dilated convolutions, scans the
volume as flattened sequences along the planes of its scan mode (the
height-width, depth-width and depth-height planes for `tri_plane`) with one
independent scanner block per plane, sums the plane contributions, raises the
width back to C and adds the result onto the input.  An adapter holds only
the scanners its mode runs.  The raise convolution is zero-initialised so a
fresh adapter is the identity map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEPTH_KERNEL, SCAN_MODES, TrainConfig
from .errors import ConfigError, ShapeError
from .ops import conv3d
from .ssm import SSMParams, mamba_block_forward
from .tensor import Module, Parameter, Tensor, add, concat, permute, reshape, uniform_init


@dataclass
class TPMambaAdapter(Module):
    cfg: TrainConfig  # read for the dilations and scan mode
    reduce_w: Parameter
    reduce_b: Parameter
    branch_ws: list
    branch_bs: list
    scanners: list  # one SSMParams per plane of SCAN_MODES[cfg.adapter_scan_mode]
    raise_w: Parameter
    raise_b: Parameter

    @classmethod
    def init(cls, cfg: TrainConfig, rng: np.random.Generator, prefix: str) -> "TPMambaAdapter":
        C, r, k = cfg.C, cfg.adapter_r, DEPTH_KERNEL

        def par(name, data):
            return Parameter(f"{prefix}.{name}", data)

        branch_ws, branch_bs = [], []
        rb = r // len(cfg.adapter_dilations)
        for i, d in enumerate(cfg.adapter_dilations):
            branch_ws.append(par(f"branch{i}_d{d}.weight", uniform_init(rng, (rb, r, k, 1, 1), r * k)))
            branch_bs.append(par(f"branch{i}_d{d}.bias", uniform_init(rng, (rb,), r * k)))

        return cls(
            cfg=cfg,
            reduce_w=par("reduce.weight", uniform_init(rng, (r, C, k, 1, 1), C * k)),
            reduce_b=par("reduce.bias", uniform_init(rng, (r,), C * k)),
            branch_ws=branch_ws,
            branch_bs=branch_bs,
            scanners=[SSMParams.init(cfg, rng, f"{prefix}.phi_{plane}")
                      for plane in SCAN_MODES[cfg.adapter_scan_mode]],
            # zero raise conv: a fresh adapter leaves the backbone untouched
            raise_w=par("raise.weight", np.zeros((C, r, k, 1, 1))),
            raise_b=par("raise.bias", np.zeros((C,))),
        )


def reduce_dim(F: Tensor, adapter: TPMambaAdapter) -> Tensor:
    """(B,C,D,h,w) -> (B,r,D,h,w) with a depth-only conv."""
    return conv3d(F, adapter.reduce_w, adapter.reduce_b)


def multiscale_depth_conv(G: Tensor, adapter: TPMambaAdapter) -> Tensor:
    """Parallel dilated depth convs, one per dilation, concatenated in
    dilation order; `adapter.dilations=1` is the single-scale ablation."""
    outs = []
    for w, b, d in zip(adapter.branch_ws, adapter.branch_bs, adapter.cfg.adapter_dilations):
        outs.append(conv3d(G, w, b, dilation=(d, 1, 1)))
    return concat(outs, axis=1)


# plane mode -> (axis order of (B,r,D,h,w), count of leading axes folded into the batch)
_PLANE_LAYOUTS = {
    "hw": ((0, 2, 3, 4, 1), 2),
    "dh": ((0, 4, 2, 3, 1), 2),
    "dw": ((0, 3, 2, 4, 1), 2),
    "volume": ((0, 2, 3, 4, 1), 1),
}


def _plane_layout(mode: str, dims: tuple) -> tuple:
    """(axis order, permuted extents, sequence shape) of one plane mode."""
    if mode not in _PLANE_LAYOUTS:
        raise ConfigError(f"unknown plane mode {mode!r}; choose from {tuple(_PLANE_LAYOUTS)}")
    order, fold = _PLANE_LAYOUTS[mode]
    mid = tuple(dims[a] for a in order)
    return order, mid, (math.prod(mid[:fold]), math.prod(mid[fold:4]), mid[4])


def plane_flatten(G: Tensor, mode: str) -> Tensor:
    """Flatten (B,r,D,h,w) into channel-last sequences along one plane.

    hw: (B*D, h*w, r) row-major in (h,w); dh: (B*w, D*h, r); dw: (B*h, D*w, r);
    volume: (B, D*h*w, r) scanning depth, then rows, then columns.
    """
    order, _, seq = _plane_layout(mode, G.shape)
    return reshape(permute(G, order), seq)


def plane_unflatten(seq: Tensor, mode: str, dims: tuple) -> Tensor:
    """Exact inverse of `plane_flatten` for matching mode and (B,r,D,h,w)."""
    order, mid, expect = _plane_layout(mode, dims)
    if tuple(seq.shape) != expect:
        raise ShapeError(f"sequence shape {seq.shape} does not match {mode} layout {expect}")
    return permute(reshape(seq, mid), np.argsort(order))


def scan_stage(G: Tensor, adapter: TPMambaAdapter) -> Tensor:
    """Plane scans of (B,r,D,h,w) in the adapter's scan mode, each by its own
    scanner; tri_plane sums hw + dw + dh contributions."""
    dims = tuple(G.shape)
    out = None
    for plane, phi in zip(SCAN_MODES[adapter.cfg.adapter_scan_mode], adapter.scanners, strict=True):
        seq = plane_flatten(G, plane)
        scanned = mamba_block_forward(seq, phi)
        contrib = plane_unflatten(scanned, plane, dims)
        out = contrib if out is None else add(out, contrib)
    return out


def raise_dim(G: Tensor, adapter: TPMambaAdapter) -> Tensor:
    return conv3d(G, adapter.raise_w, adapter.raise_b)


def tp_mamba_forward(F: Tensor, adapter: TPMambaAdapter) -> Tensor:
    """Full adapter on slice-major features (B, D, C, h, w); residual output."""
    G = reduce_dim(permute(F, (0, 2, 1, 3, 4)), adapter)
    G = multiscale_depth_conv(G, adapter)
    G = scan_stage(G, adapter)
    return add(F, permute(raise_dim(G, adapter), (0, 2, 1, 3, 4)))
