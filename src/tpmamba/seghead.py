"""Decoder, training loss, evaluation metric and sliding-window inference."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor
from .config import MAX_CLASSES, N_TAPS, PATCH, TrainConfig
from .data import _symmetric_pads
from .errors import InputError, ShapeError
from .ops import conv3d, normalize, upsample_hw
from .tensor import Module, Parameter, Tensor, concat, gelu, permute, recompute, uniform_init

DICE_EPS = 1e-5
DECODER_STAGES = PATCH.bit_length() - 1  # 2x upsampling stages: 2**DECODER_STAGES recovers PATCH
WINDOW_OVERLAP = 0.5  # fraction of a sliding window shared with its neighbour
GAUSSIAN_SIGMA_SCALE = 0.125  # blending weight sigma per window extent
LOSS_CHUNK = 2**13  # voxels per run of the loss's passes over its logits


@dataclass
class DecoderStage(Module):
    conv_w: Parameter
    conv_b: Parameter
    norm_g: Parameter
    norm_b: Parameter


@dataclass
class Decoder(Module):
    """DECODER_STAGES conv+norm+GELU stages with a 2x upsample between each
    pair and one after the 1x1x1 head recover the patch-downsampled H,W.

    Depth is never downsampled by the slice-wise encoder, so only H and W are
    upsampled; the k=3 stage convolutions provide inter-slice mixing.  Stage
    widths taper (C/2, C/4, C/8, C/16, at least 4) so the decoder stays small
    next to the frozen backbone.
    """

    reduce_w: Parameter
    reduce_b: Parameter
    stages: list
    head_w: Parameter
    head_b: Parameter

    @classmethod
    def init(cls, cfg: TrainConfig, rng):
        C, K = cfg.C, cfg.n_classes
        # floor of 4 keeps tiny toy widths from collapsing to 1 channel
        widths = [max(C // 2 ** (i + 1), 4) for i in range(DECODER_STAGES)]

        def par(name, data):
            return Parameter(f"decoder.{name}", data)

        reduce_w = par("reduce.weight", uniform_init(rng, (widths[0], N_TAPS * C, 1, 1, 1), N_TAPS * C))
        reduce_b = par("reduce.bias", uniform_init(rng, (widths[0],), N_TAPS * C))
        stages = []
        for i, cin in enumerate(widths):
            cout = widths[min(i + 1, DECODER_STAGES - 1)]
            fan = cin * 27
            stages.append(DecoderStage(
                conv_w=par(f"stage{i}.conv.weight", uniform_init(rng, (cout, cin, 3, 3, 3), fan)),
                conv_b=par(f"stage{i}.conv.bias", uniform_init(rng, (cout,), fan)),
                norm_g=par(f"stage{i}.norm.gamma", np.ones(cout)),
                norm_b=par(f"stage{i}.norm.beta", np.zeros(cout)),
            ))
        last = widths[-1]
        return cls(
            reduce_w=reduce_w,
            reduce_b=reduce_b,
            stages=stages,
            head_w=par("head.weight", uniform_init(rng, (K, last, 1, 1, 1), last)),
            head_b=par("head.bias", uniform_init(rng, (K,), last)),
        )


def _norm_gelu(x: Tensor, stage: DecoderStage) -> Tensor:
    return gelu(normalize(x, "instance_norm", stage.norm_g, stage.norm_b))


def decoder_forward(taps: list[Tensor], dec: Decoder) -> Tensor:
    """Fuse N_TAPS encoder taps (B, D, C, h, w) into full-resolution logits.
    Under a tape, each stage's norm and GELU are one `recompute` node that
    keeps only the convolution's output."""
    if len(taps) != N_TAPS:
        raise ShapeError(f"decoder expects {N_TAPS} taps, got {len(taps)}")
    shapes = {tuple(t.shape) for t in taps}
    if len(shapes) != 1:
        raise ShapeError(f"tap shapes differ: {sorted(shapes)}")
    x = permute(concat(taps, axis=2), (0, 2, 1, 3, 4))  # (B, N_TAPS*C, D, h, w)
    x = conv3d(x, dec.reduce_w, dec.reduce_b)
    for i, stage in enumerate(dec.stages):
        if i:
            x = upsample_hw(x)
        x = conv3d(x, stage.conv_w, stage.conv_b)
        x = recompute(functools.partial(_norm_gelu, stage=stage), [x], [stage.norm_g, stage.norm_b])
    # the 1x1x1 head commutes with the upsample, whose weights sum to 1, so
    # it runs on a quarter of the voxels and the upsample moves K channels;
    # the last stage's activation is dropped before the upsample runs
    x = conv3d(x, dec.head_w, dec.head_b)
    return upsample_hw(x)


def _pairwise(n: int, leaf: Callable, lo: int = 0):
    """numpy's pairwise sum of n values from index `lo`, from the sums that
    `leaf(start, stop)` gives of runs of at most LOSS_CHUNK values, called
    left to right.  numpy splits a run of more than 128 values at
    n//2 - (n//2) % 8 and sums each part alike, so a run it reaches whole
    sums to the same bits when numpy reduces that run alone."""
    if n <= LOSS_CHUNK:
        return leaf(lo, lo + n)
    half = n // 2 - n // 2 % 8
    return _pairwise(half, leaf, lo) + _pairwise(n - half, leaf, lo + half)


def dice_ce_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy plus soft Dice, both over all voxels of the batch, as
    one tape node.

    The Dice average includes the background class during training; the
    evaluation metric below excludes it.  With p the softmax over the K
    classes, y the one-hot labels and M the voxel count, per class
    den_k = sum(p_k) + sum(y_k) + eps and d_k = (2 sum(p_k y_k) + eps) / den_k:

        loss = -mean(log p_label) + 1 - mean_k(d_k)
        dloss/dlogit_j = p_j (1/M + a_j - s) - y_j (1/M + b_j p_j)

    with a_k = d_k / (K den_k), b_k = 2 / (K den_k) and, per voxel,
    s = sum_k(a_k p_k) - b_label p_label.  The node keeps no volume-sized
    array of its own: it reads `logits.data`, which the caller holds, and
    the labels as u8.  Both passes run over each sample's voxels in runs of
    at most LOSS_CHUNK, forming p there with `tensor.softmax`'s kernel,
    `tensor._softmax`; each class's voxels are picked with one `labels == k`
    mask at a time.  The forward's sums keep the whole-volume bits: the
    log-likelihood is averaged over one buffer, p's class sums follow
    numpy's pairwise order (`_pairwise`), and the label sums continue one
    `bincount` from run to run.
    """
    B, K = logits.shape[0], logits.shape[1]
    if labels.shape != (B,) + tuple(logits.shape[2:]):
        raise ShapeError(f"labels shape {labels.shape} incompatible with logits {logits.shape}")
    if labels.dtype.kind not in "biu":
        raise InputError(f"labels must be integers, got {labels.dtype}")
    if K > MAX_CLASSES:
        raise ShapeError(f"labels are u8, so at most {MAX_CLASSES} classes; the logits have {K}")
    if labels.min() < 0 or labels.max() >= K:
        raise InputError(f"labels must lie in [0, {K - 1}], got max {labels.max()}")
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    z = logits.data
    dt = z.dtype.type
    n = labels.size // B
    zr, lr = z.reshape(B, K, n), labels.reshape(B, n)  # (sample, class, voxel)
    log_lik = np.empty((B, n), dtype=z.dtype)
    classes = np.arange(K)
    inter = np.zeros(K)  # sum of p_label per label, in bincount's f64
    counts = np.zeros(K, dtype=np.intp)

    def run(b, lo, hi):
        nonlocal inter, counts
        p, m, total = tensor._softmax(zr[b, :, lo:hi], 0)
        lab, ll = lr[b, lo:hi], log_lik[b, lo:hi]
        p_label = np.empty(hi - lo, dtype=p.dtype)
        for k in range(K):
            mask = lab == k
            np.copyto(ll, zr[b, k, lo:hi], where=mask)
            np.copyto(p_label, p[k], where=mask)
        # log p_label as shifted logit minus log-sum-exp, so it cannot underflow
        ll -= m[0]
        ll -= np.log(total[0], out=total[0])
        # bincount adds in voxel order from 0, so given the sums so far first it continues them
        inter = np.bincount(np.concatenate((classes, lab)), weights=np.concatenate((inter, p_label)), minlength=K)
        counts += np.bincount(lab, minlength=K)
        return np.add.reduce(p, axis=1)

    # numpy adds each sample's pairwise class sums in sample order
    p_sum = sum(_pairwise(n, functools.partial(run, b)) for b in range(B))
    ce = -log_lik.mean()
    del log_lik
    eps = dt(DICE_EPS)
    den = p_sum + counts.astype(dt) + eps
    d = (dt(2.0) * inter.astype(dt) + eps) / den
    loss = ce + (dt(1.0) - d.mean())

    def backward(g):
        a, b, inv_m = d / (K * den), dt(2.0) / (K * den), dt(1.0 / labels.size)
        shifted = a + inv_m
        grad = np.empty(z.shape, dtype=z.dtype)
        zr, lr, gr = z.reshape(B, K, n), labels.reshape(B, n), grad.reshape(B, K, n)
        for i, lo in itertools.product(range(B), range(0, n, LOSS_CHUNK)):
            p = tensor._softmax(zr[i, :, lo : lo + LOSS_CHUNK], 0)[0]
            lab = lr[i, lo : lo + LOSS_CHUNK]
            bp = np.empty(lab.shape, dtype=p.dtype)  # b_label p_label, then 1/M + b_label p_label
            for k in range(K):
                np.multiply(p[k], b[k], out=bp, where=lab == k)
            s = np.einsum("k...,k->...", p, a)
            s -= bp
            bp += inv_m
            # p_k ((a_k + 1/M) - s) - y_k (1/M + b_k p_k), in p's buffer
            t = np.empty_like(s)
            for k in range(K):
                p[k] *= np.subtract(shifted[k], s, out=t)
                np.subtract(p[k], bp, out=p[k], where=lab == k)
            np.multiply(p, g, out=gr[i, :, lo : lo + LOSS_CHUNK])
        return (grad,)

    # looked up on the module, so a wrapper installed on tensor._record
    # (the benchmark's tracer) sees this node like every other primitive
    return tensor._record((logits,), np.asarray(loss, dtype=z.dtype), backward)


def dice_score(pred: np.ndarray, gt: np.ndarray, K: int) -> tuple[np.ndarray, float]:
    """Hard per-class Dice for classes 1..K-1 plus their mean.

    Convention: both masks empty -> 1.0, exactly one empty -> 0.0, so small
    structures on crops keep a defined score.  Background is excluded.
    """
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction shape {pred.shape} != labels shape {gt.shape}")
    inter = np.bincount(gt[pred == gt], minlength=K)[1:K]
    total = np.bincount(pred.reshape(-1), minlength=K)[1:K] + np.bincount(gt.reshape(-1), minlength=K)[1:K]
    scores = np.divide(2.0 * inter, total, out=np.ones(K - 1), where=total > 0)
    return scores, float(scores.mean())


def argmax_labels(logits: np.ndarray) -> np.ndarray:
    """(B, K, D, H, W) scores, K <= 256 -> (B, D, H, W) u8 argmax over K,
    taken one depth slice at a time so no full-volume intp array is formed."""
    B, _, D, H, W = logits.shape
    labels = np.empty((B, D, H, W), dtype=np.uint8)
    for z in range(D):
        labels[:, z] = logits[:, :, z].argmax(axis=1)
    return labels


@dataclass
class SegmentationOutput:
    logits: np.ndarray  # (1, K, D, H, W)
    labels: np.ndarray  # argmax over K, (1, D, H, W) u8


def _window_starts(extent: int, win: int, stride: int) -> list[int]:
    """Stride-spaced starts with the final window snapped to the boundary."""
    if extent <= win:
        return [0]
    starts = list(range(0, extent - win + 1, stride))
    if starts[-1] != extent - win:
        starts.append(extent - win)
    return starts


def gaussian_importance(window: tuple) -> np.ndarray:
    """Separable Gaussian weight map, sigma = extent * GAUSSIAN_SIGMA_SCALE per axis."""
    axes = []
    for n in window:
        center = (n - 1) / 2.0
        sigma = max(n * GAUSSIAN_SIGMA_SCALE, 1e-8)
        ax = np.exp(-0.5 * ((np.arange(n) - center) / sigma) ** 2)
        axes.append(ax)
    out = axes[0][:, None, None] * axes[1][None, :, None] * axes[2][None, None, :]
    return out / out.max()


def sliding_window_infer(
    volume: np.ndarray,
    model: Callable[[np.ndarray], np.ndarray],
    window: tuple,
) -> SegmentationOutput:
    """Cover (1,1,D,H,W) with overlapping windows, Gaussian-blend the logits.

    `model` maps a (1,1,d,h,w) window to (1,K,d,h,w) logits; the returned
    array is read, never written.  Windows are visited in a fixed order so
    accumulation is deterministic.  While `model` runs, the function holds
    only the (K, D, H, W) accumulator and the weight map: windows are views
    of `volume`, each window's logits are added into the accumulator one
    depth slice at a time and released before the next call, and after the
    last window each depth slice's weight sums are formed and divided out.
    The volume is copied only when an axis is shorter than the window: such
    an axis is padded symmetrically with the volume's minimum intensity and
    cropped back afterwards.  Labels are the u8 argmax over K.
    """
    if volume.ndim != 5 or volume.shape[0] != 1 or volume.shape[1] != 1:
        raise InputError(f"expected volume of shape (1,1,D,H,W), got {volume.shape}")
    if volume.size == 0:
        raise InputError("empty volume")
    D, H, W = volume.shape[2:]
    pads = _symmetric_pads((D, H, W), window)
    padded = volume
    if any(p != (0, 0) for p in pads):
        padded = np.pad(
            volume,
            ((0, 0), (0, 0)) + tuple(pads),
            mode="constant",
            constant_values=float(volume.min()),
        )
    pD, pH, pW = padded.shape[2:]
    stride = tuple(max(int(round(w * (1.0 - WINDOW_OVERLAP))), 1) for w in window)
    weight = gaussian_importance(window)

    starts = [_window_starts(n, w, s) for n, w, s in zip((pD, pH, pW), window, stride)]
    regions = [tuple(slice(s, s + w) for s, w in zip(corner, window)) for corner in itertools.product(*starts)]

    # Blend in the logits' float dtype.
    acc: Optional[np.ndarray] = None
    for region in regions:
        logits = np.asarray(model(padded[(slice(None), slice(None)) + region]))
        if acc is None:
            # checked on the first window, so it fails before the (K, D, H, W) accumulator exists
            if logits.shape[1] > MAX_CLASSES:
                raise ShapeError(f"labels are u8, so at most {MAX_CLASSES} classes; the model gave {logits.shape[1]}")
            dtype = np.result_type(logits.dtype, np.float32)
            weight = weight.astype(dtype, copy=False)
            acc = np.zeros((logits.shape[1], pD, pH, pW), dtype=dtype)
        d0, hw = region[0].start, region[1:]
        for z in range(window[0]):
            acc[(slice(None), d0 + z) + hw] += logits[0, :, z] * weight[z]
        del logits  # the next model call runs without this window's logits
    # each depth slice's weight sums, added over the regions in window order
    for z in range(pD):
        norm = np.zeros((pH, pW), dtype=dtype)
        for dz, hs, ws in regions:
            if dz.start <= z < dz.stop:
                norm[hs, ws] += weight[z - dz.start]
        np.divide(acc[:, z], norm, out=acc[:, z])
    blended = acc[None, :, pads[0][0] : pads[0][0] + D, pads[1][0] : pads[1][0] + H, pads[2][0] : pads[2][0] + W]
    return SegmentationOutput(logits=blended, labels=argmax_labels(blended))
