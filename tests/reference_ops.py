"""Tape nodes that only the tests use, built on the engine's `_record`.

They compose references for fused or saturating primitives: the composed
Dice+CE loss and log(softmax).  Each returns None for an input that needs no
gradient, like every primitive in the package.
"""

import numpy as np

from tpmamba import tensor as T


def log(a):
    return T._record((a,), np.log(a.data), lambda g: (g / a.data,))


def div(a, b):
    def backward(g):
        return (
            T._unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
            T._unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None,
        )

    return T._record((a, b), a.data / b.data, backward)


def whole_volume_upsample_hw(x, g):
    """`ops.upsample_hw`'s output for x and its input gradient for g, each
    pass formed on the whole volume: one flat W-pass GEMM and one H-pass
    matmul broadcast over (B, C, D)."""
    from tpmamba.data import _resample_axis

    B, C, D, H, W = x.shape
    Mh = _resample_axis(np.eye(H, dtype=x.dtype), 0, 2 * H)
    Mw = _resample_axis(np.eye(W, dtype=x.dtype), 0, 2 * W)
    out = np.matmul(Mh, (x.reshape(-1, W) @ Mw.T).reshape(B, C, D, H, 2 * W))
    gx = (np.matmul(Mh.T, g).reshape(-1, 2 * W) @ Mw).reshape(x.shape)
    return out, gx


def whole_volume_dice_ce(z, labels, DICE_EPS):
    """`seghead.dice_ce_loss`'s loss and logit gradient (for an upstream
    gradient of 1), every array formed over the whole volume: the softmax,
    the log-likelihood, the label picks and per-voxel terms, with the sums
    numpy takes over them."""
    B, K = z.shape[:2]
    dt = z.dtype.type
    p, m, total = T._softmax(z, 1)
    log_lik = np.empty(m.shape, dtype=z.dtype)
    for k in range(K):
        np.copyto(log_lik[:, 0], z[:, k], where=labels == k)
    log_lik -= m
    log_lik -= np.log(total)
    ce = -log_lik.mean()
    p_label = np.empty(labels.shape, dtype=p.dtype)
    for k in range(K):
        np.copyto(p_label, p[:, k], where=labels == k)
    p_sum = p.sum(axis=(0,) + tuple(range(2, z.ndim)))
    inter = np.bincount(labels.reshape(-1), weights=p_label.reshape(-1), minlength=K).astype(dt)
    eps = dt(DICE_EPS)
    den = p_sum + np.bincount(labels.reshape(-1), minlength=K).astype(dt) + eps
    d = (dt(2.0) * inter + eps) / den
    loss = np.asarray(ce + (dt(1.0) - d.mean()), dtype=z.dtype)
    a, b, inv_m = d / (K * den), dt(2.0) / (K * den), dt(1.0 / labels.size)
    bp = np.empty(labels.shape, dtype=p.dtype)
    for k in range(K):
        np.multiply(p[:, k], b[k], out=bp, where=labels == k)
    s = np.einsum("bk...,k->b...", p, a) - bp
    bp += inv_m
    for k in range(K):
        p[:, k] *= (a[k] + inv_m) - s
        np.subtract(p[:, k], bp, out=p[:, k], where=labels == k)
    return loss, p
