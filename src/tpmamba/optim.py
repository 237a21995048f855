"""AdamW with decoupled weight decay, plus the linear LR schedule."""

from __future__ import annotations

import numpy as np

from .config import LR_END
from .errors import NumericError
from .tensor import Parameter

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class AdamWState:
    """First/second moment buffers keyed by parameter name."""

    def __init__(self, params: list[Parameter]):
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params if p.trainable}
        self.v = {p.name: np.zeros_like(p.data) for p in params if p.trainable}


def adamw_step(
    params: list[Parameter],
    state: AdamWState,
    lr: float,
    weight_decay: float,
) -> None:
    """One update over the trainable parameters using their .grad buffers.

    Decay is decoupled: p -= lr*wd*p happens independently of the moment
    update, so a zero-gradient parameter still shrinks by exactly (1-lr*wd).
    """
    b1, b2 = ADAM_BETAS
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for p in params:
        if not p.trainable:
            continue
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"adamw_step: non-finite gradient in {p.name}")
        m = state.m[p.name]
        v = state.v[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        new = p.data.astype(np.float64)
        if weight_decay:
            new = new - lr * weight_decay * new
        new = new - lr * update
        p.data = new.astype(p.data.dtype)
        p.grad = None


def lr_schedule(epoch: int, epochs: int, lr_start: float) -> float:
    """Linear decay from lr_start at epoch 0 to `LR_END` = 0 at epoch ==
    epochs, one past the last epoch that trains: epoch epochs - 1 runs at
    lr_start / epochs.  Epochs outside [0, epochs] are clamped into it."""
    frac = min(max(epoch / max(epochs, 1), 0.0), 1.0)
    return lr_start + (LR_END - lr_start) * frac
