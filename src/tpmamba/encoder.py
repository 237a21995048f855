"""Slice-as-batch ViT encoder with low-rank attention adapters.

The 3D input (B,1,D,H,W) becomes slice-major features (B, D, C, h, w).  The
2D patch embedding and 2D attention treat depth slices as batch entries;
depth mixing happens only inside the tri-plane adapters appended to each
block.  The backbone (patch embed, positional embedding, attention, MLP,
norms) is frozen; only the LoRA factors and the adapters train.  Both start
at exact zero contribution, so a freshly adapted encoder is bit-identical to
the frozen one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import MLP_RATIO, N_TAPS, PATCH, TrainConfig
from .errors import ShapeError
from .ops import normalize
from .tensor import (
    Module,
    Parameter,
    Tensor,
    add,
    gelu,
    linear,
    matmul,
    permute,
    recompute,
    reshape,
    scale,
    softmax,
    uniform_init,
)
from .triplane import TPMambaAdapter, tp_mamba_forward


@dataclass
class FrozenLinear(Module):
    weight: Parameter
    bias: Parameter

    @classmethod
    def init(cls, rng, prefix, out_dim, in_dim):
        return cls(
            weight=Parameter(f"{prefix}.weight", uniform_init(rng, (out_dim, in_dim), in_dim), trainable=False),
            bias=Parameter(f"{prefix}.bias", uniform_init(rng, (out_dim,), in_dim), trainable=False),
        )

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


@dataclass
class LoRALinear(Module):
    """Frozen linear map plus a trainable rank-r correction B@(A@x)*alpha/r."""

    base: FrozenLinear
    a_lora: Parameter
    b_lora: Parameter
    scale: float

    @classmethod
    def init(cls, rng, prefix, out_dim, in_dim, rank, alpha):
        return cls(
            base=FrozenLinear.init(rng, prefix, out_dim, in_dim),
            a_lora=Parameter(f"{prefix}.lora_a", uniform_init(rng, (rank, in_dim), in_dim)),
            b_lora=Parameter(f"{prefix}.lora_b", np.zeros((out_dim, rank))),
            scale=alpha / rank,
        )

    def __call__(self, x: Tensor) -> Tensor:
        base = self.base(x)
        delta = linear(linear(x, self.a_lora), self.b_lora)
        return add(base, scale(delta, self.scale))


@dataclass
class ViTBlock(Module):
    cfg: TrainConfig  # read for the head count
    ln1_g: Parameter
    ln1_b: Parameter
    q: LoRALinear
    k: FrozenLinear
    v: LoRALinear
    out: FrozenLinear
    ln2_g: Parameter
    ln2_b: Parameter
    mlp1: FrozenLinear
    mlp2: FrozenLinear
    adapter: TPMambaAdapter

    @classmethod
    def init(cls, cfg: TrainConfig, rng, prefix):
        C = cfg.C

        def frozen(name, data):
            return Parameter(f"{prefix}.{name}", data, trainable=False)

        return cls(
            cfg=cfg,
            ln1_g=frozen("ln1.gamma", np.ones(C)),
            ln1_b=frozen("ln1.beta", np.zeros(C)),
            q=LoRALinear.init(rng, f"{prefix}.attn.q", C, C, cfg.lora_rank, cfg.lora_alpha),
            k=FrozenLinear.init(rng, f"{prefix}.attn.k", C, C),
            v=LoRALinear.init(rng, f"{prefix}.attn.v", C, C, cfg.lora_rank, cfg.lora_alpha),
            out=FrozenLinear.init(rng, f"{prefix}.attn.out", C, C),
            ln2_g=frozen("ln2.gamma", np.ones(C)),
            ln2_b=frozen("ln2.beta", np.zeros(C)),
            mlp1=FrozenLinear.init(rng, f"{prefix}.mlp.fc1", MLP_RATIO * C, C),
            mlp2=FrozenLinear.init(rng, f"{prefix}.mlp.fc2", C, MLP_RATIO * C),
            adapter=TPMambaAdapter.init(cfg, rng, f"{prefix}.tpmamba"),
        )


@dataclass
class Encoder(Module):
    patch_w: Parameter
    patch_b: Parameter
    pos: Parameter
    blocks: list

    @classmethod
    def init(cls, cfg: TrainConfig, rng: np.random.Generator) -> "Encoder":
        """Positional embedding on the patch grid of the crop's H and W."""
        p, C = PATCH, cfg.C
        h0, w0 = cfg.crop[1] // p, cfg.crop[2] // p
        return cls(
            patch_w=Parameter("patch_embed.weight", uniform_init(rng, (C, p * p), p * p), trainable=False),
            patch_b=Parameter("patch_embed.bias", uniform_init(rng, (C,), p * p), trainable=False),
            pos=Parameter("pos_embed", 0.02 * rng.standard_normal((1, C, h0, w0)), trainable=False),
            blocks=[ViTBlock.init(cfg, rng, f"block{i}") for i in range(cfg.n_blocks)],
        )


def patch_embed_slices(X: Tensor, enc: Encoder) -> Tensor:
    """(B,1,D,H,W) -> (B, D, C, h, w) via non-overlapping patch projection."""
    B, one, D, H, W = X.shape
    p = PATCH
    if one != 1:
        raise ShapeError(f"expected a single input channel, got {one}")
    if H % p or W % p:
        raise ShapeError(f"H={H}, W={W} must be divisible by patch {p}")
    h, w = H // p, W // p
    x = reshape(X, (B * D, h, p, w, p))
    x = permute(x, (0, 1, 3, 2, 4))  # (BD, h, w, p, p)
    x = reshape(x, (B * D, h, w, p * p))
    x = linear(x, enc.patch_w, enc.patch_b)  # (BD, h, w, C)
    return permute(reshape(x, (B, D) + x.shape[1:]), (0, 1, 4, 2, 3))


def mhsa_lora(tokens: Tensor, blk: ViTBlock) -> Tensor:
    """Multi-head self-attention over (BD, T, C) tokens; LoRA on Q and V."""
    BD, Tn, C = tokens.shape
    nh = blk.cfg.n_heads
    hd = C // nh

    def heads(x):
        return permute(reshape(x, (BD, Tn, nh, hd)), (0, 2, 1, 3))

    q = heads(blk.q(tokens))
    k = heads(blk.k(tokens))
    v = heads(blk.v(tokens))
    att = softmax(scale(matmul(q, permute(k, (0, 1, 3, 2))), 1.0 / np.sqrt(hd)), axis=3)
    ctx = matmul(att, v)  # (BD, nh, T, hd)
    merged = reshape(permute(ctx, (0, 2, 1, 3)), (BD, Tn, C))
    return blk.out(merged)


def _attention(x: Tensor, blk: ViTBlock) -> Tensor:
    return mhsa_lora(normalize(x, "layer_norm", blk.ln1_g, blk.ln1_b), blk)


def _mlp(x: Tensor, blk: ViTBlock) -> Tensor:
    y = normalize(x, "layer_norm", blk.ln2_g, blk.ln2_b)  # freed once mlp2 returns
    return blk.mlp2(gelu(blk.mlp1(y)))


def vit_block_forward(F: Tensor, blk: ViTBlock) -> Tensor:
    """Pre-norm block on (B, D, C, h, w): attention and MLP residuals per
    slice, then the volume adapter.  Under a tape, the attention and MLP
    branches are each one `recompute` node that keeps only its input.  With
    no tape, every array lives exactly as long as in the block written flat
    (the MLP's output until the block returns), so inference allocates and
    frees in the same order: its peak RSS moves between heap layouts more
    than 10 MiB apart with that order."""
    B, D, C, h, w = F.shape
    x = permute(reshape(F, (B * D, C, h * w)), (0, 2, 1))  # tokens (BD, hw, C)
    attention = [blk.ln1_g, blk.ln1_b, *(p for m in (blk.q, blk.k, blk.v, blk.out) for p in m.parameters())]
    x = add(x, recompute(partial(_attention, blk=blk), [x], attention))
    mlp = [blk.ln2_g, blk.ln2_b, *blk.mlp1.parameters(), *blk.mlp2.parameters()]
    y = recompute(partial(_mlp, blk=blk), [x], mlp)
    x = add(x, y)
    out = reshape(permute(x, (0, 2, 1)), (B, D, C, h, w))
    return tp_mamba_forward(out, blk.adapter)


def encoder_forward(X: Tensor, enc: Encoder) -> list[Tensor]:
    """Chain all blocks; return the feature taps of the last N_TAPS blocks."""
    F = patch_embed_slices(X, enc)
    if F.shape[3:] != enc.pos.shape[2:]:
        raise ShapeError(f"feature grid {F.shape[3:]} does not match positional embedding {enc.pos.shape[2:]}")
    F = add(F, enc.pos)
    taps = []
    for i, blk in enumerate(enc.blocks):
        F = vit_block_forward(F, blk)
        if i >= len(enc.blocks) - N_TAPS:
            taps.append(F)
    return taps
