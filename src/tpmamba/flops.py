"""Analytic flop counts for the candidate per-block adapters.

Multiply-adds count as 2 flops throughout.  All adapters operate on the
feature grid behind a patch-16 embedding: a (D,H,W) input yields
T = D * (H/16) * (W/16) feature tokens per block.

Closed forms (per ViT block):

  lora          three adapted attention projections carrying a fixed rank-4
                correction: T * 3 * (2*2*4*C).  This models the standard
                low-rank baseline; its rank is part of the baseline, not the
                adapter-rank argument.
  sa_adapter    global self-attention over all T tokens: scores against the
                full C-wide features (2*T^2*C), aggregation of rank-r values
                (2*T^2*r), plus the value down- and output up-projections
                (4*T*C*r).  Quadratic in T.
  conv3d_adapter  1x1x1 down to r, a 3^3 convolution at width r, 1x1x1 up.
  tp_mamba      (k,1,1) reduce, four dilated (k,1,1) branches, three plane
                scans at linear cost per token, (k,1,1) raise.  Linear in T.
                k, the scanner's expansion and conv kernel are the model's
                constants, the state width is TrainConfig's default and the
                delta rank follows the rank r.
"""

from __future__ import annotations

from .config import DEPTH_KERNEL, PATCH, SSM_D_CONV, SSM_EXPAND, TrainConfig, auto_dt_rank
from .errors import ConfigError

LORA_BASELINE_RANK = 4
LORA_BASELINE_PROJECTIONS = 3
SCAN_FLOPS_PER_STATE = 10  # discretize, input injection, state update, readout
SWEEP_DOUBLINGS = 3  # depth doublings after the input's own depth in `flops_sweep`

ADAPTER_KINDS = ("lora", "sa_adapter", "conv3d_adapter", "tp_mamba")


def _tokens(input_dhw: tuple) -> int:
    D, H, W = input_dhw
    return D * (H // PATCH) * (W // PATCH)


def flops_estimate(adapter_kind: str, input_dhw: tuple, C: int, r: int) -> float:
    """Flops added per ViT block by one adapter of the given kind."""
    T = _tokens(input_dhw)
    if adapter_kind == "lora":
        return float(T * LORA_BASELINE_PROJECTIONS * 4 * LORA_BASELINE_RANK * C)
    if adapter_kind == "sa_adapter":
        return float(2 * T * T * C + 2 * T * T * r + 4 * T * C * r)
    if adapter_kind == "conv3d_adapter":
        return float(4 * T * C * r + 2 * T * r * r * 27)
    if adapter_kind == "tp_mamba":
        k, N = DEPTH_KERNEL, TrainConfig.adapter_d_state
        E = SSM_EXPAND * r
        dtr = auto_dt_rank(r)
        per_token_block = (
            2 * r * 2 * E  # in-projection to (main, gate)
            + 2 * E * SSM_D_CONV  # causal depthwise conv
            + 2 * E * (dtr + 2 * N)  # delta/B/C projection
            + 2 * dtr * E  # delta up-projection
            + SCAN_FLOPS_PER_STATE * E * N  # selective scan
            + 4 * E  # gate activation and multiply
            + 2 * E * r  # out-projection
        )
        return float(
            2 * T * C * r * k  # reduce conv
            + 2 * T * r * r * k  # four dilated branches at r/4 each
            + 3 * T * per_token_block  # hw, dw, dh plane scans
            + 2 * T * r * C * k  # raise conv
        )
    raise ConfigError(f"unknown adapter kind {adapter_kind!r}; choose from {ADAPTER_KINDS}")


def gflops_estimate(adapter_kind: str, input_dhw: tuple, C: int, r: int) -> float:
    return flops_estimate(adapter_kind, input_dhw, C, r) / 1e9


def flops_sweep(input_dhw: tuple, C: int, r: int) -> list[dict]:
    """Rows of per-kind GFlops while the depth extent doubles."""
    D, H, W = input_dhw
    rows = []
    for i in range(SWEEP_DOUBLINGS + 1):
        dhw = (D * 2**i, H, W)
        row = {"D": dhw[0], "H": H, "W": W, "tokens": _tokens(dhw)}
        for kind in ADAPTER_KINDS:
            row[kind] = gflops_estimate(kind, dhw, C, r)
        rows.append(row)
    return rows
