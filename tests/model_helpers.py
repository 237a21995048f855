"""Closed-form parameter counts, and the model run with one piece swapped.

The swaps go through module attributes the package already calls, so the
package needs no switch for them: the encoder calls `tp_mamba_forward` from
its own namespace, the scanner block calls `ssm.selective_scan`, and the
scan stage reads the adapter's config for its mode.
"""

import dataclasses

import pytest

from tpmamba import encoder, ssm
from tpmamba.config import DEPTH_KERNEL, SSM_D_CONV, SSM_EXPAND, auto_dt_rank
from tpmamba.triplane import scan_stage


def param_count_ssm(cfg) -> int:
    """Parameters of one SSMParams set."""
    r, N, k, dtr = cfg.adapter_r, cfg.adapter_d_state, SSM_D_CONV, auto_dt_rank(cfg.adapter_r)
    E = SSM_EXPAND * r
    return 2 * E * r + E * k + E + (dtr + 2 * N) * E + E * dtr + E + E * N + E + r * E


def param_count_adapter(cfg) -> int:
    """Parameters of one adapter: reduce + dilated branches + 3 scanners + raise."""
    C, r, k = cfg.C, cfg.adapter_r, DEPTH_KERNEL
    n = len(cfg.adapter_dilations)
    rb = r // n
    return (k * C * r + r) + n * (k * r * rb + rb) + 3 * param_count_ssm(cfg) + (k * r * C + C)


def without_adapters(fn, *args):
    """fn(*args) with every encoder block's adapter replaced by the identity."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(encoder, "tp_mamba_forward", lambda F, adapter: F)
        return fn(*args)


def with_sequential_scan(fn, *args):
    """fn(*args) with the scanner blocks running the per-step oracle scan."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ssm, "selective_scan", ssm.selective_scan_sequential)
        return fn(*args)


def scan_in_mode(G, adapter, mode):
    """The adapter's scan stage in another scan mode, on the same parameters."""
    cfg = dataclasses.replace(adapter.cfg, adapter_scan_mode=mode)
    return scan_stage(G, dataclasses.replace(adapter, cfg=cfg))
