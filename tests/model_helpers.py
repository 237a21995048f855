"""Closed-form parameter counts, the model run with one piece swapped, and
the functions that record tape nodes.

The swaps go through module attributes the package already calls, so the
package needs no switch for them: the encoder calls `tp_mamba_forward` from
its own namespace, the scanner block calls `ssm.selective_scan`, and the
scan stage reads the adapter's config for its mode.
"""

import ast
import dataclasses
import inspect

import pytest

from tpmamba import encoder, ssm
from tpmamba.config import DEPTH_KERNEL, SCAN_MODES, SSM_D_CONV, SSM_EXPAND, auto_dt_rank
from tpmamba.triplane import scan_stage


def param_count_ssm(cfg) -> int:
    """Parameters of one SSMParams set."""
    r, N, k, dtr = cfg.adapter_r, cfg.adapter_d_state, SSM_D_CONV, auto_dt_rank(cfg.adapter_r)
    E = SSM_EXPAND * r
    return 2 * E * r + E * k + E + (dtr + 2 * N) * E + E * dtr + E + E * N + E + r * E


def param_count_adapter(cfg) -> int:
    """Parameters of one adapter: reduce + dilated branches + one scanner per
    plane of its scan mode + raise."""
    C, r, k = cfg.C, cfg.adapter_r, DEPTH_KERNEL
    n = len(cfg.adapter_dilations)
    rb = r // n
    n_scan = len(SCAN_MODES[cfg.adapter_scan_mode])
    return (k * C * r + r) + n * (k * r * rb + rb) + n_scan * param_count_ssm(cfg) + (k * r * C + C)


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
    """The adapter's scan stage in another scan mode, on the same parameters:
    each plane of `mode` is scanned by the adapter's own scanner for it."""
    by_plane = dict(zip(SCAN_MODES[adapter.cfg.adapter_scan_mode], adapter.scanners))
    cfg = dataclasses.replace(adapter.cfg, adapter_scan_mode=mode)
    scanners = [by_plane[plane] for plane in SCAN_MODES[mode]]
    return scan_stage(G, dataclasses.replace(adapter, cfg=cfg, scanners=scanners))


def recording_functions(*modules) -> set[str]:
    """`module.name` of each top-level function of these modules whose body calls `_record`."""
    return {
        f"{module.__name__}.{fn.name}"
        for module in modules
        for fn in ast.parse(inspect.getsource(module)).body
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(n, ast.Call) and "_record" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
            for n in ast.walk(fn)
        )
    }


def recorder_of(node) -> str:
    """`module.name` of the function that recorded a tape node."""
    return f"{node.backward.__module__}.{node.backward.__qualname__.split('.')[0]}"


def recorders_of(tape) -> set[str]:
    """`module.name` of the function that recorded each of the tape's nodes."""
    return {recorder_of(n) for n in tape.nodes}
