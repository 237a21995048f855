"""Built-in verification suites behind `tpmamba check`.

Each suite returns (name, passed, detail) triples; the CLI prints one line
per check and exits non-zero when anything fails.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .ops import conv1d_depthwise, conv3d, grad_check, normalize, upsample_hw
from .ssm import MambaBlockConfig, SSMParams, mamba_block_forward, selective_scan, selective_scan_sequential
from .tensor import Parameter, Tensor
from .triplane import TPMambaAdapter, TPMambaConfig, plane_flatten, plane_unflatten, tp_mamba_forward

Check = tuple[str, bool, str]


def _scan_case(rng, b, L, E, N, dtype):
    u = Tensor(rng.standard_normal((b, L, E)).astype(dtype))
    delta = Tensor(np.log1p(np.exp(rng.standard_normal((b, L, E)))).astype(dtype))
    A = Tensor((-np.exp(rng.standard_normal((E, N)) * 0.5)).astype(dtype))
    B = Tensor(rng.standard_normal((b, L, N)).astype(dtype))
    C = Tensor(rng.standard_normal((b, L, N)).astype(dtype))
    D = Tensor(rng.standard_normal(E).astype(dtype))
    return u, delta, A, B, C, D


def check_scan(n_configs: int = 24) -> list[Check]:
    rng = np.random.default_rng(42)
    lengths = [1, 2, 7, 64, 513]
    worst = {"f32": 0.0, "f64": 0.0}
    exact = True
    for i in range(n_configs):
        L = lengths[i % len(lengths)]
        b = int(rng.integers(1, 3))
        E = int(rng.integers(2, 9))
        N = int(rng.integers(2, 9))
        for dtype, key in ((np.float32, "f32"), (np.float64, "f64")):
            args = _scan_case(rng, b, L, E, N, dtype)
            fast = selective_scan(*args).data
            slow = selective_scan_sequential(*args).data
            denom = max(1.0, float(np.abs(slow).max()))
            worst[key] = max(worst[key], float(np.abs(fast - slow).max()) / denom)
            exact &= np.array_equal(fast, slow)
    return [
        ("scan forward bit-identical to oracle", exact, f"{2 * n_configs} configs, f32 and f64"),
        ("scan equivalence f32 < 1e-5", worst["f32"] < 1e-5, f"max rel err {worst['f32']:.3e}"),
        ("scan equivalence f64 < 1e-10", worst["f64"] < 1e-10, f"max rel err {worst['f64']:.3e}"),
    ]


def check_grad() -> list[Check]:
    rng = np.random.default_rng(7)
    checks: list[Check] = []

    a = Parameter("a", rng.standard_normal((3, 4)), dtype=np.float64)
    b = Parameter("b", rng.standard_normal((4, 2)), dtype=np.float64)
    err = grad_check(lambda: T.tsum(T.matmul(a.value, b.value)), [a, b])
    checks.append(("matmul grad < 1e-6", err < 1e-6, f"err {err:.3e}"))

    x = Parameter("x", rng.standard_normal((1, 2, 3, 2, 2)), dtype=np.float64)
    w = Parameter("w", rng.standard_normal((2, 2, 3, 1, 1)), dtype=np.float64)
    err = grad_check(
        lambda: T.tsum(T.square(conv3d(x.value, w.value, padding=(1, 0, 0)))), [x, w], max_coords=8
    )
    checks.append(("conv3d grad < 1e-3", err < 1e-3, f"err {err:.3e}"))

    xc = Parameter("xc", rng.standard_normal((1, 2, 6)), dtype=np.float64)
    wc = Parameter("wc", rng.standard_normal((2, 4)), dtype=np.float64)
    err = grad_check(lambda: T.tsum(T.square(conv1d_depthwise(xc.value, wc.value))), [xc, wc])
    checks.append(("causal depthwise conv grad < 1e-3", err < 1e-3, f"err {err:.3e}"))

    g = Parameter("g", 1 + 0.1 * rng.standard_normal(5), dtype=np.float64)
    be = Parameter("be", rng.standard_normal(5), dtype=np.float64)
    xn = Parameter("xn", rng.standard_normal((3, 5)), dtype=np.float64)
    wgt = Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
    err = grad_check(
        lambda: T.tsum(T.mul(normalize(xn.value, "layer_norm", g.value, be.value), wgt)),
        [xn, g, be],
    )
    checks.append(("layer_norm grad < 1e-3", err < 1e-3, f"err {err:.3e}"))

    xu = Parameter("xu", rng.standard_normal((1, 1, 2, 3, 3)), dtype=np.float64)
    wu = Tensor(rng.standard_normal((1, 1, 2, 6, 6)), dtype=np.float64)
    err = grad_check(lambda: T.tsum(T.mul(upsample_hw(xu.value, 2), wu)), [xu], max_coords=8)
    checks.append(("upsample grad < 1e-3", err < 1e-3, f"err {err:.3e}"))

    cfg = MambaBlockConfig(d_model=4, d_state=2)
    params = SSMParams.init(cfg, rng, "blk", dtype=np.float64)
    params.w_out.data = 0.1 * rng.standard_normal(params.w_out.shape)
    seq = Tensor(rng.standard_normal((1, 6, 4)), dtype=np.float64)
    err = grad_check(
        lambda: T.tsum(T.square(mamba_block_forward(seq, params))), params.parameters(), max_coords=4
    )
    checks.append(("mamba block grad < 1e-3", err < 1e-3, f"err {err:.3e}"))

    acfg = TPMambaConfig(C=8, r=4, d_state=2)
    adapter = TPMambaAdapter.init(acfg, rng, "tp", dtype=np.float64)
    adapter.raise_w.data = 0.3 * rng.standard_normal(adapter.raise_w.shape)
    for phi in (adapter.phi_hw, adapter.phi_dw, adapter.phi_dh):
        phi.w_out.data = 0.3 * rng.standard_normal(phi.w_out.shape)
    F = Tensor(rng.standard_normal((3, 8, 2, 2)), dtype=np.float64)
    err = grad_check(
        lambda: T.tsum(T.square(tp_mamba_forward(F, adapter, dims=(1, 3)))),
        adapter.parameters(),
        max_coords=3,
    )
    checks.append(("tri-plane adapter grad < 1e-3", err < 1e-3, f"err {err:.3e}"))
    return checks


def check_roundtrip() -> list[Check]:
    rng = np.random.default_rng(11)
    checks: list[Check] = []

    ok = True
    for mode in ("hw", "dh", "dw", "volume"):
        for _ in range(5):
            dims = tuple(int(rng.integers(1, 5)) for _ in range(5))
            G = Tensor(rng.standard_normal(dims).astype(np.float32))
            back = plane_unflatten(plane_flatten(G, mode), mode, dims)
            ok &= np.array_equal(back.data, G.data)
    checks.append(("plane flatten/unflatten bit-exact", bool(ok), "4 modes x 5 shapes"))

    with tempfile.TemporaryDirectory() as td:
        p1 = Path(td) / "a.ckpt"
        p2 = Path(td) / "b.ckpt"
        arrays = {
            "w1": rng.standard_normal((3, 4)).astype(np.float32),
            "w2": rng.standard_normal(7).astype(np.float64),
        }
        save_checkpoint(p1, arrays, {"seed": 1}, 1)
        loaded, cfg, seed = load_checkpoint(p1)
        save_checkpoint(p2, loaded, cfg, seed)
        same = p1.read_bytes() == p2.read_bytes()
        exact = all(np.array_equal(arrays[k], loaded[k]) for k in arrays)
        checks.append(("checkpoint save/load/save byte-identical", same and exact, ""))
    return checks


SUITES = {"grad": check_grad, "scan": check_scan, "roundtrip": check_roundtrip}


def run_suite(name: str) -> list[Check]:
    if name == "all":
        out = []
        for key in ("grad", "scan", "roundtrip"):
            out.extend(SUITES[key]())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from grad, scan, roundtrip, all")
    return SUITES[name]()
