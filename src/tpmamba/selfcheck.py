"""Built-in verification suites behind `tpmamba check` and the acceptance tests.

`scan_oracle_errors`, `gradient_errors` and `plane_roundtrip_exact` measure;
the suites turn their results into (name, passed, detail) triples, and the
CLI prints one line per check and exits non-zero when anything fails.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig
from .encoder import Encoder, vit_block_forward
from .ops import conv1d_depthwise, conv3d, grad_check, normalize, upsample_hw
from .seghead import Decoder, decoder_forward, dice_ce_loss
from .ssm import SSMParams, mamba_block_forward, selective_scan, selective_scan_sequential
from .tensor import Parameter, Tensor
from .triplane import TPMambaAdapter, plane_flatten, plane_unflatten, tp_mamba_forward

Check = tuple[str, bool, str]

SCAN_TOLERANCE = {"f32": 1e-5, "f64": 1e-10}

# the model cases' config: width 8 in 2 heads, scanners of width 4 with 2 states
TOY = TrainConfig(C=8, n_heads=2, lora_rank=2, lora_alpha=2.0, adapter_r=4, adapter_d_state=2, crop=(4, 32, 32))


def grad_tolerance(case: str) -> float:
    """Bound on a gradient case's error: matmul is exact up to rounding."""
    return 1e-6 if case == "matmul" else 1e-3


def _scan_case(rng, b, L, E, N, dtype):
    u = Tensor(rng.standard_normal((b, L, E)).astype(dtype))
    delta = Tensor(np.log1p(np.exp(rng.standard_normal((b, L, E)))).astype(dtype))
    A = Tensor((-np.exp(rng.standard_normal((E, N)) * 0.5)).astype(dtype))
    B = Tensor(rng.standard_normal((b, L, N)).astype(dtype))
    C = Tensor(rng.standard_normal((b, L, N)).astype(dtype))
    D = Tensor(rng.standard_normal(E).astype(dtype))
    return u, delta, A, B, C, D


def scan_oracle_errors(seed: int, n_configs: int) -> tuple[dict[str, float], bool]:
    """`selective_scan` against the sequential oracle on random configs.

    Config i has length (1, 2, 7, 64, 513)[i % 5], batch 1-3 and E, N in 2-8,
    run at f32 and f64.  Returns the worst relative error per dtype and
    whether every forward was byte-identical, so -0 against +0 counts.
    """
    rng = np.random.default_rng(seed)
    lengths = [1, 2, 7, 64, 513]
    worst = {"f32": 0.0, "f64": 0.0}
    exact = True
    for i in range(n_configs):
        L = lengths[i % len(lengths)]
        b = int(rng.integers(1, 4))
        E = int(rng.integers(2, 9))
        N = int(rng.integers(2, 9))
        for dtype, key in ((np.float32, "f32"), (np.float64, "f64")):
            args = _scan_case(rng, b, L, E, N, dtype)
            fast = selective_scan(*args).data
            slow = selective_scan_sequential(*args).data
            denom = max(1.0, float(np.abs(slow).max()))
            worst[key] = max(worst[key], float(np.abs(fast - slow).max()) / denom)
            exact &= fast.tobytes() == slow.tobytes()
    return worst, bool(exact)


def gradient_errors(seed: int) -> dict[str, float]:
    """f64 tape gradients against central differences, one error per case.

    The cases run in a fixed order from one generator, so each draws the
    same data whatever cases follow it.
    """
    rng = np.random.default_rng(seed)
    f64 = np.float64
    results = {}

    a = Parameter("a", rng.standard_normal((3, 4)), dtype=f64)
    b = Parameter("b", rng.standard_normal((4, 2)), dtype=f64)
    results["matmul"] = grad_check(lambda: T.tsum(T.matmul(a, b)), [a, b])

    x = Parameter("x", rng.standard_normal((1, 2, 3, 2, 2)), dtype=f64)
    w = Parameter("w", rng.standard_normal((2, 2, 3, 1, 1)), dtype=f64)
    wb = Parameter("wb", rng.standard_normal(2), dtype=f64)
    results["conv3d"] = grad_check(
        lambda: T.tsum(T.square(conv3d(x, w, wb, dilation=(2, 1, 1)))),
        [x, w, wb],
        max_coords=8,
    )

    xc = Parameter("xc", rng.standard_normal((1, 6, 3)), dtype=f64)
    wc = Parameter("wc", rng.standard_normal((3, 4)), dtype=f64)
    bc = Parameter("bc", rng.standard_normal(3), dtype=f64)
    results["conv1d_depthwise"] = grad_check(
        lambda: T.tsum(T.square(conv1d_depthwise(xc, wc, bc))), [xc, wc, bc]
    )

    for kind, shape, cdim in (("layer_norm", (3, 5), 5), ("instance_norm", (1, 2, 2, 3, 3), 2)):
        xn = Parameter("xn", rng.standard_normal(shape), dtype=f64)
        gg = Parameter("gg", 1 + 0.1 * rng.standard_normal(cdim), dtype=f64)
        bb = Parameter("bb", rng.standard_normal(cdim), dtype=f64)
        wgt = Tensor(rng.standard_normal(shape), dtype=f64)
        results[kind] = grad_check(
            lambda xn=xn, gg=gg, bb=bb, kind=kind, wgt=wgt: T.tsum(
                T.mul(normalize(xn, kind, gg, bb), wgt)
            ),
            [xn, gg, bb],
            max_coords=8,
        )

    xu = Parameter("xu", rng.standard_normal((1, 1, 2, 3, 3)), dtype=f64)
    wu = Tensor(rng.standard_normal((1, 1, 2, 6, 6)), dtype=f64)
    results["upsample_hw"] = grad_check(lambda: T.tsum(T.mul(upsample_hw(xu), wu)), [xu], max_coords=8)

    # full tri-plane adapter with every zero-init path given signal
    adapter = TPMambaAdapter.init(TOY, rng, "tp", dtype=f64)
    for p in (adapter.raise_w, adapter.phi_hw.w_out, adapter.phi_dw.w_out, adapter.phi_dh.w_out):
        p.data = 0.3 * rng.standard_normal(p.shape)
    F = Tensor(rng.standard_normal((1, 3, 8, 2, 2)), dtype=f64)
    wgt = Tensor(rng.standard_normal((1, 3, 8, 2, 2)), dtype=f64)
    results["tp_mamba_adapter"] = grad_check(
        lambda: T.tsum(T.mul(tp_mamba_forward(F, adapter), wgt)), adapter.parameters(), max_coords=3
    )

    # one full ViT block over its trainables
    blk = Encoder.init(TOY, rng, dtype=f64).blocks[0]
    ad = blk.adapter
    for p in (ad.raise_w, blk.q.b_lora, blk.v.b_lora, ad.phi_hw.w_out, ad.phi_dw.w_out, ad.phi_dh.w_out):
        p.data = 0.2 * rng.standard_normal(p.shape)
    Fb = Tensor(rng.standard_normal((1, 3, 8, 2, 2)), dtype=f64)
    wb2 = Tensor(rng.standard_normal((1, 3, 8, 2, 2)), dtype=f64)
    results["vit_block"] = grad_check(
        lambda: T.tsum(T.mul(vit_block_forward(Fb, blk), wb2)), blk.partition()[0], max_coords=3
    )

    dec = Decoder.init(TOY, rng, dtype=f64)
    taps = [Tensor(rng.standard_normal((1, 2, 8, 1, 1)), dtype=f64) for _ in range(4)]
    wd = Tensor(rng.standard_normal((1, 2, 2, 16, 16)), dtype=f64)
    results["decoder"] = grad_check(
        lambda: T.tsum(T.mul(decoder_forward(taps, dec), wd)), dec.parameters(), max_coords=3
    )

    labels = rng.integers(0, 2, (1, 4, 4, 4))
    P = Parameter("logits", 0.5 * rng.standard_normal((1, 2, 4, 4, 4)), dtype=f64)
    results["dice_ce_loss"] = grad_check(lambda: dice_ce_loss(P, labels), [P], max_coords=10)

    params = SSMParams.init(TOY, rng, "blk", dtype=f64)
    params.w_out.data = 0.1 * rng.standard_normal(params.w_out.shape)
    seq = Tensor(rng.standard_normal((1, 6, 4)), dtype=f64)
    results["mamba_block"] = grad_check(
        lambda: T.tsum(T.square(mamba_block_forward(seq, params))), params.parameters(), max_coords=4
    )
    return results


def plane_roundtrip_exact(seed: int) -> bool:
    """plane_unflatten(plane_flatten(G)) == G bit for bit, for each plane mode
    on 5 random (B,r,D,h,w) shapes with extents 1-5."""
    rng = np.random.default_rng(seed)
    ok = True
    for mode in ("hw", "dh", "dw", "volume"):
        for _ in range(5):
            dims = tuple(int(rng.integers(1, 6)) for _ in range(5))
            G = Tensor(rng.standard_normal(dims).astype(np.float32))
            ok &= np.array_equal(plane_unflatten(plane_flatten(G, mode), mode, dims).data, G.data)
    return bool(ok)


def check_scan() -> list[Check]:
    worst, exact = scan_oracle_errors(42, 24)
    return [("scan forward bit-identical to oracle", exact, "48 configs, f32 and f64")] + [
        (f"scan equivalence {key} < {tol:.0e}", worst[key] < tol, f"max rel err {worst[key]:.3e}")
        for key, tol in SCAN_TOLERANCE.items()
    ]


def check_grad() -> list[Check]:
    return [
        (f"{case} grad < {grad_tolerance(case):.0e}", err < grad_tolerance(case), f"err {err:.3e}")
        for case, err in gradient_errors(7).items()
    ]


def check_roundtrip() -> list[Check]:
    checks = [("plane flatten/unflatten bit-exact", plane_roundtrip_exact(11), "4 modes x 5 shapes")]
    rng = np.random.default_rng(11)
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
        return [check for suite in SUITES.values() for check in suite()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}")
    return SUITES[name]()
