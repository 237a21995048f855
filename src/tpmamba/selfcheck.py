"""Built-in verification suites behind `tpmamba check` and the acceptance tests.

`scan_oracle_errors` and `plane_roundtrip_exact` measure, and `grad_check`
compares tape gradients with central differences.  `GRAD_CASES` is the one
table of gradient checks: each case names what it checks, builds its f64
loss and parameters from its own generator (`case_rng`), and carries its
`max_coords` and tolerance; `run_grad_case` turns a case into a
`grad_check` error.  The `grad` suite, a tier-1 test parametrized over
the table and acceptance criteria 2 and 8 all run cases through it, and the
tier-1 needs-grad contract test records every case under its masks.  The
suites turn results into (name, passed, detail) triples, and the CLI prints
one line per check and exits non-zero when anything fails.
"""

from __future__ import annotations

import tempfile
import zlib
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig
from .encoder import Encoder, vit_block_forward
from .errors import NumericError, ShapeError
from .ops import conv1d_depthwise, conv3d, normalize, upsample_hw
from .seghead import Decoder, decoder_forward, dice_ce_loss
from .ssm import SSMParams, mamba_block_forward, selective_scan, selective_scan_sequential
from .tensor import Parameter, Tensor, recording
from .triplane import TPMambaAdapter, plane_flatten, plane_unflatten, reduce_dim, tp_mamba_forward

Check = tuple[str, bool, str]

SCAN_TOLERANCE = {"f32": 1e-5, "f64": 1e-10}
GRAD_CHECK_STEP = 1e-4  # central-difference step of `grad_check`

# the model cases' config: width 8 in 2 heads, scanners of width 4 with 2 states
TOY = TrainConfig(C=8, n_heads=2, lora_rank=2, lora_alpha=2.0, adapter_r=4, adapter_d_state=2, crop=(4, 32, 32))


def _scan_case(rng, b, L, E, N, dtype):
    u = Tensor(rng.standard_normal((b, L, E)).astype(dtype))
    delta = Tensor(np.log1p(np.exp(rng.standard_normal((b, L, E)))).astype(dtype))
    A = Tensor((-np.exp(rng.standard_normal((E, N)) * 0.5)).astype(dtype))
    B = Tensor(rng.standard_normal((b, L, N)).astype(dtype))
    C = Tensor(rng.standard_normal((b, L, N)).astype(dtype))
    D = Tensor(rng.standard_normal(E).astype(dtype))
    return u, delta, A, B, C, D


# (b, L, E, N) run after the random configs: four tiles of 682, 682, 682 and
# 3 steps at the shipped SCAN_TILE_STATES, where every random config fits in one
SCAN_MULTI_TILE = (3, 2049, 8, 8)


def scan_oracle_errors(seed: int, n_configs: int) -> tuple[dict[str, float], bool]:
    """`selective_scan` against the sequential oracle on random configs, then
    on SCAN_MULTI_TILE.

    Random config i has length (1, 2, 7, 64, 513)[i % 5], batch 1-3 and E, N
    in 2-8.  Each config runs at f32 and f64.  Returns the worst relative
    error per dtype and whether every forward was byte-identical, so -0
    against +0 counts.
    """
    rng = np.random.default_rng(seed)
    lengths = [1, 2, 7, 64, 513]
    worst = {"f32": 0.0, "f64": 0.0}
    exact = True
    # lazy, so each config draws its sizes just before its data
    configs = ((int(rng.integers(1, 4)), lengths[i % 5], int(rng.integers(2, 9)), int(rng.integers(2, 9)))
               for i in range(n_configs))
    for b, L, E, N in chain(configs, [SCAN_MULTI_TILE]):
        for dtype, key in ((np.float32, "f32"), (np.float64, "f64")):
            args = _scan_case(rng, b, L, E, N, dtype)
            fast = selective_scan(*args).data
            slow = selective_scan_sequential(*args).data
            denom = max(1.0, float(np.abs(slow).max()))
            worst[key] = max(worst[key], float(np.abs(fast - slow).max()) / denom)
            exact &= fast.tobytes() == slow.tobytes()
    return worst, bool(exact)


def grad_check(f: Callable[[], Tensor], params: Sequence[Parameter], max_coords: int = 16) -> float:
    """Max relative error between tape gradients and central differences.

    `f` must rebuild the scalar loss from the current parameter values on
    every call.  Run at f64; f32 finite differences are too noisy to trust.
    A parameter above `max_coords` entries is probed at a fixed random sample.
    """
    rng = np.random.default_rng(0)
    trainables = [p for p in params if p.trainable]
    for p in trainables:
        p.grad = None
    with recording() as tape:
        loss = f()
    if loss.size != 1:
        raise ShapeError(f"grad_check needs a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NumericError("grad_check: loss is non-finite")
    tape.backward(loss)

    worst = 0.0
    for p in trainables:
        if p.grad is None:
            raise NumericError(f"grad_check: no gradient reached parameter {p.name}")
        if not np.isfinite(p.grad).all():
            raise NumericError(f"grad_check: non-finite gradient in {p.name}")
        flat = p.data.flat  # writes into p.data, in gflat's C order, contiguous or not
        n = p.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        gflat = p.grad.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + GRAD_CHECK_STEP
            fp = float(f().data)
            flat[c] = orig - GRAD_CHECK_STEP
            fm = float(f().data)
            flat[c] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError(f"grad_check: non-finite perturbed loss at {p.name}[{c}]")
            numeric = (fp - fm) / (2 * GRAD_CHECK_STEP)
            analytic = float(gflat[c])
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
    return worst


@dataclass(frozen=True)
class GradCase:
    """One finite-difference check: `build(rng)` returns the scalar loss as a
    closure over the f64 parameters it differentiates, and `run_grad_case`
    probes each parameter at up to `max_coords` entries."""

    name: str
    build: Callable[[np.random.Generator], tuple[Callable[[], Tensor], list[Parameter]]]
    max_coords: int
    tolerance: float


def case_rng(case: GradCase) -> np.random.Generator:
    """A case's generator, seeded by its name, so cases that differ only in shape draw different data."""
    return np.random.default_rng(zlib.crc32(case.name.encode()))


def run_grad_case(case: GradCase) -> float:
    """The case's worst relative error."""
    loss, params = case.build(case_rng(case))
    return grad_check(loss, params, max_coords=case.max_coords)


def _loss(rng, f, kind):
    """A scalar loss over f(): its sum, its sum of squares, or its sum
    weighted by a fixed random array of f()'s shape."""
    if kind == "sum":
        return lambda: T.tsum(f())
    if kind == "square":
        return lambda: T.tsum(T.mul(y := f(), y))
    w = Tensor(rng.standard_normal(f().shape), dtype=np.float64)
    return lambda: T.tsum(T.mul(f(), w))


def _op(rng, op, shapes, loss, scale):
    params = [Parameter(f"arg{i}", scale * rng.standard_normal(s), dtype=np.float64) for i, s in enumerate(shapes)]
    return _loss(rng, lambda: op(*params), loss), params


def _op_case(name, op, shapes, max_coords, tolerance, loss="weighted", scale=1.0) -> GradCase:
    """`op` applied to f64 parameters of these shapes, drawn at `scale`."""
    return GradCase(name, partial(_op, op=op, shapes=shapes, loss=loss, scale=scale), max_coords, tolerance)


def _concat_narrow_stack(a, b):
    piece = T.narrow(T.concat([a, b], axis=1), 1, 2, 3)
    return T.stack([piece, piece], axis=0)


def _normalize(rng, kind, shape):
    c = shape[-1] if kind == "layer_norm" else shape[1]
    x = Parameter("x", rng.standard_normal(shape), dtype=np.float64)
    g = Parameter("gamma", 1 + 0.1 * rng.standard_normal(c), dtype=np.float64)
    b = Parameter("beta", rng.standard_normal(c), dtype=np.float64)
    return _loss(rng, lambda: normalize(x, kind, g, b), "weighted"), [x, g, b]


def _recompute(rng):
    """A span with a trainable weight inside, whose input is also read outside it."""
    x = Parameter("x", rng.standard_normal((3, 4)), dtype=np.float64)
    w = Parameter("w", rng.standard_normal((4, 4)), dtype=np.float64)
    span = partial(T.recompute, lambda t: T.gelu(T.linear(t, w)), [x], [w])
    return _loss(rng, lambda: T.mul(span(), x), "weighted"), [x, w]


def _selective_scan(rng):
    params = [Parameter(n, t.data) for n, t in zip("udABCD", _scan_case(rng, 1, 5, 2, 3, np.float64))]
    return _loss(rng, lambda: selective_scan(*params), "square"), params


def _mamba_block(rng):
    params = SSMParams.init(TOY, rng, "blk")
    params.w_out.data = 0.1 * rng.standard_normal(params.w_out.shape)
    seq = Tensor(rng.standard_normal((1, 8, 4)), dtype=np.float64)
    return _loss(rng, lambda: mamba_block_forward(seq, params), "square"), params.parameters()


def _reduce_dim(rng):
    adapter = TPMambaAdapter.init(TOY, rng, "tp")
    F = Tensor(rng.standard_normal((1, 8, 3, 2, 2)), dtype=np.float64)
    return _loss(rng, lambda: reduce_dim(F, adapter), "square"), [adapter.reduce_w, adapter.reduce_b]


def _tp_mamba_adapter(rng, cfg, depth, signal):
    adapter = TPMambaAdapter.init(cfg, rng, "tp")
    for p in (adapter.raise_w, *(phi.w_out for phi in adapter.scanners)):
        p.data = signal * rng.standard_normal(p.shape)
    F = Tensor(rng.standard_normal((1, depth, cfg.C, 2, 2)), dtype=np.float64)
    return _loss(rng, lambda: tp_mamba_forward(F, adapter), "weighted"), adapter.parameters()


def _vit_block(rng):
    blk = Encoder.init(TOY, rng).blocks[0]
    ad = blk.adapter
    for p in (ad.raise_w, blk.q.b_lora, blk.v.b_lora, *(phi.w_out for phi in ad.scanners)):
        p.data = 0.2 * rng.standard_normal(p.shape)
    F = Tensor(rng.standard_normal((1, 3, 8, 2, 2)), dtype=np.float64)
    return _loss(rng, lambda: vit_block_forward(F, blk), "weighted"), blk.partition()[0]


def _decoder(rng):
    dec = Decoder.init(TOY, rng)
    taps = [Tensor(rng.standard_normal((1, 2, 8, 1, 1)), dtype=np.float64) for _ in range(4)]
    return _loss(rng, lambda: decoder_forward(taps, dec), "weighted"), dec.parameters()


def _dice_ce_loss(rng):
    labels = rng.integers(0, 2, (1, 4, 4, 4))
    P = Parameter("logits", 0.5 * rng.standard_normal((1, 2, 4, 4, 4)), dtype=np.float64)
    return (lambda: dice_ce_loss(P, labels)), [P]


def adapter_case(name: str, cfg: TrainConfig, depth: int, signal: float, max_coords: int) -> GradCase:
    """The whole tri-plane adapter of `cfg` on (1, depth, C, 2, 2) features,
    its zero-initialised raise and scanner outputs drawn at scale `signal`
    so every path carries gradient."""
    return GradCase(name, partial(_tp_mamba_adapter, cfg=cfg, depth=depth, signal=signal), max_coords, 1e-3)


# Every function that records a tape node appears in at least one case (a tier-1
# test holds the table to that), and each primitive of several inputs in its own.
GRAD_CASES = [
    _op_case("matmul", T.matmul, [(3, 4), (4, 2)], 64, 1e-6, loss="sum"),
    _op_case("matmul_batched", T.matmul, [(2, 3, 4), (4, 5)], 40, 1e-6, loss="square"),
    _op_case("matmul_both_batched", T.matmul, [(2, 3, 4), (2, 4, 5)], 40, 1e-6, loss="square"),
    _op_case("matmul_shared", T.matmul, [(3, 4), (2, 4, 5)], 40, 1e-6, loss="square"),
    _op_case("add_broadcast", T.add, [(2, 3, 4), (3, 1)], 16, 1e-7),
    _op_case("mul_broadcast", T.mul, [(2, 3, 4), (1, 3, 4)], 16, 1e-7),
    *(
        _op_case(f"linear_{len(x)}d{'_bias' * bias}", T.linear, [x, (4, 5), 4][: 2 + bias], 24, 1e-7)
        for x in ((7, 5), (3, 6, 5), (4, 2, 3, 5))
        for bias in (True, False)
    ),
    *(
        _op_case(f"{fn.__name__}_{len(x)}d", fn, [x], 8, 1e-7, loss="sum", scale=0.5)
        for fn in (T.exp, T.silu, T.softplus, T.gelu)
        for x in ((7,), (3, 2, 4))
    ),
    _op_case("softmax_2d", partial(T.softmax, axis=1), [(3, 5)], 16, 1e-7),
    _op_case("softmax_3d", partial(T.softmax, axis=2), [(2, 3, 4)], 16, 1e-7),
    _op_case("concat_narrow_stack", _concat_narrow_stack, [(2, 3), (2, 4)], 16, 1e-7, loss="square"),
    _op_case("concat", lambda *ts: T.concat(ts, axis=1), [(2, 1, 4), (2, 3, 4), (2, 2, 4)], 16, 1e-7),
    _op_case("narrow", lambda a: T.narrow(a, 1, 1, 2), [(2, 3, 4)], 16, 1e-7),
    _op_case("stack", lambda a, b: T.stack([a, b], axis=0), [(3, 4), (3, 4)], 16, 1e-7, loss="square"),
    GradCase("recompute", _recompute, 12, 1e-7),
    _op_case("conv3d_k333_d211", partial(conv3d, dilation=(2, 1, 1)), [(2, 2, 5, 4, 3), (3, 2, 3, 3, 3), 3], 24, 1e-7),
    _op_case("conv3d_k111", conv3d, [(2, 4, 3, 2, 5), (3, 4, 1, 1, 1), 3], 24, 1e-7),
    _op_case("conv3d_k111_b1", conv3d, [(1, 4, 3, 2, 5), (3, 4, 1, 1, 1), 3], 24, 1e-7),
    _op_case("conv3d_k335_d121", partial(conv3d, dilation=(1, 2, 1)), [(2, 3, 6, 5, 7), (4, 3, 3, 3, 5), 4], 24, 1e-7),
    _op_case("conv1d_depthwise", conv1d_depthwise, [(2, 6, 3), (3, 4), 3], 16, 1e-6, loss="square"),
    GradCase("layer_norm", partial(_normalize, kind="layer_norm", shape=(3, 5)), 10, 1e-6),
    GradCase("instance_norm_d3", partial(_normalize, kind="instance_norm", shape=(1, 2, 3, 2, 2)), 10, 1e-6),
    GradCase("instance_norm_d2", partial(_normalize, kind="instance_norm", shape=(1, 2, 2, 3, 3)), 8, 1e-6),
    _op_case("upsample_hw", upsample_hw, [(2, 3, 2, 4, 5)], 24, 1e-7),
    # a non-contiguous (2,3,2,4,5) view
    _op_case("upsample_hw_permuted", lambda x: upsample_hw(T.permute(x, (0, 1, 3, 4, 2))), [(2, 3, 5, 2, 4)], 24, 1e-7),
    GradCase("selective_scan", _selective_scan, 8, 1e-6),
    GradCase("mamba_block", _mamba_block, 6, 1e-3),
    GradCase("reduce_dim", _reduce_dim, 10, 1e-3),
    adapter_case("tp_mamba_adapter", TOY, depth=3, signal=0.3, max_coords=3),
    GradCase("vit_block", _vit_block, 3, 1e-3),
    GradCase("decoder", _decoder, 3, 1e-3),
    GradCase("dice_ce_loss", _dice_ce_loss, 12, 1e-3),
]


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
    n = 24
    worst, exact = scan_oracle_errors(42, n)
    detail = f"{n + 1} configs at f32 and f64, the last of {SCAN_MULTI_TILE[1]} steps"
    return [("scan forward bit-identical to oracle", exact, detail)] + [
        (f"scan equivalence {key} < {tol:.0e}", worst[key] < tol, f"max rel err {worst[key]:.3e}")
        for key, tol in SCAN_TOLERANCE.items()
    ]


def check_grad() -> list[Check]:
    checks = []
    for case in GRAD_CASES:
        err = run_grad_case(case)
        checks.append((f"{case.name} grad < {case.tolerance:.0e}", err < case.tolerance, f"err {err:.3e}"))
    return checks


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
