"""Selective state-space (Mamba-style) sequence block.

The recurrence per channel e with N-wide state h:

    h_t = exp(delta_t * A) * h_{t-1} + (delta_t * x_t) * B_t
    y_t = <C_t, h_t> + D_skip * x_t

with input-dependent delta, B, C ("selective").  A is stored as A_log with
A = -exp(A_log), so the dynamics always decay.  Two implementations are kept
side by side: `selective_scan_sequential`, a naive per-step oracle composed
from generic tape primitives, and `selective_scan`, a scan walked in tiles
of at least sqrt(L) steps with a fused hand-derived backward.  A tile is the
unit of cache, of recompute and of kept state.  Its forward is bit-identical
to the oracle's; gradients agree to 1e-5 relative at f32 and 1e-10 at f64.
Its tiles are state-major, (T, b, N, E), so the output contraction is a
multiply and an in-place add tree over the N lanes (`_lane_sum`), in the
order of numpy's pairwise sum that the oracle's `tsum` runs: same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SSM_D_CONV, SSM_EXPAND, TrainConfig, auto_dt_rank
from .errors import NumericError, ShapeError
from .tensor import (
    Module,
    Parameter,
    Tensor,
    _needs_grad,
    _record,
    add,
    exp,
    linear,
    mul,
    narrow,
    reshape,
    scale,
    silu,
    softplus,
    stack,
    tsum,
    uniform_init,
)
from .ops import conv1d_depthwise

SCAN_TILE_STATES = 2**17  # state values per scan tile (512 KiB at f32); tiles take at least isqrt(L) steps


@dataclass
class SSMParams(Module):
    """Parameters of one scanner block (see `mamba_block_forward`)."""

    w_in: Parameter
    w_conv: Parameter
    b_conv: Parameter
    w_x_to_dtbc: Parameter
    w_dt: Parameter
    b_dt: Parameter
    a_log: Parameter
    d_skip: Parameter
    w_out: Parameter

    @classmethod
    def init(cls, cfg: TrainConfig, rng: np.random.Generator, prefix: str) -> "SSMParams":
        """A scanner of width `adapter.r` with `SSM_EXPAND` times as many channels."""
        r, N, k, dtr = cfg.adapter_r, cfg.adapter_d_state, SSM_D_CONV, auto_dt_rank(cfg.adapter_r)
        E = SSM_EXPAND * r

        def par(name, data):
            return Parameter(f"{prefix}.{name}", data)

        # delta bias chosen so softplus(bias) is log-uniform in [1e-3, 0.1]
        dt = np.exp(rng.uniform(math.log(1e-3), math.log(0.1), size=E))
        dt_bias = dt + np.log(-np.expm1(-dt))
        a_init = np.tile(np.log(np.arange(1, N + 1)), (E, 1))
        return cls(
            w_in=par("w_in", uniform_init(rng, (2 * E, r), r)),
            w_conv=par("w_conv", uniform_init(rng, (E, k), k)),
            b_conv=par("b_conv", uniform_init(rng, (E,), k)),
            w_x_to_dtbc=par("w_x_to_dtbc", uniform_init(rng, (dtr + 2 * N, E), E)),
            w_dt=par("w_dt", uniform_init(rng, (E, dtr), dtr)),
            b_dt=par("b_dt", dt_bias),
            a_log=par("a_log", a_init),
            d_skip=par("d_skip", np.ones(E)),
            # zero-initialised output projection: the block starts as identity
            w_out=par("w_out", np.zeros((r, E))),
        )


def _check_scan_shapes(u, delta, A, B, C, D):
    if u.ndim != 3 or A.ndim != 2:
        raise ShapeError(f"scan input must be (B,L,E) and A (E,N), got {u.shape} and {A.shape}")
    (b, L, E), N = u.shape, A.shape[1]
    want = {"delta": (b, L, E), "A": (E, N), "B": (b, L, N), "C": (b, L, N), "D": (E,)}
    for (name, shape), x in zip(want.items(), (delta, A, B, C, D)):
        if x.shape != shape:
            raise ShapeError(f"scan {name} shape {x.shape} != {shape} for input {u.shape}")
    return b, L, E, N


def selective_scan_sequential(
    u: Tensor, delta: Tensor, A: Tensor, B: Tensor, C: Tensor, D: Tensor
) -> Tensor:
    """Naive per-step recurrence oracle; differentiable through the tape."""
    b, L, E, N = _check_scan_shapes(u.data, delta.data, A.data, B.data, C.data, D.data)
    if L == 0:
        return Tensor(np.zeros((b, 0, E), dtype=u.data.dtype))
    A3 = reshape(A, (1, E, N))
    h = Tensor(np.zeros((b, E, N), dtype=u.data.dtype))
    ys = []
    for t in range(L):
        d_t = reshape(narrow(delta, 1, t, 1), (b, E, 1))
        x_t = reshape(narrow(u, 1, t, 1), (b, E, 1))
        B_t = reshape(narrow(B, 1, t, 1), (b, 1, N))
        C_t = reshape(narrow(C, 1, t, 1), (b, 1, N))
        dA = exp(mul(d_t, A3))
        h = add(mul(dA, h), mul(mul(d_t, x_t), B_t))
        y_t = add(tsum(mul(h, C_t), axis=2), mul(reshape(x_t, (b, E)), D))
        ys.append(y_t)
    return stack(ys, axis=1)


def scan_tile_steps(b: int, L: int, E: int, N: int) -> int:
    """Time steps per scan tile: about SCAN_TILE_STATES state values, and at
    least isqrt(L) steps, so a recorded scan keeps at most about sqrt(L)
    tile-start states."""
    return max(1, min(L, max(SCAN_TILE_STATES // (b * E * N), math.isqrt(L))))


def _decay(delta: np.ndarray, AT: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(delta * A) into `out`, a state-major (T, b, N, E) tile, from a
    time-major (T, b, E) tile of delta and A held transposed, as (N, E)."""
    # einsum on a contiguous (N, E) A takes half a broadcast multiply's time;
    # a zero product may lose its sign, which exp ignores
    return np.exp(np.einsum("tbe,ne->tbne", delta, AT, out=out), out=out)


def _tile_states(a, dtu, B, h, x, prod) -> None:
    """The states of one state-major tile into x: x_j = a_j * x_{j-1} + dtu_j B_j,
    with x_{-1} = h.  The products a_j * x_{j-1} go to prod, which may be the
    decays a themselves when they are not needed afterwards."""
    np.multiply(a[0], h, out=prod[0])  # h may alias x: read it before x is overwritten
    np.multiply(dtu[:, :, None, :], B[:, :, :, None], out=x)
    x[0] += prod[0]
    for j in range(1, len(x)):
        x[j] += np.multiply(a[j], x[j - 1], out=prod[j])


def _lane_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over axis -2 of a (..., n, E) array, formed in place, into `out`, in
    numpy's pairwise_sum order: up to 128 lanes, blocks of 8 add into lanes 0-7,
    which fold as ((0+1)+(2+3))+((4+5)+(6+7)), then the rest in order; above,
    two halves split at a multiple of 8.  Last, numpy's start +0: -0 lanes give +0."""
    n = a.shape[-2]
    if n > 128:
        n2 = n // 2 - n // 2 % 8
        r = _lane_sum(a[..., :n2, :])
        r += _lane_sum(a[..., n2:, :])
    else:
        m = n - n % 8
        for i in range(8, m, 8):
            a[..., :8, :] += a[..., i : i + 8, :]
        for s in (1, 2, 4) if m else ():
            a[..., : 8 : 2 * s, :] += a[..., s : 8 : 2 * s, :]
        r = a[..., 0, :]
        for i in range(max(m, 1), n):
            r += a[..., i, :]
    return r if out is None else np.add(r, 0, out=out)


def selective_scan(
    u: Tensor, delta: Tensor, A: Tensor, B: Tensor, C: Tensor, D: Tensor
) -> Tensor:
    """Cache-tiled sequential scan, bit-identical to the oracle's forward.

    Time is walked in tiles of `scan_tile_steps` steps, sized so the
    state-major (T, b, N, E) states and decays stay in cache unless the
    isqrt(L) floor makes them longer.  A recorded call keeps only the state
    entering each tile; the backward recomputes one tile's decays and states
    at a time with the forward's ops, so they are the forward's bits, and
    then runs that tile's reverse recursion.
    """
    ud, dd, Ad, Bd, Cd, Dd = u.data, delta.data, A.data, B.data, C.data, D.data
    b, L, E, N = _check_scan_shapes(ud, dd, Ad, Bd, Cd, Dd)
    dtypes = [a.dtype.name for a in (ud, dd, Ad, Bd, Cd, Dd)]
    if len(set(dtypes)) > 1:
        raise ShapeError(f"selective_scan: mixed dtypes (u, delta, A, B, C, D) = {tuple(dtypes)}")
    if not np.isfinite(dd).all():
        raise NumericError("selective_scan: non-finite delta")

    inputs = (u, delta, A, B, C, D)
    T = scan_tile_steps(b, L, E, N)
    tiles = [(t0, min(t0 + T, L)) for t0 in range(0, L, T)]
    starts = np.empty((len(tiles), b, N, E), dtype=ud.dtype) if _needs_grad(inputs) else None
    work = np.empty((1 + 2 * T * b) * N * E, dtype=ud.dtype)  # A as (N, E), one tile's states and decays
    AT, (xbuf, abuf) = work[: N * E].reshape(N, E), work[N * E :].reshape(2, T, b, N, E)
    AT[...] = Ad.T
    dT, dtuT, BT, CT = (np.ascontiguousarray(x.swapaxes(0, 1)) for x in (dd, dd * ud, Bd, Cd))  # time-major
    out = np.empty((b, L, E), dtype=ud.dtype)
    h = np.zeros((b, N, E), dtype=ud.dtype)
    for k, (t0, t1) in enumerate(tiles):
        if starts is not None:
            starts[k] = h
        x = xbuf[: t1 - t0]
        a = _decay(dT[t0:t1], AT, abuf[: t1 - t0])
        _tile_states(a, dtuT[t0:t1], BT[t0:t1], h, x, a)
        h = x[-1]
        _lane_sum(np.multiply(x, CT[t0:t1, :, :, None], out=a), out.swapaxes(0, 1)[t0:t1])
    out += ud * Dd
    need_u, need_delta, need_A, need_B, need_C, need_D = (t.requires_grad for t in inputs)

    def backward(g):
        recur = need_u or need_delta or need_A or need_B  # the inputs that need dh
        du = g * Dd if need_u else None
        ddelta, dB, dC = (np.empty_like(x) if need else None for x, need in ((dd, need_delta), (Bd, need_B), (Cd, need_C)))
        dA_acc = np.zeros_like(Ad) if need_A else None
        duT, ddT, dBT, dCT = (None if x is None else x.swapaxes(0, 1) for x in (du, ddelta, dB, dC))
        dT, uT, gT, BT, CT, AT = (np.ascontiguousarray(x.swapaxes(0, 1)) for x in (dd, ud, g, Bd, Cd, Ad))
        dtuT = dT * uT
        # one tile's recomputed decays, and its states after the state
        # entering it: hs[i] is h_{t0+i-1}; all (T, b, N, E) like the forward's
        decays, dhbuf = np.empty((2, T, b, N, E), dtype=ud.dtype)
        hs = np.empty((T + 1, b, N, E), dtype=ud.dtype)
        carry = np.zeros((b, N, E), dtype=ud.dtype)  # dA_{t+1} * dh_{t+1}
        for k in reversed(range(len(tiles) if recur or need_C else 0)):
            t0, t1 = tiles[k]
            n = t1 - t0
            carry = carry.copy()  # carry points into decays, which the recompute overwrites
            hs[0] = starts[k]
            a = _decay(dT[t0:t1], AT, decays[:n])
            _tile_states(a, dtuT[t0:t1], BT[t0:t1], hs[0], hs[1 : n + 1], dhbuf)
            if need_C:
                dCT[t0:t1] = np.matmul(hs[1 : n + 1], gT[t0:t1, :, :, None])[..., 0]
            if not recur:
                continue
            dh = np.einsum("tbe,tbn->tbne", gT[t0:t1], CT[t0:t1], out=dhbuf[:n])
            dh[-1] += carry
            for j in range(n - 1, 0, -1):
                a[j] *= dh[j]
                dh[j - 1] += a[j]
            a[0] *= dh[0]
            carry = a[0]
            if need_u or need_delta:
                s = np.matmul(BT[t0:t1, :, None, :], dh)[:, :, 0]
            if need_u:
                duT[t0:t1] += s * dT[t0:t1]
            if need_B:
                dBT[t0:t1] = np.matmul(dh, dtuT[t0:t1, :, :, None])[..., 0]
            if not (need_delta or need_A):
                continue
            # dh becomes d(loss)/d(delta*A) = dA * dh * h_{t-1}, with h_{-1} = 0
            q = np.multiply(a, hs[:n], out=dh)
            if need_A:
                dA_acc += np.einsum("tbe,tbne->en", dT[t0:t1], q)
            if need_delta:
                ddT[t0:t1] = s * uT[t0:t1] + np.einsum("tbne,ne->tbe", q, AT)
        dD = np.einsum("ble,ble->e", g, ud, optimize=True) if need_D else None
        return du, ddelta, dA_acc, dB, dC, dD

    return _record(inputs, out, backward)


def mamba_block_forward(seq: Tensor, params: SSMParams) -> Tensor:
    """Full scanner block with residual connection: seq + block(seq).

    Pipeline: in-projection to (main, gate), causal depthwise conv + SiLU on
    the main path, input-dependent (delta, B, C), selective scan, SiLU-gated
    multiply, out-projection.  With w_out at its zero init the block is the
    identity map.  The sizes come from the parameter shapes.
    """
    E, N = params.a_log.shape
    dtr = params.w_dt.shape[1]

    xz = linear(seq, params.w_in)
    x = narrow(xz, 2, 0, E)
    z = narrow(xz, 2, E, E)

    xs = silu(conv1d_depthwise(x, params.w_conv, params.b_conv))

    dbc = linear(xs, params.w_x_to_dtbc)
    dt = narrow(dbc, 2, 0, dtr)
    B = narrow(dbc, 2, dtr, N)
    C = narrow(dbc, 2, dtr + N, N)
    delta = softplus(linear(dt, params.w_dt, params.b_dt))
    A = scale(exp(params.a_log), -1.0)

    y = selective_scan(xs, delta, A, B, C, params.d_skip)
    y = mul(y, silu(z))
    return add(seq, linear(y, params.w_out))
