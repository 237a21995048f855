import time
import tracemalloc

import numpy as np
import pytest

from model_helpers import param_count_ssm
from tpmamba import ssm
from tpmamba import tensor as T
from tpmamba.config import TrainConfig
from tpmamba.errors import NumericError, ShapeError
from tpmamba.selfcheck import _scan_case
from tpmamba.ssm import (
    SSMParams,
    mamba_block_forward,
    scan_tile_steps,
    selective_scan,
    selective_scan_sequential,
)
from tpmamba.tensor import Parameter, Tensor, recording


# ---------------------------------------------------------------------------
# discretisation anchors, read through one-channel, one-state scans


def scalar_scan(delta, u, A=-1.0, B=1.0, C=1.0, D=0.0):
    """y_t = C*h_t + D*u_t with h_t = exp(delta*A)*h_{t-1} + delta*u_t*B."""
    L = len(u)
    args = (
        np.reshape(u, (1, L, 1)),
        np.full((1, L, 1), delta),
        np.full((1, 1), A),
        np.full((1, L, 1), B),
        np.full((1, L, 1), C),
        np.full(1, D),
    )
    return selective_scan(*(Tensor(a, dtype=np.float64) for a in args)).data[0, :, 0]


# The state starts at zero, so the decay exp(delta*A) first shows at step 2:
# with u = (1, 0), y_1 = delta*B*C and y_2 = exp(delta*A) * y_1.


def test_scan_small_delta_limits():
    y = scalar_scan(1e-9, u=(1.0, 0.0))
    np.testing.assert_allclose(y[0], 0.0, atol=1e-8)  # delta*B -> 0
    np.testing.assert_allclose(y[1] / y[0], 1.0, atol=1e-8)  # exp(delta*A) -> 1


def test_scan_log_two_decay():
    y = scalar_scan(np.log(2.0), u=(1.0, 0.0))
    np.testing.assert_allclose(y[1] / y[0], 0.5, rtol=1e-12)


def test_scan_unit_case():
    y = scalar_scan(1.0, u=(1.0, 0.0), A=-np.exp(0.0))
    np.testing.assert_allclose(y, [1.0, np.exp(-1.0)], rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scan_rejects_nonfinite_delta(bad):
    with pytest.raises(NumericError):
        scalar_scan(bad, u=(1.0,))


def test_scan_rejects_mixed_dtypes(rng):
    u, delta, A, B, C, D = _scan_case(rng, 2, 5, 3, 4, np.float32)
    A64 = Tensor(A.data, dtype=np.float64)
    with pytest.raises(ShapeError, match="float64.*float32|float32.*float64"):
        selective_scan(u, delta, A64, B, C, D)


@pytest.mark.parametrize("impl", [selective_scan, selective_scan_sequential], ids=["tiled", "oracle"])
@pytest.mark.parametrize("bad", range(6), ids=["u", "delta", "A", "B", "C", "D"])
def test_scan_rejects_mismatched_shapes(rng, impl, bad):
    arrays = list(_scan_case(rng, 2, 5, 3, 4, np.float64))
    x = arrays[bad].data
    arrays[bad] = Tensor(x[..., None] if bad == 0 else x[:-1], dtype=np.float64)
    with pytest.raises(ShapeError, match="scan"):
        impl(*arrays)


# ---------------------------------------------------------------------------
# oracle behaviour


def test_oracle_single_step_closed_form(rng):
    u, delta, A, B, C, D = _scan_case(rng, 2, 1, 3, 4, np.float64)
    y = selective_scan_sequential(u, delta, A, B, C, D).data
    dA = np.exp(delta.data[:, 0, :, None] * A.data)
    h1 = (delta.data[:, 0] * u.data[:, 0])[:, :, None] * B.data[:, 0, None, :]
    assert np.allclose(dA * 0.0, 0.0)
    expected = (h1 * C.data[:, 0, None, :]).sum(-1) + u.data[:, 0] * D.data
    np.testing.assert_allclose(y[:, 0], expected, rtol=1e-12)


def test_oracle_memoryless_with_large_delta(rng):
    # huge delta pushes exp(delta*A) to ~0: y_t depends only on x_t
    b, L, E, N = 1, 6, 2, 3
    u, delta, A, B, C, D = _scan_case(rng, b, L, E, N, np.float64)
    delta = Tensor(np.full((b, L, E), 80.0), dtype=np.float64)
    y1 = selective_scan_sequential(u, delta, A, B, C, D).data.copy()
    u2 = u.data.copy()
    u2[:, 2] += 3.0  # change an early step
    y2 = selective_scan_sequential(Tensor(u2, dtype=np.float64), delta, A, B, C, D).data
    np.testing.assert_allclose(y1[:, 3:], y2[:, 3:], atol=1e-10)
    assert not np.allclose(y1[:, 2], y2[:, 2])
    # causality holds regardless of delta: earlier outputs never see the bump
    assert np.array_equal(y1[:, :2], y2[:, :2])


def test_oracle_causality_bit_exact(rng):
    b, L, E, N = 2, 9, 3, 2
    u, delta, A, B, C, D = _scan_case(rng, b, L, E, N, np.float64)
    y1 = selective_scan_sequential(u, delta, A, B, C, D).data.copy()
    u2 = u.data.copy()
    u2[:, -1] *= -1.0
    y2 = selective_scan_sequential(Tensor(u2, dtype=np.float64), delta, A, B, C, D).data
    assert np.array_equal(y1[:, :-1], y2[:, :-1])


def test_scan_empty_sequence(rng):
    u, delta, A, B, C, D = _scan_case(rng, 2, 0, 3, 2, np.float64)
    assert selective_scan(u, delta, A, B, C, D).shape == (2, 0, 3)
    assert selective_scan_sequential(u, delta, A, B, C, D).shape == (2, 0, 3)


# ---------------------------------------------------------------------------
# production scan vs oracle


# (b, E, N) for each branch of the lane-sum tree that the output contraction
# runs: under 8 lanes, blocks of 8 and a rest, one block of 128, and over 128
# lanes split in two halves.  Each runs in 5-step tiles from a patched
# SCAN_TILE_STATES (for (2, 96, 128) the default's own tile), so the lengths
# straddle tile boundaries.
SCAN_SHAPES = [(2, 3, 5), (2, 3, 20), (2, 96, 128), (2, 3, 136)]
TILE_STEPS = 5


def tiled_cases(monkeypatch):
    """(b, L, E, N) for each of SCAN_SHAPES at lengths around one and two tiles."""
    for b, E, N in SCAN_SHAPES:
        monkeypatch.setattr(ssm, "SCAN_TILE_STATES", b * E * N * TILE_STEPS)
        T = scan_tile_steps(b, 16, E, N)  # at 16 steps the isqrt(L) floor is below T
        assert T == TILE_STEPS
        for L in (1, T - 1, T, T + 1, 2 * T + 3):
            yield b, L, E, N


def recorded_scan(arrays):
    params = [Parameter(n, a.data, dtype=a.data.dtype) for n, a in zip("udABCD", arrays)]
    with recording():
        return selective_scan(*[p for p in params]).data


# bytes, not values: np.array_equal does not tell -0 from +0
@pytest.mark.parametrize("taped", [False, True], ids=["plain", "taped"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scan_forward_bit_identical_to_oracle(rng, dtype, taped, monkeypatch):
    for b, L, E, N in tiled_cases(monkeypatch):
        arrays = _scan_case(rng, b, L, E, N, dtype)
        fast = recorded_scan(arrays) if taped else selective_scan(*arrays).data
        assert fast.tobytes() == selective_scan_sequential(*arrays).data.tobytes(), (L, N)


@pytest.mark.parametrize("taped", [False, True], ids=["plain", "taped"])
@pytest.mark.parametrize("N", [16, 20])
def test_scan_sums_negative_zero_lanes_to_positive_zero(N, taped):
    # every <C_t, h_t> lane is -0 and so is D*u; numpy's sum starts from +0,
    # so the oracle gives +0, where a lane tree without that start gives -0
    b, L, E = 1, 3, 2
    args = [np.ones((b, L, E)), np.full((b, L, E), 0.1), -np.ones((E, N)), np.ones((b, L, N)),
            np.full((b, L, N), -0.0), np.full(E, -0.0)]
    arrays = [Tensor(a, dtype=np.float64) for a in args]
    fast = recorded_scan(arrays) if taped else selective_scan(*arrays).data
    slow = selective_scan_sequential(*arrays).data
    assert not np.signbit(slow).any()
    assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lane_sum_keeps_numpys_summation_order(dtype):
    # The scan is bit-identical to its oracle only while ssm._lane_sum adds in
    # the order of numpy's pairwise sum; a numpy whose order differs fails here
    # first.  Lanes span many magnitudes, so a different order shows.
    rng = np.random.default_rng(3)
    for n in [*range(1, 41), 127, 128, 129, 136, 300]:
        x = (rng.standard_normal((9, n)) * np.exp(3 * rng.standard_normal((9, n)))).astype(dtype)
        x[0] = -0.0
        x[1, ::2] = -0.0
        expected = np.add.reduce(x, axis=-1)
        got = np.empty(9, dtype=dtype)
        ssm._lane_sum(np.ascontiguousarray(x.T), got)
        assert got.tobytes() == expected.tobytes(), f"n={n}: lane tree differs from np.add.reduce on numpy {np.__version__}"


def traced_bytes(fn):
    """(bytes still held after fn returns, peak bytes during fn); result kept alive."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held - base, peak - base


def test_recorded_scan_holds_one_state_array(rng):
    # The tape holds less than one (b, L, E, N) state history: no full
    # history array is kept, only tile-start states and per-step inputs.
    b, L, E, N = 6, 100, 48, 16
    arrays = _scan_case(rng, b, L, E, N, np.float32)
    params = [Parameter(n, a.data, dtype=np.float32) for n, a in zip("udABCD", arrays)]
    state = b * L * E * N * 4
    with recording():
        held, _ = traced_bytes(lambda: selective_scan(*params))
    assert held < state


@pytest.mark.parametrize("b, L", [(96, 36), (6, 576)], ids=["isqrt_floor_tiles", "long_sequence"])
def test_recorded_scan_keeps_only_tile_start_states(rng, b, L):
    # (96, 36): the hw plane's shape at the default config, where a tile of
    # SCAN_TILE_STATES values is one step and the isqrt(L) floor sets 6 tiles
    # of 6 steps; (6, 576): the dw/dh planes' shape, a long sequence of
    # multi-step tiles
    E, N = 48, 16
    arrays = _scan_case(rng, b, L, E, N, np.float32)
    params = [Parameter(n, a.data, dtype=np.float32) for n, a in zip("udABCD", arrays)]
    tiles = -(-L // scan_tile_steps(b, L, E, N))
    assert tiles >= 4
    starts = tiles * b * E * N * 4
    with recording():
        held, _ = traced_bytes(lambda: selective_scan(*params))
    assert held <= starts + 2 * b * L * E * 4 < b * L * E * N * 4 // 3


def _scan_grads(arrays, seed):
    params = [Parameter(n, a.data, dtype=a.data.dtype) for n, a in zip("udABCD", arrays)]
    with recording() as tape:
        y = selective_scan(*params)
        loss = T.tsum(T.mul(y, Tensor(seed, dtype=seed.dtype)))
    tape.backward(loss)
    return y.data.tobytes(), [p.grad.tobytes() for p in params]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scan_gradients_same_bits_for_every_tile_size(rng, dtype, monkeypatch):
    b, L, E, N = 2, 16, 3, 2
    arrays = _scan_case(rng, b, L, E, N, dtype)
    seed = np.random.default_rng(7).standard_normal((b, L, E)).astype(dtype)
    assert scan_tile_steps(b, L, E, N) == L
    reference = _scan_grads(arrays, seed)  # a single tile

    # Tiles of 4 steps (a 2-step budget raised by the isqrt(16) floor), of 5
    # steps with a 1-step last tile, and of 8 steps.  Only dA sums its
    # per-tile partials, so its rounding follows the tile size; every other
    # gradient keeps its bits.
    for budget, steps in ((2, 4), (5, 5), (8, 8)):
        monkeypatch.setattr(ssm, "SCAN_TILE_STATES", b * E * N * budget)
        assert scan_tile_steps(b, L, E, N) == steps
        out, grads = _scan_grads(arrays, seed)
        assert out == reference[0]
        for i, (g, ref) in enumerate(zip(grads, reference[1])):
            if i != 2:
                assert g == ref, (steps, "udABCD"[i])
        dA, ref_dA = (np.frombuffer(x, dtype=dtype) for x in (grads[2], reference[1][2]))
        np.testing.assert_allclose(dA, ref_dA, rtol=1e-5 if dtype == np.float32 else 1e-12)


def test_plain_scan_keeps_no_state_history(rng):
    b, L, E, N = 6, 300, 48, 16
    arrays = _scan_case(rng, b, L, E, N, np.float32)
    tiles = 2 * scan_tile_steps(b, L, E, N) * b * E * N * 4
    held, peak = traced_bytes(lambda: selective_scan(*arrays))
    assert held <= 2 * b * L * E * 4
    assert peak <= tiles + 8 * b * L * E * 4 < b * L * E * N * 4


def test_scan_gradient_matches_oracle_gradient(rng):
    """The fused adjoint must agree with the tape-derived oracle gradient."""
    b, L, E, N = 2, 17, 3, 4
    arrays = _scan_case(rng, b, L, E, N, np.float64)
    params = [Parameter(n, a.data, dtype=np.float64) for n, a in zip("udABCD", arrays)]
    seed = np.random.default_rng(7).standard_normal((b, L, E))

    grads = {}
    for impl in (selective_scan, selective_scan_sequential):
        for p in params:
            p.grad = None
        with recording() as tape:
            y = impl(*[p for p in params])
            loss = T.tsum(T.mul(y, Tensor(seed, dtype=np.float64)))
        tape.backward(loss)
        grads[impl.__name__] = [p.grad.copy() for p in params]
    for ga, gb in zip(grads["selective_scan"], grads["selective_scan_sequential"]):
        np.testing.assert_allclose(ga, gb, rtol=1e-9, atol=1e-11)


def test_scan_runtime_linear_in_length():
    """Eight times the length costs at most ten times the time per call.  The
    lengths are timed in 21 interleaved rounds of 8 short calls and 1 long
    one, and the median round is taken, so load from other processes that
    slows a few rounds does not move the result."""
    rng = np.random.default_rng(0)
    short, long = (_scan_case(rng, 1, L, 4, 4, np.float32) for L in (512, 4096))
    ratios = []
    for _ in range(21):
        t0 = time.perf_counter()
        for _ in range(8):
            selective_scan(*short)
        t1 = time.perf_counter()
        selective_scan(*long)
        ratios.append((time.perf_counter() - t1) / ((t1 - t0) / 8))
    assert np.median(ratios) <= 10.0


def test_scan_stability_long_sequence():
    rng = np.random.default_rng(3)
    b, L, E, N = 1, 10_000, 4, 4
    u = Tensor(rng.uniform(-1, 1, (b, L, E)).astype(np.float32))
    delta = Tensor(np.full((b, L, E), 0.05, dtype=np.float32))
    A = Tensor(-np.exp(np.tile(np.log(np.arange(1, N + 1)), (E, 1))).astype(np.float32))
    B = Tensor(rng.uniform(-1, 1, (b, L, N)).astype(np.float32))
    C = Tensor(rng.uniform(-1, 1, (b, L, N)).astype(np.float32))
    D = Tensor(np.ones(E, dtype=np.float32))
    y = selective_scan(u, delta, A, B, C, D).data
    assert np.isfinite(y).all()
    assert np.abs(y).max() < 1e4


# ---------------------------------------------------------------------------
# full block


def scanner_config(r, N=16):
    """A config whose scanners have width r and N states; one depth-conv
    branch leaves r free of the dilated branches' divisibility."""
    return TrainConfig(adapter_r=r, adapter_d_state=N, adapter_dilations=(1,))


def make_block(rng, r):
    return SSMParams.init(scanner_config(r), rng, "blk").astype(np.float32)


def test_block_shape_preservation(rng):
    params = make_block(rng, r=16)
    seq = Tensor(rng.standard_normal((6, 128, 16)).astype(np.float32))
    out = mamba_block_forward(seq, params)
    assert out.shape == (6, 128, 16)


def test_block_identity_at_init(rng):
    params = make_block(rng, r=8)
    seq = Tensor(rng.standard_normal((2, 12, 8)).astype(np.float32))
    out = mamba_block_forward(seq, params)
    assert np.array_equal(out.data, seq.data)


def test_param_count_formula(rng):
    cfg = scanner_config(24)
    params = SSMParams.init(cfg, rng, "blk")
    counted = sum(p.size for p in params.parameters())
    assert counted == param_count_ssm(cfg)


def test_dt_rank_default(rng):
    """The delta rank is ceil(r / 16)."""
    for r, rank in ((24, 2), (96, 6), (16, 1), (17, 2)):
        params = SSMParams.init(scanner_config(r, 2), rng, "blk")
        assert params.w_dt.shape == (2 * r, rank)
        assert params.w_x_to_dtbc.shape == (rank + 2 * 2, 2 * r)
