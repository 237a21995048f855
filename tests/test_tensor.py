
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_ops import log

from tpmamba import encoder, seghead
from tpmamba import tensor as T
from tpmamba.config import N_TAPS
from tpmamba.encoder import ViTBlock, vit_block_forward
from tpmamba.errors import ShapeError
from tpmamba.ops import conv3d, normalize
from tpmamba.seghead import Decoder, decoder_forward
from tpmamba.selfcheck import TOY, GradCase, run_grad_case
from tpmamba.tensor import Parameter, Tensor, matmul, permute, recording, reshape


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(eye, m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_hand_expansion():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = matmul(a, b)
    np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError, match=r"2, 3.*4, 2"):
        matmul(a, b)


def test_linear_matches_matmul(rng):
    x = Tensor(rng.standard_normal((5, 3)), dtype=np.float64)
    w = Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
    b = Tensor(rng.standard_normal(4), dtype=np.float64)
    out = T.linear(x, w, b)
    np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data, rtol=1e-12)


# The gradients of these shapes are GRAD_CASES' linear cases.
@pytest.mark.parametrize("x_shape", [(7, 5), (3, 6, 5), (4, 2, 3, 5)])
@pytest.mark.parametrize("with_bias", [True, False])
def test_linear_leading_axes_match_reference_and_grads(rng, x_shape, with_bias):
    # 4-D is patch embedding's (BD, h, w, p*p) layout.
    x = Tensor(rng.standard_normal(x_shape), dtype=np.float64)
    w = Tensor(rng.standard_normal((4, 5)), dtype=np.float64)
    b = Tensor(rng.standard_normal(4), dtype=np.float64)
    ref = np.einsum("...i,oi->...o", x.data, w.data) + (b.data if with_bias else 0.0)
    out = T.linear(x, w, b if with_bias else None)
    assert out.shape == x_shape[:-1] + (4,)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)


def test_permute_round_trip_bit_exact(rng):
    x = Tensor(rng.standard_normal((3, 5)))
    back = permute(permute(x, (1, 0)), (1, 0))
    assert np.array_equal(back.data, x.data)


def test_reshape_round_trip_bit_exact(rng):
    x = Tensor(rng.standard_normal((2, 3)))
    back = reshape(reshape(x, (3, 2)), (2, 3))
    assert np.array_equal(back.data, x.data)


def test_permute_reshape_index_formula():
    # flattening arange(24) viewed as (2,3,4) after permutation (2,0,1)
    x = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    out = reshape(permute(x, (2, 0, 1)), (24,))
    # independent enumeration of the index map
    expected = np.empty(24, dtype=np.float32)
    pos = 0
    for k in range(4):
        for i in range(2):
            for j in range(3):
                expected[pos] = x.data[i, j, k]
                pos += 1
    np.testing.assert_array_equal(out.data, expected)


def test_reshape_element_count_mismatch():
    with pytest.raises(ShapeError):
        reshape(Tensor(np.zeros((2, 3))), (4, 2))


def test_forward_determinism(rng):
    x = Tensor(rng.standard_normal((4, 4)), dtype=np.float32)
    w = Tensor(rng.standard_normal((4, 4)), dtype=np.float32)
    a = T.gelu(matmul(x, w))
    b = T.gelu(matmul(x, w))
    assert np.array_equal(a.data, b.data)


def test_recording_does_not_change_values(rng):
    x = Tensor(rng.standard_normal((3, 3)), dtype=np.float32, requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3)), dtype=np.float32)
    plain = T.silu(matmul(x, w)).data
    with recording():
        recorded = T.silu(matmul(x, w)).data
    assert np.array_equal(plain, recorded)


def test_tape_accumulates_for_reused_input(rng):
    x = Parameter("x", rng.standard_normal(5), dtype=np.float64)
    # f = sum(x*x) + sum(x) -> grad = 2x + 1
    with recording() as tape:
        loss = T.add(T.tsum(T.mul(x, x)), T.tsum(x))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.data + 1, rtol=1e-12)


def test_a_parameter_is_a_tensor(rng):
    def param(name, shape, trainable):
        return Parameter(name, rng.standard_normal(shape), trainable=trainable, dtype=np.float64)

    lin_w, lin_b = param("lin_w", (4, 3), True), param("lin_b", (4,), False)
    conv_w, conv_b = param("conv_w", (2, 2, 1, 1, 1), False), param("conv_b", (2,), True)
    gamma, beta = param("gamma", (5,), True), param("beta", (5,), False)
    exp_t, exp_f = param("exp_t", (3,), True), param("exp_f", (3,), False)
    trainable, frozen = [lin_w, conv_b, gamma, exp_t], [lin_b, conv_w, beta, exp_f]
    x = Tensor(rng.standard_normal((2, 3)), dtype=np.float64)
    xc = Tensor(rng.standard_normal((1, 2, 3, 2, 2)), dtype=np.float64)
    xn = Tensor(rng.standard_normal((2, 5)), dtype=np.float64)
    with recording() as tape:
        outs = [
            T.linear(x, lin_w, lin_b),
            conv3d(xc, conv_w, conv_b),
            normalize(xn, "layer_norm", gamma, beta),
            T.exp(exp_t),
            T.exp(exp_f),
        ]
        loss = T.tsum(T.stack([T.tsum(o) for o in outs], axis=0))
    tape.backward(loss)
    for p in trainable + frozen:
        assert isinstance(p, Tensor)
        assert p.trainable == p.requires_grad
    for p in trainable:
        assert p.trainable and p.grad is not None and p.grad.shape == p.shape, p.name
    for p in frozen:
        assert not p.trainable and p.grad is None, p.name
    np.testing.assert_allclose(lin_w.grad, np.tile(x.data.sum(axis=0), (4, 1)), rtol=1e-12)
    np.testing.assert_array_equal(conv_b.grad, [12.0, 12.0])
    np.testing.assert_array_equal(exp_t.grad, np.exp(exp_t.data))


def test_backward_leaves_the_recorded_nodes_on_the_tape(rng):
    x = Parameter("x", rng.standard_normal(4), dtype=np.float64)
    with recording() as tape:
        h = T.exp(x)
        loss = T.tsum(T.mul(h, h))
    recorded = len(tape)
    tape.backward(loss)
    assert len(tape) == recorded == 3
    # each node is released once replayed: no closure, no input references
    assert all(node.backward is None and node.inputs is None for node in tape.nodes)
    np.testing.assert_allclose(x.grad, 2 * np.exp(2 * x.data), rtol=1e-12)


def test_a_tape_replays_once(rng):
    x = Parameter("x", rng.standard_normal(4), dtype=np.float64)
    with recording() as tape:
        loss = T.tsum(T.exp(x))
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="already replayed"):
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, np.exp(x.data), rtol=1e-12)


def test_backward_refuses_a_stale_gradient(rng):
    # A second backward onto a .grad nobody cleared would sum two steps'
    # gradients; it raises, naming every stale leaf, before writing any leaf.
    x, y, z = (Parameter(n, rng.standard_normal(4), dtype=np.float64) for n in "xyz")
    with recording() as tape:
        loss = T.tsum(T.mul(x, y))
    tape.backward(loss)
    stale = {p.name: p.grad.copy() for p in (x, y)}
    with recording() as tape:
        loss = T.tsum(T.mul(T.mul(x, y), z))
    with pytest.raises(RuntimeError, match="still set on Parameter\\('x'.*Parameter\\('y'"):
        tape.backward(loss)
    for p in (x, y):
        np.testing.assert_array_equal(p.grad, stale[p.name])
    assert z.grad is None


def test_a_leaf_made_after_an_intermediate_died_gets_its_own_gradient(rng):
    # The tape holds no produced tensor, so a dropped intermediate frees its
    # id() mid-forward and a leaf made next can take it.  Produced tensors are
    # keyed by a counter, so the two gradients never meet.
    a = Tensor(rng.standard_normal(3), requires_grad=True)
    with recording() as tape:
        t = T.scale(a, 3.0)
        u = T.scale(t, -1.0)
        dead = id(t)
        del t
        fresh = []
        while len(fresh) < 64 and dead not in map(id, fresh):
            fresh.append(Tensor(rng.standard_normal(3), requires_grad=True))
        loss = T.tsum(u)
        for w in fresh:
            loss = T.add(loss, T.tsum(T.mul(w, w)))
    tape.backward(loss)
    assert dead in map(id, fresh), "no fresh leaf took the dropped intermediate's id"
    np.testing.assert_array_equal(a.grad, np.full(3, -3.0, dtype=np.float32))
    for w in fresh:
        np.testing.assert_array_equal(w.grad, 2.0 * w.data)


def test_recompute_without_a_tape_is_a_plain_call(rng):
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    y = T.exp(x)
    assert T.recompute(lambda t: y, [x], []) is y


def test_recompute_refuses_a_trainable_parameter_it_was_not_given(rng):
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    w = Parameter("span.w", rng.standard_normal((3, 3)))
    with recording() as tape:
        loss = T.tsum(T.recompute(lambda t: T.linear(t, w), [x], []))
    with pytest.raises(RuntimeError, match=r"Parameter\('span\.w'.*not given in params"):
        tape.backward(loss)


def test_a_replayed_tape_counts_the_nodes_its_reruns_recorded(rng):
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    with recording() as tape:
        loss = T.tsum(T.recompute(lambda t: T.exp(T.scale(t, 2.0)), [x], []))
    assert len(tape) == 2
    tape.backward(loss)
    assert len(tape) == 4
    np.testing.assert_array_equal(x.grad, np.exp(2.0 * x.data) * np.float32(2.0))


def _vit_block_case(rng):
    blk = ViTBlock.init(TOY, rng, "block").astype(np.float32)
    ad = blk.adapter
    for p in (blk.q.b_lora, blk.v.b_lora, ad.raise_w, *(phi.w_out for phi in ad.scanners)):
        p.data = (0.2 * rng.standard_normal(p.shape)).astype(np.float32)
    F = Tensor(rng.standard_normal((1, 3, TOY.C, 2, 2)).astype(np.float32), requires_grad=True)
    return blk, [F], lambda: vit_block_forward(F, blk)


def _decoder_case(rng):
    dec = Decoder.init(TOY, rng).astype(np.float32)
    taps = [Tensor(rng.standard_normal((1, 3, TOY.C, 2, 2)).astype(np.float32), requires_grad=True)
            for _ in range(N_TAPS)]
    return dec, taps, lambda: decoder_forward(taps, dec)


@pytest.mark.parametrize("build", [_vit_block_case, _decoder_case], ids=["vit_block", "decoder"])
def test_recompute_gives_the_flat_tape_gradients_bit_for_bit(build, monkeypatch):
    # The block's MLP branch reads the input its residual add reads, so the
    # rerun's gradient must be added after the add's, as on the flat tape.
    rng = np.random.default_rng(3)
    module, inputs, forward = build(rng)
    weight = Tensor(rng.standard_normal(forward().shape).astype(np.float32))
    leaves = module.partition()[0] + inputs

    def grads():
        for t in leaves:
            t.grad = None
        with recording() as tape:
            loss = T.tsum(T.mul(forward(), weight))
        recorded = len(tape)
        tape.backward(loss)
        return recorded, [t.grad.tobytes() for t in leaves]

    nodes, spanned = grads()
    for module_ in (encoder, seghead):
        monkeypatch.setattr(module_, "recompute", lambda fn, inputs, params: fn(*inputs))
    flat_nodes, flat = grads()
    assert nodes < flat_nodes
    assert spanned == flat


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5), st.floats(-3, 3))
def test_matmul_linearity(m, k, n, alpha):
    rng = np.random.default_rng(m * 100 + k * 10 + n)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((m, k))
    w = rng.standard_normal((k, n))
    lhs = matmul(Tensor(a + alpha * b, dtype=np.float64), Tensor(w, dtype=np.float64)).data
    rhs = matmul(Tensor(a, dtype=np.float64), Tensor(w, dtype=np.float64)).data + alpha * matmul(
        Tensor(b, dtype=np.float64), Tensor(w, dtype=np.float64)
    ).data
    np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-10)


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5], rtol=1e-7)


def test_activation_fixed_points():
    z = Tensor([0.0])
    assert T.gelu(z).data[0] == 0.0
    assert T.silu(z).data[0] == 0.0
    assert T._sigmoid_np(z.data)[0] == 0.5


def test_gelu_tanh_value():
    out = T.gelu(Tensor([1.0], dtype=np.float64))
    assert abs(out.data[0] - 0.8412) < 1e-3


def _two_branch_sigmoid(x):
    """The logistic function split on the sign of x through boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    with np.errstate(all="ignore"):
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
    return out


def _activation_inputs(dtype):
    special = [0.0, -0.0, 1e4, -1e4, np.inf, -np.inf, np.nan]
    wide = np.random.default_rng(7).normal(0.0, 20.0, 20000)
    return np.concatenate([special, wide]).astype(dtype)


def _forward_backward(fn, x, g):
    """fn(x) and its input gradient for the upstream gradient g."""
    p = Parameter("x", x)
    with recording() as tape:
        y = fn(p)
        loss = T.tsum(T.mul(y, Tensor(g)))
    tape.backward(loss)
    return y.data, p.grad


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_family_bit_identical_to_two_branch_formula(dtype):
    x = _activation_inputs(dtype)
    g = np.random.default_rng(8).standard_normal(x.shape).astype(dtype)
    s = _two_branch_sigmoid(x)
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(_bits(T._sigmoid_np(x)), _bits(s))
        expected = {
            T.silu: (x * s, g * (s * (1.0 + x * (1.0 - s)))),
            T.softplus: (np.logaddexp(dtype(0), x), g * s),
        }
        for fn, (ref_out, ref_grad) in expected.items():
            out, grad = _forward_backward(fn, x, g)
            np.testing.assert_array_equal(_bits(out), _bits(ref_out), err_msg=fn.__name__)
            np.testing.assert_array_equal(_bits(grad), _bits(ref_grad), err_msg=fn.__name__)


def _gelu_formed_in_backward(x, g):
    """GELU and its input gradient as the engine formed them when the
    derivative was built from x and t inside the backward."""
    c = 0.7978845608028654
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    out = 0.5 * x * (1.0 + t)
    d = x * x
    d *= 3 * 0.044715
    d += 1.0
    d *= c
    d *= 0.5 * x * (1.0 - t * t)
    d += 0.5 * (1.0 + t)
    d *= g
    return out, d


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_bit_identical_to_derivative_formed_in_backward(dtype):
    x = _activation_inputs(dtype)
    x = x[np.isfinite(x)]
    g = np.random.default_rng(9).standard_normal(x.shape).astype(dtype)
    ref_out, ref_grad = _gelu_formed_in_backward(x, g)
    out, grad = _forward_backward(T.gelu, x, g)
    np.testing.assert_array_equal(_bits(out), _bits(ref_out))
    np.testing.assert_array_equal(_bits(grad), _bits(ref_grad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fn", [T._sigmoid_np, T.silu, T.softplus], ids=["sigmoid", "silu", "softplus"])
def test_sigmoid_family_raises_no_floating_point_error(dtype, fn):
    x = _activation_inputs(dtype)
    if fn is not T._sigmoid_np:
        # silu(+-inf) meets inf * 0 and numpy's logaddexp flags a NaN operand:
        # real invalid operations on non-finite input, not underflow
        x = x[np.isfinite(x)]
    with np.errstate(all="raise"):
        if fn is T._sigmoid_np:
            fn(x)
        else:
            _forward_backward(fn, x, np.ones_like(x))


def test_gelu_float32_matches_float64_formula():
    x = np.linspace(-8.0, 8.0, 160001, dtype=np.float32)
    out, grad = _forward_backward(T.gelu, x, np.ones_like(x))
    x64 = x.astype(np.float64)
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x64 + 0.044715 * x64**3))
    ref_out = 0.5 * x64 * (1.0 + t)
    ref_grad = 0.5 * (1.0 + t) + 0.5 * x64 * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x64**2)

    def err(a, ref):
        return np.max(np.abs(a - ref) / np.maximum(1.0, np.abs(ref)))

    assert err(out, ref_out) < 1e-6
    # 1 - t*t keeps the f32 rounding of t (6e-8 as |t| -> 1), scaled by up to
    # x * d(inner)/dx ~ 21 on this grid: 16 f32 ulps at 1
    assert err(grad, ref_grad) < 2e-6


def _log_softmax(rng, shape, axis):
    """log∘softmax through the test-local `log` node: softmax's gradient
    where the loss reads its log, as cross-entropy does."""
    x = Parameter("x", rng.standard_normal(shape), dtype=np.float64)
    w = Tensor(rng.standard_normal(shape), dtype=np.float64)
    return (lambda: T.tsum(T.mul(log(T.softmax(x, axis=axis)), w))), [x]


# softmax itself is GRAD_CASES' softmax_2d and softmax_3d
@pytest.mark.parametrize("shape,axis", [((3, 5), 1), ((2, 3, 4), 2)])
def test_softmax_log_softmax_grads(shape, axis):
    case = GradCase(f"log_softmax_{len(shape)}d", partial(_log_softmax, shape=shape, axis=axis), 16, 1e-7)
    assert run_grad_case(case) < case.tolerance
