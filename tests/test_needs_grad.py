"""Needs-grad contract of every differentiable primitive.

A recorded node's backward returns None for each input that does not require
a gradient, and the gradients it does return are bit-identical to the ones it
returns when every input requires one.
"""

import numpy as np
import pytest

from model_helpers import recorders_of, recording_functions
from tpmamba import ops, seghead, ssm
from tpmamba import tensor as T
from tpmamba.seghead import dice_ce_loss
from tpmamba.tensor import Tensor, recording


def _normal(*shape):
    return lambda rng: rng.standard_normal(shape)


# name -> (primitive applied to the input tensors, input array makers).  Every
# function that records a tape node appears in at least one case, and a test
# below holds the table to that.
CASES = {
    "add": (T.add, [_normal(2, 3, 4), _normal(3, 1)]),
    "mul": (T.mul, [_normal(2, 3, 4), _normal(1, 3, 4)]),
    "neg": (T.neg, [_normal(3, 4)]),
    "scale": (lambda a: T.scale(a, 0.7), [_normal(3, 4)]),
    "exp": (T.exp, [_normal(3, 4)]),
    "square": (T.square, [_normal(3, 4)]),
    "tsum": (lambda a: T.tsum(a, axis=1), [_normal(2, 3, 4)]),
    "reshape": (lambda a: T.reshape(a, (4, 6)), [_normal(2, 3, 4)]),
    "permute": (lambda a: T.permute(a, (2, 0, 1)), [_normal(2, 3, 4)]),
    "narrow": (lambda a: T.narrow(a, 1, 1, 2), [_normal(2, 3, 4)]),
    "concat": (lambda *ts: T.concat(ts, axis=1), [_normal(2, 1, 4), _normal(2, 3, 4), _normal(2, 2, 4)]),
    "stack": (lambda *ts: T.stack(ts, axis=0), [_normal(3, 4), _normal(3, 4)]),
    "matmul_batched": (T.matmul, [_normal(2, 3, 4), _normal(2, 4, 5)]),
    "matmul_shared": (T.matmul, [_normal(2, 3, 4), _normal(4, 5)]),
    "linear": (T.linear, [_normal(2, 3, 4), _normal(5, 4)]),
    "linear_bias": (T.linear, [_normal(2, 3, 4), _normal(5, 4), _normal(5)]),
    "silu": (T.silu, [_normal(3, 4)]),
    "softplus": (T.softplus, [_normal(3, 4)]),
    "gelu": (T.gelu, [_normal(3, 4)]),
    "softmax": (lambda a: T.softmax(a, axis=1), [_normal(2, 3, 4)]),
    "conv3d": (
        lambda x, w, b: ops.conv3d(x, w, b, dilation=(2, 1, 1)),
        [_normal(2, 3, 4, 5, 6), _normal(2, 3, 3, 3, 3), _normal(2)],
    ),
    "conv3d_unpadded": (ops.conv3d, [_normal(1, 2, 3, 4, 4), _normal(3, 2, 1, 1, 1), lambda rng: np.zeros(3)]),
    "conv1d_depthwise": (ops.conv1d_depthwise, [_normal(2, 7, 3), _normal(3, 4), _normal(3)]),
    "layer_norm": (lambda x, g, b: ops.normalize(x, "layer_norm", g, b), [_normal(2, 3, 5), _normal(5), _normal(5)]),
    "instance_norm": (
        lambda x, g, b: ops.normalize(x, "instance_norm", g, b),
        [_normal(2, 3, 2, 3, 4), _normal(1, 3, 1, 1, 1), _normal(1, 3, 1, 1, 1)],
    ),
    "upsample_hw": (ops.upsample_hw, [_normal(1, 2, 2, 3, 4)]),
    "selective_scan": (
        ssm.selective_scan,
        [
            _normal(2, 9, 3),  # u
            lambda rng: rng.uniform(0.05, 0.5, (2, 9, 3)),  # delta
            lambda rng: -rng.uniform(0.5, 2.0, (3, 2)),  # A
            _normal(2, 9, 2),  # B
            _normal(2, 9, 2),  # C
            _normal(3),  # D
        ],
    ),
    "dice_ce_loss": (
        lambda logits: dice_ce_loss(logits, np.array([[[0, 1, 2], [2, 2, 0]]])),
        [_normal(1, 3, 2, 3)],
    ),
}


def _node_grads(fn, arrays, trainable):
    """The node a primitive records for these inputs and its input gradients
    for a fixed upstream gradient; (None, None) if nothing was recorded."""
    inputs = [Tensor(a, dtype=np.float64, requires_grad=t) for a, t in zip(arrays, trainable)]
    with recording() as tape:
        out = fn(*inputs)
    if not tape.nodes:
        assert not out.requires_grad
        return None, None
    assert len(tape.nodes) == 1
    g = np.random.default_rng(7).standard_normal(out.shape)
    return tape.nodes[0], tape.nodes[0].backward(g)


def test_cases_cover_every_recording_function():
    covered = set()
    for fn, makers in CASES.values():
        rng = np.random.default_rng(0)
        with recording() as tape:
            fn(*[Tensor(make(rng), dtype=np.float64, requires_grad=True) for make in makers])
        covered |= recorders_of(tape)
    recorders = recording_functions(T, ops, ssm, seghead)
    assert recorders <= covered, f"no needs-grad case records: {sorted(recorders - covered)}"


SCAN_TILE_STATES = 2 * 3 * 2 * 3  # b*E*N of the scan case times 3 steps


def test_scan_case_spans_several_tiles_of_several_steps(monkeypatch):
    # the state entering a tile comes from the tile before it and, in the
    # backward, from the kept tile start; at least two tiles of at least two
    # steps run both, and the reverse carry from one tile into the next
    monkeypatch.setattr(ssm, "SCAN_TILE_STATES", SCAN_TILE_STATES)
    L = 9
    steps = ssm.scan_tile_steps(2, L, 3, 2)
    assert 2 <= steps and 2 * steps <= L


@pytest.mark.parametrize("name", sorted(CASES))
def test_masked_inputs_get_none_and_the_rest_are_unchanged(name, monkeypatch):
    # several scan tiles of several steps, so every branch of the scan's backward runs
    monkeypatch.setattr(ssm, "SCAN_TILE_STATES", SCAN_TILE_STATES)
    fn, makers = CASES[name]
    rng = np.random.default_rng(0)
    arrays = [make(rng) for make in makers]
    n = len(arrays)
    _, full = _node_grads(fn, arrays, [True] * n)
    assert len(full) == n and all(g is not None for g in full)

    # each input frozen in turn, and each input the only trainable one
    masks = {tuple(j != i for j in range(n)) for i in range(n)} | {tuple(j == i for j in range(n)) for i in range(n)}
    for mask in sorted(masks):
        node, grads = _node_grads(fn, arrays, mask)
        if not any(mask):
            assert node is None
            continue
        assert len(grads) == n
        for j, (g, trainable) in enumerate(zip(grads, mask)):
            if trainable:
                assert g is not None, f"input {j} lost its gradient under mask {mask}"
                np.testing.assert_array_equal(g, full[j])
            else:
                assert g is None, f"input {j} is frozen but got a gradient under mask {mask}"


def test_tape_backward_reaches_only_trainable_leaves(rng):
    x = Tensor(rng.standard_normal((3, 4)))
    w = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(2))
    with recording() as tape:
        loss = T.tsum(T.linear(x, w, b))
    tape.backward(loss)
    assert x.grad is None and b.grad is None
    np.testing.assert_array_equal(w.grad, np.ones((3, 2), dtype=x.dtype).T @ x.data)
