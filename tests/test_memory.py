"""What a recorded forward keeps alive: a byte budget for a toy model's tape
and the arrays single backward closures hold; what sliding-window inference
holds while its model runs."""

import inspect
import tracemalloc

import numpy as np
import pytest

from tpmamba import tensor as T
from tpmamba.config import TrainConfig
from tpmamba.ops import conv3d
from tpmamba.seghead import dice_ce_loss, sliding_window_infer
from tpmamba.tensor import Parameter, Tensor, recording
from tpmamba.train import build_model

# Bytes a toy model's recorded forward and loss hold, measured with
# tracemalloc: 3,309,321 when closures captured whole tensors and the nodes
# held their outputs (budget then 2,443,000), 2,220,883 with closures that
# keep only what their backward formulas read, and 1,909,927 once gelu and
# silu keep their derivative instead of their input and tanh or sigmoid,
# 1,871,618 at the parent of the change that runs the decoder's head before
# its last upsample, and 1,675,211 after it.  The budget is the last plus 10%.
TOY_TAPE_BUDGET = 1_843_000


def test_toy_model_tape_stays_within_its_byte_budget():
    cfg = TrainConfig(
        C=16, n_heads=2, n_blocks=4, adapter_r=8, adapter_d_state=4, lora_rank=2, lora_alpha=2.0,
        crop=(16, 32, 32), n_classes=3, seed=5,
    )
    model = build_model(cfg)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 1, 16, 32, 32)).astype(np.float32))
    labels = rng.integers(0, 3, (1, 16, 32, 32))
    with recording():  # warm-up: first-call allocations are not the tape's
        dice_ce_loss(model.forward(x), labels)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with recording() as tape:
            loss = dice_ce_loss(model.forward(x), labels)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tape) > 400 and np.isfinite(loss.data)
    assert held <= TOY_TAPE_BUDGET


# tracemalloc peak of one dice_ce_loss forward plus backward on (1, 3, 32^3)
# f32 logits with int64 labels: 1,838,188 bytes while the node formed its
# log-likelihood, label products and sums as separate full-volume arrays, and
# 1,314,820 once it forms them in place.  The budget is the latter plus half
# of one 131,072-byte class volume, so one more f32 volume-sized temporary
# does not fit.
LOSS_PEAK_BUDGET = 1_381_000


def test_loss_forward_and_backward_peak_stays_within_its_byte_budget(rng):
    raw = rng.standard_normal((1, 3, 32, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 3, (1, 32, 32, 32))
    peaks = []
    for _ in range(2):  # the first pass is a warm-up
        logits = Tensor(raw, requires_grad=True)
        tracemalloc.start()
        try:
            with recording() as tape:
                loss = dice_ce_loss(logits, labels)
            tape.backward(loss)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert logits.grad.shape == raw.shape
    assert peaks[-1] <= LOSS_PEAK_BUDGET, peaks


# Live bytes at each model call of sliding_window_infer on a (1, 1, 24, 20, 20)
# f32 volume with 16^3 windows (2 x 2 x 2 = 8 calls) and K = 3 f32 logits: the
# (3, 24, 20, 20) f32 accumulator is 115,200 bytes and the f32 weight map
# 16,384 (the first call holds only the f64 map, 32,768), 131,584 together.
# The budget adds one 49,152-byte window of logits, so the slack (the window
# regions and Python objects: 4,062 bytes at the last call, measured) must stay
# under one window.  The calls saw up to 310,732 bytes while the function also
# held a padded copy of the volume and the weight sums (38,400 bytes each), a
# reused product buffer and the previous window's logits (49,152 each).
WINDOW_CALL_BUDGET = 115_200 + 16_384 + 49_152


def test_sliding_window_holds_only_its_accumulator_during_model_calls():
    vol = np.random.default_rng(0).standard_normal((1, 1, 24, 20, 20)).astype(np.float32)
    seen = []

    def model(patch):
        seen.append(tracemalloc.get_traced_memory()[0] - base)
        return np.full((1, 3) + patch.shape[2:], 0.5, dtype=np.float32)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = sliding_window_infer(vol, model, window=(16, 16, 16))
    finally:
        tracemalloc.stop()
    assert len(seen) == 8 and np.all(result.logits == 0.5)
    assert max(seen) < WINDOW_CALL_BUDGET, seen


def _kept_arrays(fn):
    """The arrays a backward closure holds, seen through an errstate wrapper;
    it may hold no whole Tensor."""
    kept = [cell.cell_contents for cell in inspect.unwrap(fn).__closure__ or ()]
    assert not any(isinstance(v, Tensor) for v in kept)
    return [v for v in kept if isinstance(v, np.ndarray)]


def _node_arrays(fn, *inputs):
    with recording() as tape:
        fn(*inputs)
    assert len(tape) == 1
    return _kept_arrays(tape.nodes[0].backward)


@pytest.mark.parametrize(
    "op, x_shape, w_shape",
    [(T.linear, (8, 7, 16), (16, 16)), (conv3d, (1, 3, 4, 6, 6), (2, 3, 3, 3, 3))],
    ids=["linear", "conv3d"],
)
def test_frozen_weight_ops_keep_no_input_sized_array(rng, op, x_shape, w_shape):
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    w = Parameter("w", rng.standard_normal(w_shape), trainable=False)
    b = Parameter("b", rng.standard_normal(w_shape[0]), trainable=False)
    kept = _node_arrays(op, x, w, b)
    assert all(a.size < x.size for a in kept), [a.shape for a in kept]
    # with a trainable weight the input is the weight gradient's operand
    w.requires_grad = True
    assert any(a.size >= x.size for a in _node_arrays(op, x, w, b))


@pytest.mark.parametrize(
    "op, n_inputs",
    [(T.add, 2), (lambda a: T.reshape(a, (12, 2)), 1)],
    ids=["add", "reshape"],
)
def test_shape_only_ops_keep_no_array(rng, op, n_inputs):
    inputs = [Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True) for _ in range(n_inputs)]
    assert _node_arrays(op, *inputs) == []


@pytest.mark.parametrize(
    "op",
    [T.exp, T.square, T.softplus, lambda a: T.softmax(a, axis=-1), T.silu, T.gelu],
    ids=["exp", "square", "softplus", "softmax", "silu", "gelu"],
)
def test_one_input_activation_keeps_one_input_sized_array(rng, op):
    x = Tensor(rng.standard_normal((4, 5, 6)), requires_grad=True)
    kept = _node_arrays(op, x)
    assert [a.shape for a in kept] == [x.shape]
    if op in (T.silu, T.gelu):
        # the derivative the forward formed, not the input itself
        assert not np.shares_memory(kept[0], x.data)


# tracemalloc peaks of one unrecorded call on 100,000 f64 values, measured
# at the parent of the change that moved the derivative into the forward:
# gelu 2,400,472 bytes and silu 1,767,352 bytes with no tape, 2,401,376 and
# 1,768,240 on a tape with a frozen input.  An unrecorded call forms no
# derivative, so it allocates no more than that.  gelu's bounds are those of
# its in-place form, which holds two input-sized arrays at once instead of
# three: 1,600,488 and 1,601,592.  The slack covers interpreter objects,
# whose bytes vary by a few dozen between runs, and is under 0.2% of one
# 800,000-byte array.
UNRECORDED_PEAK = {"gelu": (1_600_488, 1_601_592), "silu": (1_767_352, 1_768_240)}
PEAK_SLACK = 1024


@pytest.mark.parametrize("op", [T.gelu, T.silu], ids=["gelu", "silu"])
def test_unrecorded_activation_forms_no_derivative(rng, op):
    x = Tensor(rng.standard_normal(100_000), requires_grad=True)
    op(x)  # warm-up
    peaks = []
    for taped in (False, True):
        tracemalloc.start()
        try:
            if taped:
                x.requires_grad = False
                with recording() as tape:
                    op(x)
                assert len(tape) == 0
            else:
                op(x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    no_tape, frozen = UNRECORDED_PEAK[op.__name__]
    assert peaks[0] <= no_tape + PEAK_SLACK and peaks[1] <= frozen + PEAK_SLACK, peaks
