"""What a recorded forward keeps alive: a byte budget for a toy model's tape
and the arrays single backward closures hold; what the loss node holds and
what sliding-window inference holds while its model runs."""

import inspect
import tracemalloc

import numpy as np
import pytest

from tpmamba import tensor as T
from tpmamba.config import TrainConfig
from tpmamba.encoder import ViTBlock, vit_block_forward
from tpmamba.selfcheck import TOY
from tpmamba.ops import conv3d, normalize, upsample_hw
from tpmamba.seghead import LOSS_CHUNK, dice_ce_loss, sliding_window_infer
from tpmamba.tensor import Parameter, Tensor, recording
from tpmamba.train import build_model

# Bytes a toy model's recorded forward and loss hold, measured with
# tracemalloc: 3,309,321 when closures captured whole tensors and the nodes
# held their outputs (budget then 2,443,000), 2,220,883 with closures that
# keep only what their backward formulas read, and 1,909,927 once gelu and
# silu keep their derivative instead of their input and tanh or sigmoid,
# 1,871,618 at the parent of the change that runs the decoder's head before
# its last upsample, and 1,675,211 after it.  The budget is the last plus 10%.
# Re-measured at 1,674,151 to 1,674,797 once layer norm writes a C-order
# output and the loss recomputes its softmax, so the budget stands: the q
# and v LoRA projections share one 4,096-byte token array per block instead
# of a copy each, and the loss node's u8 copy of the test's int64 labels
# (16,384 bytes) takes that back; its reference to the logits, which here
# only the node holds, takes p's place.
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
# log-likelihood, label products and sums as separate full-volume arrays,
# 1,314,820 once it formed them in place, 857,332 once it picks each class
# with a mask instead of an intp index and backward recomputes p in the
# buffer the gradient is formed in, and 821,480 to 823,295 once both passes
# run over LOSS_CHUNK voxels at a time.  That peak is now the tape's copy of
# the leaf's gradient (two 393,216-byte arrays and the u8 labels); the
# passes' own peaks are bounded below.  The budget is the last plus half of
# one 131,072-byte class volume, so one more f32 volume-sized temporary
# does not fit.
LOSS_PEAK_BUDGET = 889_000


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


# Each loss pass runs over LOSS_CHUNK voxels at a time, and its temporaries
# for one run (p, its max and exp-sum, the label picks and the bincount
# inputs forward; p, three per-voxel arrays and einsum's buffers backward)
# measured 340,000 to 364,000 bytes at K = 3, at 32^3 and at 32x64x64 alike.
# The bound is four K-class f32 runs; one more f32 class volume
# (524,288 bytes here) does not fit in it.
LOSS_RUN_SLACK = 4 * 3 * LOSS_CHUNK * 4


def test_loss_passes_hold_one_run_beyond_what_they_must(rng):
    """The forward holds its u8 labels and the one-buffer log-likelihood, the
    backward its gradient, each plus one run's temporaries: 3,410,048 and
    3,279,576 bytes while the passes formed p and its per-voxel terms whole."""
    raw = rng.standard_normal((1, 3, 32, 64, 64)).astype(np.float32)
    labels = rng.integers(0, 3, (1, 32, 64, 64))
    class_volume = raw.nbytes // 3
    peaks = []
    for _ in range(2):  # the first pass is a warm-up
        logits = Tensor(raw, requires_grad=True)
        tracemalloc.start()
        try:
            with recording() as tape:
                dice_ce_loss(logits, labels)
            forward = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            (grad,) = tape.nodes[0].backward(np.ones((), dtype=np.float32))
            peaks = [forward, tracemalloc.get_traced_memory()[1] - base]
        finally:
            tracemalloc.stop()
    assert peaks[0] <= labels.size + class_volume + LOSS_RUN_SLACK, peaks
    assert peaks[1] <= grad.nbytes + LOSS_RUN_SLACK, peaks


# Bytes the loss node holds after its forward beyond its u8 labels (32,768
# bytes for a 32^3 volume): 1,340 to 1,356 measured, for the scalar loss, the
# per-class sums and the closure.  The node held 394,692 to 394,708 bytes
# while it kept p and pinned the caller's int64 labels.
LOSS_NODE_SLACK = 4096


def test_loss_node_holds_only_its_u8_labels(rng):
    logits = Tensor(rng.standard_normal((1, 3, 32, 32, 32)).astype(np.float32), requires_grad=True)
    labels = rng.integers(0, 3, (1, 32, 32, 32))
    with recording():  # warm-up
        dice_ce_loss(logits, labels)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with recording() as tape:
            loss = dice_ce_loss(logits, labels)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tape) == 1 and np.isfinite(loss.data)
    assert held <= labels.size + LOSS_NODE_SLACK, held


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

# Peak live bytes from the last model call to the return: the accumulator,
# the f32 weight map, the last window's logits and the 9,600-byte u8 labels,
# 190,336 together, plus 8,192 for one depth slice's blend product and
# weight sums (3,072 and 1,600 bytes) and Python objects; 194,632 measured.
# It was 299,920 while the weight sums were formed as one (24, 20, 20) array
# and each window's weighted logits as one product.
AFTER_LAST_WINDOW_BUDGET = 115_200 + 16_384 + 49_152 + 9_600 + 8_192


def test_sliding_window_holds_only_its_accumulator_during_model_calls():
    vol = np.random.default_rng(0).standard_normal((1, 1, 24, 20, 20)).astype(np.float32)
    seen = []

    def model(patch):
        seen.append(tracemalloc.get_traced_memory()[0] - base)
        if len(seen) == 8:
            tracemalloc.reset_peak()  # from here on: the last blend, the weight sums, the labels
        return np.full((1, 3) + patch.shape[2:], 0.5, dtype=np.float32)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = sliding_window_infer(vol, model, window=(16, 16, 16))
        after_last = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(seen) == 8 and np.all(result.logits == 0.5)
    assert max(seen) < WINDOW_CALL_BUDGET, seen
    assert after_last < AFTER_LAST_WINDOW_BUDGET, after_last


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
    [T.exp, T.softplus, lambda a: T.softmax(a, axis=-1), T.silu, T.gelu],
    ids=["exp", "softplus", "softmax", "silu", "gelu"],
)
def test_one_input_activation_keeps_one_input_sized_array(rng, op):
    x = Tensor(rng.standard_normal((4, 5, 6)), requires_grad=True)
    kept = _node_arrays(op, x)
    assert [a.shape for a in kept] == [x.shape]
    if op in (T.silu, T.gelu):
        # the derivative the forward formed, not the input itself
        assert not np.shares_memory(kept[0], x.data)


def test_layer_norm_output_is_shared_by_the_q_and_v_lora_projections(rng):
    cfg = TrainConfig(C=16, n_heads=2, adapter_r=8, adapter_d_state=4, lora_rank=2, crop=(4, 32, 32))
    blk = ViTBlock.init(cfg, rng, "block").astype(np.float32)
    # slice-major features, so the block's tokens are a strided view
    F = Tensor(rng.standard_normal((1, 4, 16, 2, 2)).astype(np.float32))
    with recording() as tape:
        vit_block_forward(F, blk)

    def lora_input(lora):
        [node] = [n for n in tape.nodes if any(r is lora for r in n.inputs)]
        [x] = [a for a in _kept_arrays(node.backward) if a.shape == (4 * 2 * 2, cfg.C)]  # (tokens, C)
        return x

    assert np.shares_memory(lora_input(blk.q.a_lora), lora_input(blk.v.a_lora))


# tracemalloc peaks of one unrecorded call on 100,000 f64 values, measured
# at the parent of the change that moved the derivative into the forward:
# gelu 2,400,472 bytes and silu 1,767,352 bytes with no tape, 2,401,376 and
# 1,768,240 on a tape with a frozen input.  An unrecorded call forms no
# derivative, so it allocates no more than that.  gelu's bounds are those of
# its blocked form, which holds its output and a few GELU_BLOCK-sized
# temporaries: 931,872 and 932,760 (1,600,488 and 1,601,592 in place on
# the whole array, two input-sized arrays at once).  The slack covers
# interpreter objects, whose bytes vary by a few dozen between runs, and is
# under 0.2% of one 800,000-byte array.
UNRECORDED_PEAK = {"gelu": (931_872, 932_760), "silu": (1_767_352, 1_768_240)}
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


def test_unrecorded_softmax_forms_its_output_in_one_buffer(rng):
    # the input is 800,000 bytes; forming exp(x - m) and the quotient as two
    # arrays would peak at 1,667,168
    x = Tensor(rng.standard_normal((100, 1000)))
    T.softmax(x, axis=-1)  # warm-up
    tracemalloc.start()
    try:
        T.softmax(x, axis=-1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * x.data.nbytes, peak


def _pass_peaks(op, x):
    """tracemalloc peaks of a one-node op's recorded forward and of its
    backward on a gradient made beforehand, with that gradient's size."""
    op(x)  # warm-up
    tracemalloc.start()
    try:
        with recording() as tape:
            y = op(x)
        forward = tracemalloc.get_traced_memory()[1]
        g = np.ones_like(y.data)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        gx = tape.nodes[0].backward(g)[0]
        backward = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    return forward, y.data.nbytes, backward, gx.nbytes


# Per-channel statistics and interpreter objects: normalize's forward and
# backward each measured 2,592 to 3,416 bytes above their two arrays.
SMALL_SLACK = 4096


def test_upsample_passes_peak_below_output_plus_one_input(rng):
    """At train_overfit's head shape each chunk of depth slices holds a
    half-upsampled intermediate of 110,592 bytes.  Formed whole, it is twice
    the input, and the passes peaked at 3,579,000 and 1,770,488 bytes."""
    x = Tensor(rng.standard_normal((1, 2, 32, 48, 48)).astype(np.float32), requires_grad=True)
    forward, out, backward, gx = _pass_peaks(upsample_hw, x)
    assert forward < out + x.data.nbytes, forward
    assert backward < gx + x.data.nbytes, backward


def test_normalize_passes_peak_below_output_plus_one_input(rng):
    """Instance norm at the decoder's last stage shape: the centred input is
    freed before the output exists and the input gradient is formed in
    g * gamma's buffer; the passes
    peaked at 5,311,912 and 5,310,736 bytes, three input-sized arrays, while
    each formed its terms as new arrays."""
    x = Tensor(rng.standard_normal((1, 6, 32, 48, 48)).astype(np.float32), requires_grad=True)
    gamma = Parameter("g", rng.standard_normal(6).astype(np.float32))
    beta = Parameter("b", rng.standard_normal(6).astype(np.float32))
    forward, out, backward, gx = _pass_peaks(lambda t: normalize(t, "instance_norm", gamma, beta), x)
    assert forward < out + x.data.nbytes + SMALL_SLACK, forward
    assert backward < gx + x.data.nbytes + SMALL_SLACK, backward


def _array_data_bytes():
    """Live bytes in numpy's tracemalloc domain: array buffers only, no
    interpreter objects."""
    domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([domain]).traces)


def test_tape_kept_bytes_match_the_array_bytes_its_forward_leaves():
    """`Tape.kept_bytes` against the growth of numpy's array buffers over the
    same recorded forward and loss of `selfcheck.TOY`, on a deeper input so
    the parameters the closures also read (22,000 bytes at most) weigh under
    1%.  An array a node keeps outside its closure shows as growth the count
    misses; the count read 0.3% above the growth."""
    rng = np.random.default_rng(0)
    model = build_model(TOY)
    x = Tensor(rng.standard_normal((1, 1, 128) + TOY.crop[1:]).astype(np.float32))
    labels = rng.integers(0, TOY.n_classes, (1, 128) + TOY.crop[1:])
    with recording():  # warm-up
        dice_ce_loss(model.forward(x), labels)
    tracemalloc.start()
    try:
        base = _array_data_bytes()
        with recording() as tape:
            loss = dice_ce_loss(model.forward(x), labels)
        grown = _array_data_bytes() - base
    finally:
        tracemalloc.stop()
    kept = tape.kept_bytes()
    assert np.isfinite(loss.data) and len(tape) > 400
    assert abs(kept - grown) <= 0.01 * grown, (kept, grown)
    tape.backward(loss)
    assert tape.kept_bytes() == 0
