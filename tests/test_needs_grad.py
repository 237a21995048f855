"""Needs-grad contract of every differentiable primitive, over `GRAD_CASES`.

A recorded node's backward returns None for each input that does not require
a gradient, and the gradients that reach the trainable parameters are
bit-identical to the ones they get when every parameter is trainable.
"""

import numpy as np
import pytest

from model_helpers import recorder_of
from tpmamba import ssm
from tpmamba import tensor as T
from tpmamba.selfcheck import GRAD_CASES, case_rng
from tpmamba.tensor import Tensor, recording

# the selective_scan case's (b, E, N) = (1, 2, 3) takes 3 steps a tile, and
# the mamba_block case's (1, 8, 2) the isqrt(8) = 2-step minimum
SCAN_TILE_STATES = 18


def test_scan_case_spans_several_tiles_of_several_steps(monkeypatch):
    # the state entering a tile comes from the tile before it and, in the
    # backward, from the kept tile start; at least two tiles of at least two
    # steps run both, and the reverse carry from one tile into the next
    monkeypatch.setattr(ssm, "SCAN_TILE_STATES", SCAN_TILE_STATES)
    tile_steps = ssm.scan_tile_steps
    shapes = []
    monkeypatch.setattr(ssm, "scan_tile_steps", lambda *bLEN: shapes.append(bLEN) or tile_steps(*bLEN))
    for name in ("selective_scan", "mamba_block"):
        shapes.clear()
        case = next(case for case in GRAD_CASES if case.name == name)
        case.build(case_rng(case))[0]()
        assert shapes, f"the {name} case runs no scan"
        for b, L, E, N in shapes:
            steps = tile_steps(b, L, E, N)
            tiles = [min(steps, L - t) for t in range(0, L, steps)]
            assert len(tiles) >= 2 and min(tiles) >= 2, f"{name}: tiles of {tiles} steps"


def test_cases_cover_every_recording_function():
    # test_ops holds GRAD_CASES to recording every such function; the masks
    # also freeze each input of a primitive independently, so each function
    # that records a node of several inputs takes them, in some case, straight
    # from distinct parameters
    several, direct = set(), set()
    for case in GRAD_CASES:
        loss_fn, params = case.build(case_rng(case))
        with recording() as tape:
            loss_fn()
        for node in tape.nodes:
            if sum(ref is not None for ref in node.inputs) >= 2:
                several.add(recorder_of(node))
            leaves = {id(ref) for ref in node.inputs}
            if len(leaves) == len(node.inputs) >= 2 and leaves <= {id(p) for p in params}:
                direct.add(recorder_of(node))
    assert several <= direct, f"no case feeds these straight from parameters: {sorted(several - direct)}"


def _checked(backward, refs):
    """`backward`, asserting it returns a gradient for exactly the inputs
    the node references: the produced tensors and trainable leaves."""

    def wrapped(g):
        grads = backward(g)
        assert len(grads) == len(refs)
        for i, (grad, ref) in enumerate(zip(grads, refs)):
            assert (grad is None) == (ref is None), f"{backward.__qualname__}, input {i}: needs grad {ref is not None}"
        return grads

    return wrapped


def _leaf_grads(case, mask=None):
    """Each parameter's .grad after one backward of the case's loss, with
    only the parameters that `mask` marks trainable (all of them if None)."""
    loss_fn, params = case.build(case_rng(case))
    for p, trainable in zip(params, mask or [True] * len(params)):
        p.requires_grad = trainable
    with recording() as tape:
        loss = loss_fn()
    if not loss.requires_grad:
        assert not tape.nodes
    for node in tape.nodes:
        node.backward = _checked(node.backward, node.inputs)
    tape.backward(loss)
    return [p.grad for p in params]


@pytest.mark.parametrize("case", GRAD_CASES, ids=lambda case: case.name)
def test_masked_inputs_get_none_and_the_rest_are_unchanged(case, monkeypatch):
    # several scan tiles of several steps, so every branch of the scan's backward runs
    monkeypatch.setattr(ssm, "SCAN_TILE_STATES", SCAN_TILE_STATES)
    full = _leaf_grads(case)
    assert all(g is not None for g in full)
    n = len(full)

    # each parameter frozen in turn, and each parameter the only trainable one
    masks = {tuple(j != i for j in range(n)) for i in range(n)} | {tuple(j == i for j in range(n)) for i in range(n)}
    for mask in sorted(masks):
        for j, (g, trainable) in enumerate(zip(_leaf_grads(case, mask), mask)):
            assert (g is not None) == trainable, f"parameter {j}, mask {mask}: has a gradient {g is not None}"
            if trainable:
                assert g.dtype == full[j].dtype and g.shape == full[j].shape and g.tobytes() == full[j].tobytes()


def test_tape_backward_reaches_only_trainable_leaves(rng):
    x = Tensor(rng.standard_normal((3, 4)))
    w = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(2))
    with recording() as tape:
        loss = T.tsum(T.linear(x, w, b))
    tape.backward(loss)
    assert x.grad is None and b.grad is None
    np.testing.assert_array_equal(w.grad, np.ones((3, 2), dtype=x.dtype).T @ x.data)
