import numpy as np
import pytest

from tpmamba.errors import NumericError
from tpmamba.optim import AdamWState, adamw_step, lr_schedule
from tpmamba.tensor import Parameter


def test_first_step_moves_by_lr():
    p = Parameter("p", np.zeros(4, dtype=np.float64), dtype=np.float64)
    p.grad = np.ones(4)
    state = AdamWState([p])
    adamw_step([p], state, lr=1e-2, weight_decay=0.0)
    np.testing.assert_allclose(p.data, -1e-2, rtol=1e-6)


@pytest.mark.parametrize("grad", [np.zeros(3), None], ids=["zeros", "None"])
def test_decoupled_decay_with_zero_grad(grad):
    # A parameter no node reached (None, as in a single-plane scan mode) steps
    # exactly as one with a zero gradient: by the decay alone.
    p = Parameter("p", np.full(3, 2.0, dtype=np.float64), dtype=np.float64)
    p.grad = grad
    state = AdamWState([p])
    adamw_step([p], state, lr=0.1, weight_decay=0.5)
    np.testing.assert_array_equal(p.data, np.full(3, 2.0 - 0.1 * 0.5 * 2.0))
    assert not state.m["p"].any() and not state.v["p"].any()


def test_frozen_untouched():
    frozen = Parameter("fz", np.ones(3, dtype=np.float64), trainable=False, dtype=np.float64)
    free = Parameter("p", np.ones(3, dtype=np.float64), dtype=np.float64)
    free.grad = np.ones(3)
    state = AdamWState([frozen, free])
    before = frozen.data.copy()
    adamw_step([frozen, free], state, lr=0.1, weight_decay=0.1)
    np.testing.assert_array_equal(frozen.data, before)
    assert not np.array_equal(free.data, np.ones(3))


def test_nonfinite_grad_aborts_with_name():
    p = Parameter("layer.weight", np.ones(2, dtype=np.float64), dtype=np.float64)
    p.grad = np.array([np.inf, 0.0])
    state = AdamWState([p])
    with pytest.raises(NumericError, match="layer.weight"):
        adamw_step([p], state, lr=0.1, weight_decay=0.0)


def test_lr_schedule_endpoints_and_midpoint():
    assert lr_schedule(0, 1000, 2e-4) == 2e-4
    assert lr_schedule(1000, 1000, 2e-4) == 0.0
    assert abs(lr_schedule(500, 1000, 2e-4) - 1e-4) < 1e-12
    assert abs(lr_schedule(999, 1000, 2e-4) - 2e-7) < 1e-15  # the last epoch that trains


def test_moments_accumulate_deterministically():
    p1 = Parameter("p", np.ones(2, dtype=np.float64), dtype=np.float64)
    p2 = Parameter("p", np.ones(2, dtype=np.float64), dtype=np.float64)
    s1, s2 = AdamWState([p1]), AdamWState([p2])
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(2) for _ in range(5)]
    for g in grads:
        p1.grad = g.copy()
        adamw_step([p1], s1, lr=1e-3, weight_decay=1e-2)
    for g in grads:
        p2.grad = g.copy()
        adamw_step([p2], s2, lr=1e-3, weight_decay=1e-2)
    np.testing.assert_array_equal(p1.data, p2.data)
