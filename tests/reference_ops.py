"""Tape nodes that only the tests use, built on the engine's `_record`.

They compose references for fused or saturating primitives: the composed
Dice+CE loss and log(softmax).  Each returns None for an input that needs no
gradient, like every primitive in the package.
"""

import numpy as np

from tpmamba import tensor as T


def log(a):
    return T._record((a,), np.log(a.data), lambda g: (g / a.data,))


def div(a, b):
    def backward(g):
        return (
            T._unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
            T._unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None,
        )

    return T._record((a, b), a.data / b.data, backward)
