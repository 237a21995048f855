"""Dense tensor engine with tape-based reverse-mode differentiation.

Values are numpy arrays in row-major order (f32 for training, f64 for the
check suites).  Every differentiable primitive records a node on the active
tape when one of its inputs requires a gradient; replaying the tape in reverse
order accumulates gradients into the trainable leaves.  A node's backward
returns a gradient for exactly the inputs that require one and None for the
rest, whose work it skips.  With no tape active the same numpy code runs, so
recorded and unrecorded forward passes are bit-identical.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ShapeError

Array = np.ndarray

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense n-dimensional value, optionally participating in gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32 if dtype is None else dtype)
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


class Parameter(Tensor):
    """A named tensor in a model; frozen parameters never allocate a grad."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, trainable: bool = True, dtype=None):
        super().__init__(data, dtype=dtype, requires_grad=trainable)
        self.name = name

    @property
    def trainable(self) -> bool:
        return self.requires_grad

    def __repr__(self) -> str:
        kind = "trainable" if self.trainable else "frozen"
        return f"Parameter({self.name!r}, shape={self.shape}, {kind})"


class Module:
    """Base of the model's parameter dataclasses.

    `parameters()` walks the dataclass fields in declaration order, taking
    Parameters, nested Modules and lists of either; that order is the
    checkpoint order.  Parameter names key the AdamW moments and the
    checkpoint manifest, so `named_parameters()` and `partition()` reject a
    model in which two parameters share a name.
    """

    def parameters(self) -> list[Parameter]:
        out = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Parameter):
                    out.append(item)
                elif isinstance(item, Module):
                    out.extend(item.parameters())
        return out

    def named_parameters(self) -> dict[str, Parameter]:
        named = {}
        for p in self.parameters():
            if p.name in named:
                raise ConfigError(f"duplicate parameter name {p.name!r}")
            named[p.name] = p
        return named

    def partition(self) -> tuple[list[Parameter], list[Parameter]]:
        """(trainable, frozen), each in walk order."""
        params = self.named_parameters().values()
        return [p for p in params if p.trainable], [p for p in params if not p.trainable]


class _Node:
    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs, output, backward):
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into .grad of every trainable leaf."""
        grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
        produced = {id(n.output) for n in self.nodes}
        leaves: dict[int, Tensor] = {}
        for node in reversed(self.nodes):
            g = grads.pop(id(node.output), None)
            if g is None:
                continue
            for t, ig in zip(node.inputs, node.backward(g)):
                if ig is None:
                    continue
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + ig
                else:
                    grads[key] = ig
                    if key not in produced:
                        leaves[key] = t
        for key, t in leaves.items():
            t.grad = grads[key].copy() if t.grad is None else t.grad + grads[key]


_ACTIVE_TAPE: Optional[Tape] = None


@contextlib.contextmanager
def recording():
    """Activate a new tape; yields it.  Nested recording is not supported."""
    global _ACTIVE_TAPE
    if _ACTIVE_TAPE is not None:
        raise RuntimeError("a tape is already recording")
    _ACTIVE_TAPE = tape = Tape()
    try:
        yield tape
    finally:
        _ACTIVE_TAPE = None


def _needs_grad(inputs: Sequence[Tensor]) -> bool:
    """True when `_record` would record a node for these inputs."""
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)


def _record(inputs: Sequence[Tensor], out_data: Array, backward: Callable) -> Tensor:
    """Wrap a primitive result, recording a tape node when gradients flow."""
    needs = _needs_grad(inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = needs
    if needs:
        _ACTIVE_TAPE.nodes.append(_Node(tuple(inputs), out, backward))
    return out


def _unbroadcast(g: Array, shape: tuple) -> Array:
    """Reduce a broadcasted gradient back to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _record((a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _record((a, b), out, backward)


def neg(a: Tensor) -> Tensor:
    return _record((a,), -a.data, lambda g: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar constant (no dtype promotion)."""
    out = a.data * a.data.dtype.type(s)
    return _record((a,), out, lambda g: (g * a.data.dtype.type(s),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _record((a,), out, lambda g: (g * out,))


def square(a: Tensor) -> Tensor:
    return _record((a,), a.data * a.data, lambda g: (2.0 * g * a.data,))


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record((a,), out, backward)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} into {shape}: element count differs")
    # materialize: downstream kernels must see values only, never strides
    out = np.ascontiguousarray(a.data.reshape(shape))
    return _record((a,), out, lambda g: (np.ascontiguousarray(g).reshape(a.shape),))


def permute(a: Tensor, axes) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute spec {axes} is not a permutation of {a.ndim} axes")
    inv = tuple(int(i) for i in np.argsort(axes))
    out = np.transpose(a.data, axes)
    return _record((a,), out, lambda g: (np.transpose(g, inv),))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.data[idx]

    def backward(g):
        full = np.zeros(a.shape, dtype=a.data.dtype)
        full[idx] = g
        return (full,)

    return _record((a,), out, backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for i, t in enumerate(tensors):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(idx)] if t.requires_grad else None)
        return tuple(grads)

    return _record(tuple(tensors), out, backward)


def stack(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.take(g, i, axis=axis) if t.requires_grad else None for i, t in enumerate(tensors))

    return _record(tuple(tensors), out, backward)


# ---------------------------------------------------------------------------
# contractions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading batch extents must match exactly,
    or one operand may be a plain 2-D matrix shared across the batch."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch extents disagree: {a.shape} @ {b.shape}")
    ad = np.ascontiguousarray(a.data)
    bd = np.ascontiguousarray(b.data)
    out = np.matmul(ad, bd)

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.ascontiguousarray(np.swapaxes(bd, -1, -2))), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.ascontiguousarray(np.swapaxes(ad, -1, -2)), g), b.shape)
        return ga, gb

    return _record((a, b), out, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """y = x @ weight.T (+ bias) with weight of shape (out, in), as one 2-D
    GEMM over the flattened leading axes, forward and backward."""
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"linear: input width {x.shape} vs weight {weight.shape}")
    flat_x = np.ascontiguousarray(x.data).reshape(-1, x.shape[-1])
    out = flat_x @ weight.data.T
    if bias is not None:
        out += bias.data

    def backward(g):
        flat_g = np.ascontiguousarray(g).reshape(-1, g.shape[-1])
        gx = (flat_g @ weight.data).reshape(x.shape) if x.requires_grad else None
        gw = flat_g.T @ flat_x if weight.requires_grad else None
        if bias is not None:
            return gx, gw, flat_g.sum(axis=0) if bias.requires_grad else None
        return gx, gw

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _record(inputs, out.reshape(x.shape[:-1] + (weight.shape[0],)), backward)


# ---------------------------------------------------------------------------
# nonlinear primitives


# A result that underflows to 0 or a subnormal is the exact limit of these
# functions, not an error.
_UNDERFLOW_OK = np.errstate(under="ignore")


@_UNDERFLOW_OK
def silu(a: Tensor) -> Tensor:
    s = _sigmoid_np(a.data)
    out = a.data * s
    return _record((a,), out, _UNDERFLOW_OK(lambda g: (g * (s * (1.0 + a.data * (1.0 - s))),)))


@_UNDERFLOW_OK
def softplus(a: Tensor) -> Tensor:
    out = np.logaddexp(a.data.dtype.type(0), a.data)
    return _record((a,), out, _UNDERFLOW_OK(lambda g: (g * _sigmoid_np(a.data),)))


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(a: Tensor) -> Tensor:
    """GELU in its tanh approximation."""
    x = a.data
    # integer powers as products: on float32, `x**3` takes numpy's slow `pow` loop
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        # 0.5*(1+t) + 0.5*x*(1-t*t) * c*(1+3*0.044715*x*x), built in place
        d = x * x
        d *= 3 * 0.044715
        d += 1.0
        d *= _GELU_C
        d *= 0.5 * x * (1.0 - t * t)
        d += 0.5 * (1.0 + t)
        d *= g
        return (d,)

    return _record((a,), out.astype(x.dtype, copy=False), backward)


def softmax(a: Tensor, axis: int) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _record((a,), out, backward)


@_UNDERFLOW_OK
def _sigmoid_np(x: Array) -> Array:
    """Logistic function as 1/(1+e) for x >= 0 and e/(1+e) below, where
    e = exp(-|x|) <= 1 cannot overflow.  The numerator is picked arithmetically,
    max(e, x >= 0), because masked selects are ~10x slower than the formula."""
    e = np.negative(x)
    np.minimum(x, e, out=e)  # -|x|, keeping a NaN's bits as they are
    np.exp(e, out=e)
    d = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, d, out=d)


# ---------------------------------------------------------------------------
# helpers


def uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype=np.float32) -> Array:
    """Fan-in scaled uniform init, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)
