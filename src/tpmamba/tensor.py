"""Dense tensor engine with tape-based reverse-mode differentiation.

Values are numpy arrays in row-major order (f32 for training, f64 for the
check suites).  Every differentiable primitive records a node on the active
tape when one of its inputs requires a gradient; replaying the tape in reverse
order writes the gradients of the trainable leaves.  A node's backward
returns a gradient for exactly the inputs that require one and None for the
rest, whose work it skips.  Its closure keeps shapes, flags and only the
arrays its formula reads: a one-input activation keeps one (gelu and silu
their derivative, which the forward forms only under a tape).  The node names
the tensors this tape produced by a key, so the tape pins no intermediate's
data, and a replay releases each node as it goes.  With no tape active the same
numpy code runs, so recorded and unrecorded forward passes are bit-identical.
`recompute` records a span of primitives as one node that keeps only the
span's inputs and reruns the span in backward, with the same bits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ShapeError

Array = np.ndarray

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense n-dimensional value, optionally participating in gradients."""

    __slots__ = ("data", "requires_grad", "grad", "key")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32 if dtype is None else dtype)
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None
        self.key: Optional[int] = None  # set when a tape node produces this tensor

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

    Subclass `init`s draw in f64, and `astype` casts once (`SegModel.init`
    to f32).  `parameters()` walks the dataclass fields in declaration order,
    taking Parameters, nested Modules and lists of either; that order is the
    checkpoint order.  Parameter names key the AdamW moments and the
    checkpoint manifest, so `named_parameters()` and `partition()` reject a
    model in which two parameters share a name.
    """

    def astype(self, dtype):
        """Cast every parameter to `dtype` in place; returns the module."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self

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


# Keys of the tensors that nodes produce.  Never reused, unlike an id(), which
# a tensor that dies mid-forward frees for a leaf made later to take; and
# negative, so never equal to the id() that keys a leaf's gradient.
_KEYS = itertools.count(-1, -1)


class _Node:
    """One recorded primitive: the key of its output, one reference per input
    (a produced tensor's key, a leaf that needs a gradient, or None) and the
    backward closure.  A replay drops the references and the closure."""

    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs, output, backward):
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.first_key = next(_KEYS)  # every key below it was produced on this tape
        self.replayed = False
        self.rerun_nodes = 0  # recorded by the `recompute` reruns of this tape's replay

    def __len__(self) -> int:
        """The nodes recorded on this tape, and once it has replayed, those
        its `recompute` nodes recorded when they reran."""
        return len(self.nodes) + self.rerun_nodes

    def _ref(self, t: Tensor):
        if t.key is not None and t.key < self.first_key:
            return t.key
        return t if t.requires_grad else None

    def _replay(self, key: int, g: Array) -> tuple[dict[int, Array], dict[int, Tensor]]:
        """Replay from the gradient `g` of the tensor produced under `key`:
        the gradients summed per key, and the leaves they reached by id.  A
        tape replays once, dropping each node's closure and input references
        as its turn comes, so its arrays can be freed."""
        if self.replayed:
            raise RuntimeError("this tape was already replayed; record a new one")
        self.replayed = True
        grads: dict[int, Array] = {key: g}
        leaves: dict[int, Tensor] = {}
        recorded = _RECORDED
        for node in reversed(self.nodes):
            refs, backward = node.inputs, node.backward
            node.inputs = node.backward = None
            g = grads.pop(node.output, None)
            if g is None:
                continue
            for ref, ig in zip(refs, backward(g)):
                if ig is None or ref is None:
                    continue
                key = ref if isinstance(ref, int) else id(ref)
                if key in grads:
                    grads[key] = grads[key] + ig
                else:
                    grads[key] = ig
                    if key is not ref:
                        leaves[key] = ref
        self.rerun_nodes = _RECORDED - recorded
        return grads, leaves

    def backward(self, loss: Tensor) -> None:
        """Write d(loss)/d(leaf) to .grad of every trainable leaf it reaches,
        after refusing any whose .grad an earlier backward left set."""
        grads, leaves = self._replay(loss.key, np.ones_like(loss.data))
        if stale := [repr(t) for t in leaves.values() if t.grad is not None]:
            raise RuntimeError(f"clear .grad before a new backward; still set on {', '.join(stale)}")
        for key, t in leaves.items():
            t.grad = grads[key].copy()

    def kept_bytes(self) -> int:
        """Bytes of the arrays the backward closures of the nodes not yet
        replayed hold, counting each base buffer once: what this tape keeps
        alive for its backward.  It reads the closures of each closure's
        functions too, the items of a tuple, and a Tensor's data unless it
        is a Parameter's."""
        bases, seen = {}, set()
        for node in self.nodes:
            fns = [node.backward]
            while fns:
                fn = fns.pop()
                if id(fn) in seen:
                    continue
                seen.add(id(fn))
                for cell in getattr(fn, "__closure__", None) or ():
                    try:
                        v = cell.cell_contents
                    except ValueError:  # a cell not yet filled
                        continue
                    for a in v if isinstance(v, tuple) else (v,):  # `recompute` keeps a tuple
                        if isinstance(a, Tensor) and not isinstance(a, Parameter):
                            a = a.data
                        if isinstance(a, np.ndarray):
                            while isinstance(a.base, np.ndarray):
                                a = a.base
                            bases[id(a)] = a.nbytes
                        elif callable(a):
                            fns.append(a)
        return sum(bases.values())


_ACTIVE_TAPE: Optional[Tape] = None
_RECORDED = 0  # nodes recorded so far, on any tape


@contextlib.contextmanager
def _active(tape: Optional[Tape]):
    """Make `tape` (None: no tape) the active one, restoring the one before on exit."""
    global _ACTIVE_TAPE
    before, _ACTIVE_TAPE = _ACTIVE_TAPE, tape
    try:
        yield tape
    finally:
        _ACTIVE_TAPE = before


@contextlib.contextmanager
def recording():
    """Activate a new tape; yields it.  Nested recording is not supported."""
    if _ACTIVE_TAPE is not None:
        raise RuntimeError("a tape is already recording")
    with _active(Tape()) as tape:
        yield tape


def _needs_grad(inputs: Sequence[Tensor]) -> bool:
    """True when `_record` would record a node for these inputs."""
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)


def _record(inputs: Sequence[Tensor], out_data: Array, backward: Callable) -> Tensor:
    """Wrap a primitive result, recording a tape node when gradients flow."""
    global _RECORDED
    needs = _needs_grad(inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = needs
    out.key = next(_KEYS) if needs else None
    if needs:
        tape = _ACTIVE_TAPE
        tape.nodes.append(_Node(tuple(tape._ref(t) for t in inputs), out.key, backward))
        _RECORDED += 1
    return out


def recompute(fn: Callable[..., Tensor], inputs: Sequence[Tensor], params: Sequence[Tensor]) -> Tensor:
    """`fn(*inputs)` as one node that keeps only the arrays of `inputs`:
    segment checkpointing (Chen et al., arXiv 1604.06174).  The forward runs
    `fn` with no tape.  The node's backward reruns it on those arrays under a
    fresh tape, replays that tape from the node's output gradient and returns
    the gradients of `inputs` and `params`, which must list every trainable
    parameter `fn` reads: the rerun reaching any other trainable leaf raises
    `RuntimeError`.  `fn` must be deterministic and leave its inputs as they
    are, so the rerun forms the forward's bits.  With no tape active this is
    a plain call."""
    inputs, params = tuple(inputs), tuple(params)
    if _ACTIVE_TAPE is None:
        return fn(*inputs)
    with _active(None):
        out = fn(*inputs).data
    arrays, needs = tuple(t.data for t in inputs), tuple(t.requires_grad for t in inputs)

    def backward(g):
        leaves = tuple(Tensor(a, requires_grad=need) for a, need in zip(arrays, needs))
        with _active(Tape()) as tape:
            key = fn(*leaves).key
        grads, reached = tape._replay(key, g)
        given = {id(t) for t in leaves + params}
        if stray := [repr(t) for k, t in reached.items() if k not in given]:
            raise RuntimeError(f"recompute: the rerun reached trainable {', '.join(stray)}, not given in params")
        return tuple(grads.get(id(t)) for t in leaves + params)

    return _record(inputs + params, out, backward)


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
    need_a, need_b, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, sa) if need_a else None, _unbroadcast(g, sb) if need_b else None

    return _record((a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    need_a, need_b, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
    # each operand is kept only for the other's gradient
    ad = a.data if need_b else None
    bd = b.data if need_a else None

    def backward(g):
        return (
            _unbroadcast(g * bd, sa) if need_a else None,
            _unbroadcast(g * ad, sb) if need_b else None,
        )

    return _record((a, b), out, backward)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar constant (no dtype promotion)."""
    c = a.data.dtype.type(s)
    return _record((a,), a.data * c, lambda g: (g * c,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _record((a,), out, lambda g: (g * out,))


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)
    shape = a.shape

    def backward(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _record((a,), out, backward)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} into {shape}: element count differs")
    # materialize: downstream kernels must see values only, never strides
    out = np.ascontiguousarray(a.data.reshape(shape))
    in_shape = a.shape
    return _record((a,), out, lambda g: (np.ascontiguousarray(g).reshape(in_shape),))


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
    shape, dtype = a.shape, a.dtype

    def backward(g):
        full = np.zeros(shape, dtype=dtype)
        full[idx] = g
        return (full,)

    return _record((a,), out, backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    needs = [t.requires_grad for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(g):
        grads = []
        for i, need in enumerate(needs):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(idx)] if need else None)
        return tuple(grads)

    return _record(tuple(tensors), out, backward)


def stack(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = np.stack([t.data for t in tensors], axis=axis)
    needs = [t.requires_grad for t in tensors]

    def backward(g):
        return tuple(np.take(g, i, axis=axis) if need else None for i, need in enumerate(needs))

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
    need_a, need_b, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
    # each operand is kept only for the other's gradient
    ad = ad if need_b else None
    bd = bd if need_a else None

    def backward(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(np.matmul(g, np.ascontiguousarray(np.swapaxes(bd, -1, -2))), sa)
        if need_b:
            gb = _unbroadcast(np.matmul(np.ascontiguousarray(np.swapaxes(ad, -1, -2)), g), sb)
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
    need_x, need_w, x_shape = x.requires_grad, weight.requires_grad, x.shape
    has_bias = bias is not None
    need_b = has_bias and bias.requires_grad
    # the input only for the weight's gradient, the weight only for the input's
    flat_x = flat_x if need_w else None
    w = weight.data if need_x else None

    def backward(g):
        flat_g = np.ascontiguousarray(g).reshape(-1, g.shape[-1])
        gx = (flat_g @ w).reshape(x_shape) if need_x else None
        gw = flat_g.T @ flat_x if need_w else None
        if has_bias:
            return gx, gw, flat_g.sum(axis=0) if need_b else None
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
    x = a.data
    s = _sigmoid_np(x)
    d = s * (1.0 + x * (1.0 - s)) if _needs_grad((a,)) else None
    return _record((a,), x * s, _UNDERFLOW_OK(lambda g: (d * g,)))


@_UNDERFLOW_OK
def softplus(a: Tensor) -> Tensor:
    x = a.data
    out = np.logaddexp(x.dtype.type(0), x)
    return _record((a,), out, _UNDERFLOW_OK(lambda g: (g * _sigmoid_np(x),)))


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
GELU_BLOCK = 2**13  # values per block of gelu's passes, so its temporaries stay small


def gelu(a: Tensor) -> Tensor:
    """GELU in its tanh approximation, formed block by block in its output's
    buffer (and the derivative's), so no input-sized temporary exists."""
    x = a.data.reshape(-1)
    out = np.empty_like(x)
    d = np.empty_like(out) if _needs_grad((a,)) else None
    for i in range(0, x.size, GELU_BLOCK):
        xb = x[i : i + GELU_BLOCK]
        # t = tanh(c * (x + 0.044715*x^3)) in place; on float32, `x**3` is numpy's slow `pow` loop
        t = np.multiply(xb, xb, out=out[i : i + GELU_BLOCK])
        t *= xb
        t *= 0.044715
        t += xb
        t *= _GELU_C
        np.tanh(t, out=t)
        half_x = 0.5 * xb
        if d is not None:
            # the derivative 0.5*(1+t) + 0.5*x*(1-t*t) * c*(1+3*0.044715*x*x);
            # backward keeps it instead of x and t
            db = np.multiply(xb, xb, out=d[i : i + GELU_BLOCK])
            db *= 3 * 0.044715
            db += 1.0
            db *= _GELU_C
            db *= half_x * (1.0 - t * t)
        t += 1.0
        if d is not None:
            db += 0.5 * t
        t *= half_x  # the output, 0.5*x * (1+t)
    shape = a.shape
    if d is not None:
        d = d.reshape(shape)
    return _record((a,), out.reshape(shape), lambda g: (d * g,))


def _softmax(x: Array, axis: int) -> tuple[Array, Array, Array]:
    """Softmax p of x over `axis` in one buffer, with the max m and the exp-sum
    `total` it divided by; the loss's backward recomputes p with it, bit for bit."""
    m = x.max(axis=axis, keepdims=True)
    p = np.subtract(x, m)
    np.exp(p, out=p)
    total = p.sum(axis=axis, keepdims=True)
    p /= total
    return p, m, total


def softmax(a: Tensor, axis: int) -> Tensor:
    out = _softmax(a.data, axis)[0]

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


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Array:
    """Fan-in scaled uniform init, U(-1/sqrt(fan_in), 1/sqrt(fan_in)), in f64."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
